#include "checker/trace.h"

#include <cassert>

namespace repro::checker {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kTrue: return "true";
    case Verdict::kFalse: return "false";
    case Verdict::kPending: return "pending";
  }
  return "?";
}

bool eval_atom(const psl::Atom& atom, const support::Snapshot& values) {
  const uint64_t lhs = values.value(atom.lhs);
  if (atom.op == psl::CmpOp::kTruthy) return lhs != 0;
  const uint64_t rhs =
      atom.rhs_is_signal ? values.value(atom.rhs_signal) : atom.rhs_value;
  switch (atom.op) {
    case psl::CmpOp::kTruthy: return lhs != 0;  // unreachable, kept for -Wswitch
    case psl::CmpOp::kEq: return lhs == rhs;
    case psl::CmpOp::kNe: return lhs != rhs;
    case psl::CmpOp::kLt: return lhs < rhs;
    case psl::CmpOp::kLe: return lhs <= rhs;
    case psl::CmpOp::kGt: return lhs > rhs;
    case psl::CmpOp::kGe: return lhs >= rhs;
  }
  return false;
}

bool eval_boolean(const psl::ExprPtr& e, const support::Snapshot& values) {
  assert(e && psl::is_boolean(e));
  switch (e->kind) {
    case psl::ExprKind::kConstTrue: return true;
    case psl::ExprKind::kConstFalse: return false;
    case psl::ExprKind::kAtom: return eval_atom(e->atom, values);
    case psl::ExprKind::kNot: return !eval_boolean(e->lhs, values);
    case psl::ExprKind::kAnd:
      return eval_boolean(e->lhs, values) && eval_boolean(e->rhs, values);
    case psl::ExprKind::kOr:
      return eval_boolean(e->lhs, values) || eval_boolean(e->rhs, values);
    case psl::ExprKind::kImplies:
      return !eval_boolean(e->lhs, values) || eval_boolean(e->rhs, values);
    default:
      assert(false && "eval_boolean applied to a temporal expression");
      return false;
  }
}

}  // namespace repro::checker
