#include "checker/trace.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace repro::checker {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kTrue: return "true";
    case Verdict::kFalse: return "false";
    case Verdict::kPending: return "pending";
  }
  return "?";
}

uint64_t MapContext::value(std::string_view name) const {
  auto it = values_.find(std::string(name));
  if (it == values_.end()) {
    // An assert would vanish under NDEBUG and the dereference would be UB;
    // fail fast with the name instead.
    std::fprintf(stderr,
                 "fatal: signal '%.*s' not present in evaluation context\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return it->second;
}

bool MapContext::has(std::string_view name) const {
  return values_.count(std::string(name)) != 0;
}

std::shared_ptr<const WitnessValues> MapContext::witness_values() const {
  auto values = std::make_shared<WitnessValues>();
  values->reserve(values_.size());
  for (const auto& [name, value] : values_) values->emplace_back(name, value);
  return values;
}

bool eval_atom(const psl::Atom& atom, const ValueContext& ctx) {
  const uint64_t lhs = ctx.value(atom.lhs);
  if (atom.op == psl::CmpOp::kTruthy) return lhs != 0;
  const uint64_t rhs =
      atom.rhs_is_signal ? ctx.value(atom.rhs_signal) : atom.rhs_value;
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

bool eval_boolean(const psl::ExprPtr& e, const ValueContext& ctx) {
  assert(e && psl::is_boolean(e));
  switch (e->kind) {
    case psl::ExprKind::kConstTrue: return true;
    case psl::ExprKind::kConstFalse: return false;
    case psl::ExprKind::kAtom: return eval_atom(e->atom, ctx);
    case psl::ExprKind::kNot: return !eval_boolean(e->lhs, ctx);
    case psl::ExprKind::kAnd: return eval_boolean(e->lhs, ctx) && eval_boolean(e->rhs, ctx);
    case psl::ExprKind::kOr: return eval_boolean(e->lhs, ctx) || eval_boolean(e->rhs, ctx);
    case psl::ExprKind::kImplies:
      return !eval_boolean(e->lhs, ctx) || eval_boolean(e->rhs, ctx);
    default:
      assert(false && "eval_boolean applied to a temporal expression");
      return false;
  }
}

}  // namespace repro::checker
