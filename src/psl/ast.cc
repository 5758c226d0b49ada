#include "psl/ast.h"

#include <algorithm>
#include <cassert>

namespace repro::psl {
namespace {

std::shared_ptr<Expr> make(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

}  // namespace

ExprPtr const_true() {
  static const ExprPtr t = make(ExprKind::kConstTrue);
  return t;
}

ExprPtr const_false() {
  static const ExprPtr f = make(ExprKind::kConstFalse);
  return f;
}

ExprPtr atom(Atom a) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAtom;
  e->atom = std::move(a);
  return e;
}

ExprPtr sig(std::string name) {
  Atom a;
  a.lhs = std::move(name);
  a.op = CmpOp::kTruthy;
  return atom(std::move(a));
}

ExprPtr cmp(std::string lhs, CmpOp op, uint64_t value) {
  Atom a;
  a.lhs = std::move(lhs);
  a.op = op;
  a.rhs_value = value;
  return atom(std::move(a));
}

ExprPtr not_(ExprPtr p) {
  assert(p);
  auto e = make(ExprKind::kNot);
  e->lhs = std::move(p);
  return e;
}

ExprPtr and_(ExprPtr a, ExprPtr b) {
  assert(a && b);
  auto e = make(ExprKind::kAnd);
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr or_(ExprPtr a, ExprPtr b) {
  assert(a && b);
  auto e = make(ExprKind::kOr);
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr implies(ExprPtr a, ExprPtr b) {
  assert(a && b);
  auto e = make(ExprKind::kImplies);
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr next(uint32_t n, ExprPtr p) {
  assert(n >= 1 && p);
  auto e = make(ExprKind::kNext);
  e->next_count = n;
  e->lhs = std::move(p);
  return e;
}

ExprPtr next_eps(uint32_t tau, TimeNs eps, ExprPtr p) {
  assert(eps >= 1 && p);
  auto e = make(ExprKind::kNextEps);
  e->tau = tau;
  e->eps = eps;
  e->lhs = std::move(p);
  return e;
}

ExprPtr until(ExprPtr a, ExprPtr b, bool strong) {
  assert(a && b);
  auto e = make(ExprKind::kUntil);
  e->strong = strong;
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr release(ExprPtr a, ExprPtr b) {
  assert(a && b);
  auto e = make(ExprKind::kRelease);
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr always(ExprPtr p) {
  assert(p);
  auto e = make(ExprKind::kAlways);
  e->lhs = std::move(p);
  return e;
}

ExprPtr eventually(ExprPtr p) {
  assert(p);
  auto e = make(ExprKind::kEventually);
  e->strong = true;
  e->lhs = std::move(p);
  return e;
}

ExprPtr abort_(ExprPtr p, ExprPtr b, bool strong) {
  assert(p && b && is_boolean(b));
  auto e = make(ExprKind::kAbort);
  e->strong = strong;
  e->lhs = std::move(p);
  e->rhs = std::move(b);
  return e;
}

bool equal(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case ExprKind::kConstTrue:
    case ExprKind::kConstFalse:
      return true;
    case ExprKind::kAtom:
      return a->atom == b->atom;
    case ExprKind::kNext:
      if (a->next_count != b->next_count) return false;
      break;
    case ExprKind::kNextEps:
      if (a->tau != b->tau || a->eps != b->eps) return false;
      break;
    case ExprKind::kUntil:
    case ExprKind::kEventually:
    case ExprKind::kAbort:
      if (a->strong != b->strong) return false;
      break;
    default:
      break;
  }
  return equal(a->lhs, b->lhs) && equal(a->rhs, b->rhs);
}

bool is_boolean(const ExprPtr& e) {
  if (!e) return true;
  switch (e->kind) {
    case ExprKind::kConstTrue:
    case ExprKind::kConstFalse:
    case ExprKind::kAtom:
      return true;
    case ExprKind::kNot:
      return is_boolean(e->lhs);
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kImplies:
      return is_boolean(e->lhs) && is_boolean(e->rhs);
    default:
      return false;
  }
}

bool is_literal(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == ExprKind::kAtom) return true;
  return e->kind == ExprKind::kNot && e->lhs && e->lhs->kind == ExprKind::kAtom;
}

namespace {

void collect_signals(const ExprPtr& e, std::set<std::string>& out) {
  if (!e) return;
  if (e->kind == ExprKind::kAtom) {
    out.insert(e->atom.lhs);
    if (e->atom.rhs_is_signal) out.insert(e->atom.rhs_signal);
    return;
  }
  collect_signals(e->lhs, out);
  collect_signals(e->rhs, out);
}

}  // namespace

std::set<std::string> referenced_signals(const ExprPtr& e) {
  std::set<std::string> out;
  collect_signals(e, out);
  return out;
}

std::vector<std::string> unbound_signals(
    const ExprPtr& e, const std::vector<std::string>& available) {
  std::vector<std::string> out;
  for (const std::string& signal : referenced_signals(e)) {
    if (std::find(available.begin(), available.end(), signal) ==
        available.end()) {
      out.push_back(signal);
    }
  }
  return out;
}

size_t node_count(const ExprPtr& e) {
  if (!e) return 0;
  return 1 + node_count(e->lhs) + node_count(e->rhs);
}

uint32_t max_next_depth(const ExprPtr& e) {
  if (!e) return 0;
  uint32_t self = e->kind == ExprKind::kNext ? e->next_count : 0;
  if (e->kind == ExprKind::kNextEps) self = e->tau;
  return self + std::max(max_next_depth(e->lhs), max_next_depth(e->rhs));
}

TimeNs max_eps(const ExprPtr& e) {
  if (!e) return 0;
  TimeNs self = e->kind == ExprKind::kNextEps ? e->eps : 0;
  return self + std::max(max_eps(e->lhs), max_eps(e->rhs));
}

bool has_temporal(const ExprPtr& e) {
  if (!e) return false;
  switch (e->kind) {
    case ExprKind::kNext:
    case ExprKind::kNextEps:
    case ExprKind::kUntil:
    case ExprKind::kRelease:
    case ExprKind::kAlways:
    case ExprKind::kEventually:
    case ExprKind::kAbort:
      return true;
    default:
      return has_temporal(e->lhs) || has_temporal(e->rhs);
  }
}

namespace {

const char* cmp_str(CmpOp op) {
  switch (op) {
    case CmpOp::kTruthy: return "";
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

// Binding strength, higher binds tighter. Used to minimize parentheses.
int precedence(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAlways:
    case ExprKind::kEventually:
      return 1;
    case ExprKind::kImplies:
      return 2;
    case ExprKind::kUntil:
    case ExprKind::kRelease:
    case ExprKind::kAbort:
      return 3;
    case ExprKind::kOr:
      return 4;
    case ExprKind::kAnd:
      return 5;
    case ExprKind::kNot:
      return 6;
    default:
      return 7;  // atoms, constants, next/next_e (self-delimiting)
  }
}

void print(const ExprPtr& e, int parent_prec, std::string& out) {
  const int prec = precedence(e->kind);
  const bool parens = prec < parent_prec;
  if (parens) out += "(";
  switch (e->kind) {
    case ExprKind::kConstTrue:
      out += "true";
      break;
    case ExprKind::kConstFalse:
      out += "false";
      break;
    case ExprKind::kAtom: {
      const Atom& a = e->atom;
      out += a.lhs;
      if (a.op != CmpOp::kTruthy) {
        out += " ";
        out += cmp_str(a.op);
        out += " ";
        out += a.rhs_is_signal ? a.rhs_signal : std::to_string(a.rhs_value);
      }
      break;
    }
    case ExprKind::kNot: {
      out += "!";
      // A comparison atom must be parenthesized under negation: "!x == 0"
      // would read as "(!x) == 0".
      const bool cmp_atom = e->lhs->kind == ExprKind::kAtom &&
                            e->lhs->atom.op != CmpOp::kTruthy;
      print(e->lhs, cmp_atom ? 100 : precedence(ExprKind::kNot) + 1, out);
      break;
    }
    case ExprKind::kAnd:
      print(e->lhs, prec, out);
      out += " && ";
      print(e->rhs, prec + 1, out);
      break;
    case ExprKind::kOr:
      print(e->lhs, prec, out);
      out += " || ";
      print(e->rhs, prec + 1, out);
      break;
    case ExprKind::kImplies:
      print(e->lhs, prec + 1, out);
      out += " -> ";
      print(e->rhs, prec, out);
      break;
    case ExprKind::kNext:
      out += "next";
      if (e->next_count != 1) {
        out += "[" + std::to_string(e->next_count) + "]";
      }
      out += "(";
      print(e->lhs, 0, out);
      out += ")";
      break;
    case ExprKind::kNextEps:
      out += "next_e[" + std::to_string(e->tau) + "," + std::to_string(e->eps) + "](";
      print(e->lhs, 0, out);
      out += ")";
      break;
    case ExprKind::kUntil:
      print(e->lhs, prec + 1, out);
      out += e->strong ? " until! " : " until ";
      print(e->rhs, prec + 1, out);
      break;
    case ExprKind::kRelease:
      print(e->lhs, prec + 1, out);
      out += " release ";
      print(e->rhs, prec + 1, out);
      break;
    case ExprKind::kAbort:
      print(e->lhs, prec + 1, out);
      out += e->strong ? " abort! " : " abort ";
      print(e->rhs, prec + 1, out);
      break;
    case ExprKind::kAlways:
      out += "always ";
      print(e->lhs, prec, out);
      break;
    case ExprKind::kEventually:
      out += "eventually! ";
      print(e->lhs, prec, out);
      break;
  }
  if (parens) out += ")";
}

}  // namespace

std::string to_string(const ExprPtr& e) {
  assert(e);
  std::string out;
  print(e, 0, out);
  return out;
}

std::string to_string(const ClockContext& c) {
  std::string base;
  switch (c.kind) {
    case ClockContext::Kind::kTrue: base = "true"; break;
    case ClockContext::Kind::kClk: base = "clk"; break;
    case ClockContext::Kind::kClkPos: base = "clk_pos"; break;
    case ClockContext::Kind::kClkNeg: base = "clk_neg"; break;
  }
  if (c.guard) base += " && " + to_string(c.guard);
  return base;
}

std::string to_string(const TransactionContext& c) {
  std::string base = "Tb";
  if (c.guard) base += " && " + to_string(c.guard);
  return base;
}

std::string to_string(const RtlProperty& p) {
  return to_string(p.formula) + " @" + to_string(p.context);
}

std::string to_string(const TlmProperty& p) {
  return to_string(p.formula) + " @" + to_string(p.context);
}

}  // namespace repro::psl
