#include "checker/reference_eval.h"

#include <cassert>

namespace repro::checker {
namespace {

using psl::ExprKind;
using psl::ExprPtr;

Verdict not3(Verdict v) {
  switch (v) {
    case Verdict::kTrue: return Verdict::kFalse;
    case Verdict::kFalse: return Verdict::kTrue;
    case Verdict::kPending: return Verdict::kPending;
  }
  return Verdict::kPending;
}

Verdict and3(Verdict a, Verdict b) {
  if (a == Verdict::kFalse || b == Verdict::kFalse) return Verdict::kFalse;
  if (a == Verdict::kPending || b == Verdict::kPending) return Verdict::kPending;
  return Verdict::kTrue;
}

Verdict or3(Verdict a, Verdict b) {
  if (a == Verdict::kTrue || b == Verdict::kTrue) return Verdict::kTrue;
  if (a == Verdict::kPending || b == Verdict::kPending) return Verdict::kPending;
  return Verdict::kFalse;
}

Verdict boundary(bool complete, bool weak) {
  if (!complete) return Verdict::kPending;
  return weak ? Verdict::kTrue : Verdict::kFalse;
}

Verdict eval(const ExprPtr& e, const Trace& trace, size_t i, bool complete) {
  assert(i < trace.size());
  switch (e->kind) {
    case ExprKind::kConstTrue:
      return Verdict::kTrue;
    case ExprKind::kConstFalse:
      return Verdict::kFalse;
    case ExprKind::kAtom:
      return eval_atom(e->atom, trace[i].values) ? Verdict::kTrue : Verdict::kFalse;
    case ExprKind::kNot:
      return not3(eval(e->lhs, trace, i, complete));
    case ExprKind::kAnd:
      return and3(eval(e->lhs, trace, i, complete),
                  eval(e->rhs, trace, i, complete));
    case ExprKind::kOr:
      return or3(eval(e->lhs, trace, i, complete),
                 eval(e->rhs, trace, i, complete));
    case ExprKind::kImplies:
      return or3(not3(eval(e->lhs, trace, i, complete)),
                 eval(e->rhs, trace, i, complete));
    case ExprKind::kNext: {
      const size_t target = i + e->next_count;
      if (target >= trace.size()) return boundary(complete, /*weak=*/true);
      return eval(e->lhs, trace, target, complete);
    }
    case ExprKind::kNextEps: {
      const psl::TimeNs target_time = trace[i].time + e->eps;
      for (size_t j = i + 1; j < trace.size(); ++j) {
        if (trace[j].time == target_time) return eval(e->lhs, trace, j, complete);
        if (trace[j].time > target_time) return Verdict::kFalse;
      }
      return boundary(complete, /*weak=*/true);
    }
    case ExprKind::kUntil: {
      // Three-valued fixpoint expansion, evaluated back-to-front:
      //   U(k) = q(k) || (p(k) && U(k+1)),  U(len) = boundary(strength).
      Verdict rest = boundary(complete, /*weak=*/!e->strong);
      for (size_t k = trace.size(); k-- > i;) {
        rest = or3(eval(e->rhs, trace, k, complete),
                   and3(eval(e->lhs, trace, k, complete), rest));
      }
      return rest;
    }
    case ExprKind::kRelease: {
      //   R(k) = q(k) && (p(k) || R(k+1)),  R(len) = boundary(weak).
      Verdict rest = boundary(complete, /*weak=*/true);
      for (size_t k = trace.size(); k-- > i;) {
        rest = and3(eval(e->rhs, trace, k, complete),
                    or3(eval(e->lhs, trace, k, complete), rest));
      }
      return rest;
    }
    case ExprKind::kAlways: {
      Verdict acc = Verdict::kTrue;
      for (size_t k = i; k < trace.size(); ++k) {
        acc = and3(acc, eval(e->lhs, trace, k, complete));
        if (acc == Verdict::kFalse) return Verdict::kFalse;
      }
      return and3(acc, boundary(complete, /*weak=*/true));
    }
    case ExprKind::kEventually: {
      Verdict acc = Verdict::kFalse;
      for (size_t k = i; k < trace.size(); ++k) {
        acc = or3(acc, eval(e->lhs, trace, k, complete));
        if (acc == Verdict::kTrue) return Verdict::kTrue;
      }
      return or3(acc, boundary(complete, /*weak=*/false));
    }
    case ExprKind::kAbort: {
      // p abort b: p runs until the first position where b holds; a pending
      // obligation is then discharged to true (abort) or false (abort!).
      size_t reset = trace.size();
      bool has_reset = false;
      for (size_t k = i; k < trace.size(); ++k) {
        if (eval_boolean(e->rhs, trace[k].values)) {
          reset = k;
          has_reset = true;
          break;
        }
      }
      const Verdict on_reset = e->strong ? Verdict::kFalse : Verdict::kTrue;
      const Trace prefix(trace.begin(), trace.begin() + reset);
      if (static_cast<size_t>(i) >= prefix.size()) {
        // Aborted at (or before) the anchor itself.
        return on_reset;
      }
      const Verdict v = eval(e->lhs, prefix, i, /*complete=*/false);
      if (v != Verdict::kPending) return v;
      // Still pending at the reset point: discharged; still pending at the
      // (unaborted) end of trace: defer to the usual boundary handling.
      if (has_reset) return on_reset;
      return complete ? eval(e->lhs, trace, i, /*complete=*/true)
                      : Verdict::kPending;
    }
  }
  assert(false && "unreachable");
  return Verdict::kPending;
}

}  // namespace

Verdict reference_eval(const ExprPtr& e, const Trace& trace, size_t position,
                       bool complete) {
  assert(e);
  return eval(e, trace, position, complete);
}

Verdict reference_eval_always(const ExprPtr& e, const Trace& trace, bool complete) {
  Verdict acc = Verdict::kTrue;
  for (size_t i = 0; i < trace.size(); ++i) {
    acc = and3(acc, eval(e, trace, i, complete));
    if (acc == Verdict::kFalse) return Verdict::kFalse;
  }
  return acc;
}

}  // namespace repro::checker
