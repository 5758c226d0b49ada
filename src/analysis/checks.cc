#include "analysis/checks.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "psl/simple_subset.h"

namespace repro::analysis {

namespace {

using psl::ExprId;
using psl::ExprKind;
using psl::ExprTable;

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

void emit(CheckContext& ctx, std::string code, Severity severity,
          std::string check, std::string message, std::string hint = {}) {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = severity;
  d.property = ctx.property.name;
  d.check = std::move(check);
  d.message = std::move(message);
  d.hint = std::move(hint);
  d.span = ctx.span;
  ctx.record.diagnostics.push_back(std::move(d));
}

}  // namespace

const char* to_string(AuditStatus s) {
  switch (s) {
    case AuditStatus::kConfirmed: return "confirmed";
    case AuditStatus::kMismatch: return "mismatch";
    case AuditStatus::kSkipped: return "skipped";
  }
  return "?";
}

bool PropertyAnalysis::ok() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return false;
  }
  return true;
}

// ---- Simple subset (PSL001..PSL005) -----------------------------------------

void check_simple_subset(CheckContext& ctx) {
  for (const psl::SubsetViolation& v :
       psl::check_simple_subset(ctx.property.formula)) {
    const char* code = "PSL001";
    const char* hint = "";
    switch (v.rule) {
      case psl::SubsetRule::kNegationNonBoolean:
        code = "PSL001";
        hint = "push the negation inward (NNF) or negate a boolean instead";
        break;
      case psl::SubsetRule::kImplicationLhsNonBoolean:
        code = "PSL002";
        hint = "only boolean antecedents keep time moving left to right";
        break;
      case psl::SubsetRule::kOrBothNonBoolean:
        code = "PSL003";
        hint = "rewrite so that at most one '||' operand is temporal";
        break;
      case psl::SubsetRule::kUntilOperandNonBoolean:
        code = "PSL004";
        hint = "use boolean operands (or next chains over booleans) in "
               "until/release";
        break;
      case psl::SubsetRule::kAbortConditionNonBoolean:
        code = "PSL005";
        hint = "abort conditions must be boolean";
        break;
    }
    emit(ctx, code, Severity::kError, "simple-subset",
         std::string(psl::describe(v.rule)) + ": " + v.subformula, hint);
  }
}

// ---- Boolean-layer semantics (SEM001..SEM005) --------------------------------

namespace {

bool is_literal_or_const(const ExprTable& t, ExprId id) {
  const ExprTable::Node& n = t.node(id);
  if (n.kind == ExprKind::kConstTrue || n.kind == ExprKind::kConstFalse ||
      n.kind == ExprKind::kAtom) {
    return true;
  }
  return n.kind == ExprKind::kNot && t.node(n.lhs).kind == ExprKind::kAtom;
}

struct SemScan {
  CheckContext& ctx;
  const ExprTable& t;
  std::unordered_set<ExprId> reported;  // vacuity already reported here
  std::unordered_set<ExprId> visited;
  bool capped = false;

  void note_answer(BoolAnalyzer::Answer a) {
    if (a == BoolAnalyzer::Answer::kCapped) capped = true;
  }

  // Pass A: static vacuity of implications and guarded-command ors.
  void vacuity(ExprId id) {
    if (id == psl::kNoExpr || !visited.insert(id).second) return;
    const ExprTable::Node& n = t.node(id);
    if (n.kind == ExprKind::kImplies) {
      if (t.facts(n.lhs).is_boolean) {
        const auto a = ctx.booleans.contradiction(n.lhs);
        note_answer(a);
        if (a == BoolAnalyzer::Answer::kYes && reported.insert(n.lhs).second) {
          emit(ctx, "SEM003", Severity::kWarning, "bool-semantics",
               "implication antecedent is statically false: " +
                   t.to_string(n.lhs),
               "the property is vacuously true; every activation resolves "
               "trivially");
        }
      }
      if (t.facts(n.rhs).is_boolean) {
        const auto a = ctx.booleans.tautology(n.rhs);
        note_answer(a);
        if (a == BoolAnalyzer::Answer::kYes && reported.insert(n.rhs).second) {
          emit(ctx, "SEM004", Severity::kWarning, "bool-semantics",
               "implication consequent is statically true: " +
                   t.to_string(n.rhs),
               "the property is vacuously true; it constrains nothing");
        }
      }
    }
    // The guarded-command idiom `!a || temporal`: a statically-true boolean
    // operand short-circuits the whole disjunction. Pure-boolean ors are
    // left to the maximal-subformula scan (pass B) to avoid double reports.
    if (n.kind == ExprKind::kOr) {
      const bool lb = t.facts(n.lhs).is_boolean;
      const bool rb = t.facts(n.rhs).is_boolean;
      if (lb != rb) {
        const ExprId guard = lb ? n.lhs : n.rhs;
        const auto a = ctx.booleans.tautology(guard);
        note_answer(a);
        if (a == BoolAnalyzer::Answer::kYes && reported.insert(guard).second) {
          emit(ctx, "SEM004", Severity::kWarning, "bool-semantics",
               "'||' operand is statically true: " + t.to_string(guard),
               "the property is vacuously satisfied at every evaluation "
               "point");
        }
      }
    }
    vacuity(n.lhs);
    vacuity(n.rhs);
  }

  // Pass B: tautology/contradiction of maximal boolean subformulas.
  void maximal(ExprId id) {
    if (id == psl::kNoExpr) return;
    if (t.facts(id).is_boolean) {
      if (is_literal_or_const(t, id) || reported.count(id) != 0) return;
      const auto taut = ctx.booleans.tautology(id);
      note_answer(taut);
      if (taut == BoolAnalyzer::Answer::kYes) {
        emit(ctx, "SEM001", Severity::kWarning, "bool-semantics",
             "boolean subformula is a tautology: " + t.to_string(id),
             "simplify it to 'true'");
        return;
      }
      const auto contra = ctx.booleans.contradiction(id);
      note_answer(contra);
      if (contra == BoolAnalyzer::Answer::kYes) {
        emit(ctx, "SEM002", Severity::kWarning, "bool-semantics",
             "boolean subformula is contradictory: " + t.to_string(id),
             "simplify it to 'false'");
      }
      return;  // subformulas of a boolean formula are not maximal
    }
    const ExprTable::Node& n = t.node(id);
    maximal(n.lhs);
    maximal(n.rhs);
  }
};

}  // namespace

void check_bool_semantics(CheckContext& ctx) {
  ExprTable& t = ctx.pm.table();
  const ExprId original = t.intern(ctx.property.formula);
  SemScan scan{ctx, t, {}, {}};
  scan.vacuity(original);
  scan.maximal(original);
  if (scan.capped) {
    emit(ctx, "SEM005", Severity::kNote, "bool-semantics",
         "boolean-layer analysis skipped: formula exceeds the " +
             std::to_string(ctx.booleans.atom_cap()) + "-atom analysis cap",
         "split the property or raise the cap to analyze it");
  }
}

// ---- Consequence audit (AUD001..AUD004, Thm. III.2) -------------------------

namespace {

struct Prover {
  const ExprTable& t;
  BoolAnalyzer& ba;
  std::map<std::pair<ExprId, ExprId>, Entailment> memo;

  Entailment prove(ExprId p, ExprId q) {
    if (p == q) return Entailment::kProved;
    const auto key = std::make_pair(p, q);
    if (auto it = memo.find(key); it != memo.end()) return it->second;
    const Entailment out = prove_uncached(p, q);
    memo.emplace(key, out);
    return out;
  }

  // Combines rule outcomes: proved wins; otherwise a cap anywhere demotes
  // unknown to capped so the caller can report the skip.
  struct Acc {
    bool capped = false;
    bool update(Entailment e) {  // returns true when proved
      if (e == Entailment::kCapped) capped = true;
      return e == Entailment::kProved;
    }
    Entailment result() const {
      return capped ? Entailment::kCapped : Entailment::kUnknown;
    }
  };

  Entailment both(ExprId p1, ExprId q1, ExprId p2, ExprId q2) {
    const Entailment a = prove(p1, q1);
    if (a == Entailment::kUnknown) return Entailment::kUnknown;
    const Entailment b = prove(p2, q2);
    if (b == Entailment::kProved && a == Entailment::kProved) {
      return Entailment::kProved;
    }
    if (a == Entailment::kCapped || b == Entailment::kCapped) {
      return Entailment::kCapped;
    }
    return Entailment::kUnknown;
  }

  Entailment prove_uncached(ExprId p, ExprId q) {
    const ExprTable::Node& np = t.node(p);
    const ExprTable::Node& nq = t.node(q);
    // Terminal rules.
    if (nq.kind == ExprKind::kConstTrue) return Entailment::kProved;
    if (np.kind == ExprKind::kConstFalse) return Entailment::kProved;
    // Propositional discharge when both sides are boolean.
    if (t.facts(p).is_boolean && t.facts(q).is_boolean) {
      switch (ba.implies(p, q)) {
        case BoolAnalyzer::Answer::kYes: return Entailment::kProved;
        case BoolAnalyzer::Answer::kNo: return Entailment::kUnknown;
        case BoolAnalyzer::Answer::kCapped: return Entailment::kCapped;
      }
    }
    Acc acc;
    // Structural monotonicity: matching operators with entailed operands.
    if (np.kind == nq.kind) {
      switch (np.kind) {
        case ExprKind::kAlways:
        case ExprKind::kEventually:
          if (acc.update(prove(np.lhs, nq.lhs))) return Entailment::kProved;
          break;
        case ExprKind::kNext:
          if (np.next_count == nq.next_count &&
              acc.update(prove(np.lhs, nq.lhs))) {
            return Entailment::kProved;
          }
          break;
        case ExprKind::kNextEps:
          if (np.eps == nq.eps && acc.update(prove(np.lhs, nq.lhs))) {
            return Entailment::kProved;
          }
          break;
        case ExprKind::kUntil:
          // strong |= weak of entailed operands; weak never entails strong.
          if ((np.strong || !nq.strong) &&
              both(np.lhs, nq.lhs, np.rhs, nq.rhs) == Entailment::kProved) {
            return Entailment::kProved;
          }
          break;
        case ExprKind::kRelease:
          if (both(np.lhs, nq.lhs, np.rhs, nq.rhs) == Entailment::kProved) {
            return Entailment::kProved;
          }
          break;
        case ExprKind::kAbort:
          if (np.rhs == nq.rhs && np.strong == nq.strong &&
              acc.update(prove(np.lhs, nq.lhs))) {
            return Entailment::kProved;
          }
          break;
        default:
          break;
      }
    }
    // Conjunction elimination / disjunction introduction (the Fig. 4
    // &&-deletion shape).
    if (np.kind == ExprKind::kAnd) {
      if (acc.update(prove(np.lhs, q))) return Entailment::kProved;
      if (acc.update(prove(np.rhs, q))) return Entailment::kProved;
    }
    if (nq.kind == ExprKind::kOr) {
      if (acc.update(prove(p, nq.lhs))) return Entailment::kProved;
      if (acc.update(prove(p, nq.rhs))) return Entailment::kProved;
    }
    // Case split / conjunction introduction.
    if (np.kind == ExprKind::kOr &&
        both(np.lhs, q, np.rhs, q) == Entailment::kProved) {
      return Entailment::kProved;
    }
    if (nq.kind == ExprKind::kAnd &&
        both(p, nq.lhs, p, nq.rhs) == Entailment::kProved) {
      return Entailment::kProved;
    }
    // always p |= p (now); a release b |= b (now); a until! b |= eventually b.
    if (np.kind == ExprKind::kAlways && acc.update(prove(np.lhs, q))) {
      return Entailment::kProved;
    }
    if (np.kind == ExprKind::kRelease && acc.update(prove(np.rhs, q))) {
      return Entailment::kProved;
    }
    if (nq.kind == ExprKind::kEventually && acc.update(prove(p, nq.lhs))) {
      return Entailment::kProved;
    }
    if (np.kind == ExprKind::kUntil && np.strong &&
        nq.kind == ExprKind::kEventually &&
        acc.update(prove(np.rhs, nq.lhs))) {
      return Entailment::kProved;
    }
    return acc.result();
  }
};

}  // namespace

Entailment prove_consequence(const ExprTable& table, ExprId p, ExprId q,
                             BoolAnalyzer& booleans) {
  Prover prover{table, booleans, {}};
  return prover.prove(p, q);
}

void check_consequence(CheckContext& ctx) {
  using rewrite::AbstractionClass;
  ExprTable& t = ctx.pm.table();
  const AbstractionClass cls = ctx.outcome.classification;
  const char* cls_name = rewrite::to_string(cls);

  if (cls == AbstractionClass::kDeleted || ctx.outcome.deleted()) {
    ctx.record.audit = AuditStatus::kConfirmed;
    emit(ctx, "AUD001", Severity::kNote, "consequence-audit",
         "property deleted by signal abstraction (vacuous at TLM); nothing "
         "to audit");
    return;
  }

  // Audit between the NNF'd original and the signal-abstraction output —
  // the exact pair Thm. III.2 relates. Both calls are memoized in the pass
  // manager, so this reruns no rewrite.
  const ExprId original = ctx.pm.nnf(t.intern(ctx.property.formula));
  const ExprId abstracted = ctx.pm.signal_abstraction(original).formula;
  const Entailment res =
      prove_consequence(t, original, abstracted, ctx.booleans);

  if (res == Entailment::kCapped) {
    ctx.record.audit = AuditStatus::kSkipped;
    emit(ctx, "AUD004", Severity::kNote, "consequence-audit",
         std::string("consequence audit skipped: formula exceeds the ") +
             std::to_string(ctx.booleans.atom_cap()) + "-atom analysis cap " +
             "(syntactic classification '" + cls_name + "' stands unchecked)");
    return;
  }

  const bool claims_consequence = cls == AbstractionClass::kUnchanged ||
                                  cls == AbstractionClass::kConsequence;
  if (claims_consequence) {
    if (res == Entailment::kProved) {
      ctx.record.audit = AuditStatus::kConfirmed;
      emit(ctx, "AUD001", Severity::kNote, "consequence-audit",
           std::string("abstracted formula is a logical consequence of the "
                       "original (Thm. III.2); classification '") +
               cls_name + "' confirmed");
    } else {
      ctx.record.audit = AuditStatus::kMismatch;
      emit(ctx, "AUD002", Severity::kWarning, "consequence-audit",
           std::string("classified '") + cls_name +
               "' but the audit could not establish that the abstracted "
               "formula follows from the original",
           "treat TLM failures of this property as needs-review");
    }
    return;
  }

  // kNeedsReview: the audit may still prove consequence (the syntactic
  // classification is conservative), which downgrades the review burden.
  if (res == Entailment::kProved) {
    ctx.record.audit = AuditStatus::kConfirmed;
    emit(ctx, "AUD003", Severity::kNote, "consequence-audit",
         "audit proved the abstracted formula is a logical consequence of "
         "the original although it is classified 'needs-review'",
         "the syntactic classification is conservative; TLM results for "
         "this property can be trusted as at RTL");
  } else {
    ctx.record.audit = AuditStatus::kConfirmed;
    emit(ctx, "AUD001", Severity::kNote, "consequence-audit",
         "audit agrees: the abstracted formula is not provably a "
         "consequence of the original; 'needs-review' stands");
  }
}

// ---- Environment binding (ENV001..ENV002) ------------------------------------

namespace {

void bind_names(CheckContext& ctx, const std::vector<std::string>& referenced,
                const std::vector<std::string>& available, const char* what,
                const char* env_name, const char* code) {
  if (available.empty()) return;
  const std::set<std::string> have(available.begin(), available.end());
  for (const std::string& name : referenced) {
    if (have.count(name) != 0) continue;
    emit(ctx, code, Severity::kError, "env-binding",
         std::string(what) + " references observable '" + name +
             "' which the " + env_name + " environment does not expose",
         "available observables: " + join(available));
  }
}

}  // namespace

void check_env_binding(CheckContext& ctx) {
  ExprTable& t = ctx.pm.table();
  // RTL side: the original formula and its clock-context guard evaluate
  // against the RTL environment's signal bag.
  if (!ctx.options.rtl_observables.empty()) {
    const ExprId original = t.intern(ctx.property.formula);
    bind_names(ctx, t.signals(original), ctx.options.rtl_observables, "atom",
               "RTL", "ENV001");
    if (ctx.property.context.guard) {
      const ExprId guard = t.intern(ctx.property.context.guard);
      bind_names(ctx, t.signals(guard), ctx.options.rtl_observables,
                 "clock-context guard", "RTL", "ENV002");
    }
  }
  // TLM side: the abstracted formula and the mapped transaction-context
  // guard evaluate against the TLM environment's transaction snapshots —
  // this turns the runtime Snapshot::value fail-fast into a pre-simulation
  // diagnostic.
  if (!ctx.options.tlm_observables.empty() && !ctx.outcome.deleted()) {
    const ExprId tlm = t.intern(ctx.outcome.property->formula);
    bind_names(ctx, t.signals(tlm), ctx.options.tlm_observables, "atom",
               "TLM", "ENV001");
    if (ctx.outcome.property->context.guard) {
      const ExprId guard = t.intern(ctx.outcome.property->context.guard);
      bind_names(ctx, t.signals(guard), ctx.options.tlm_observables,
                 "transaction-context guard", "TLM", "ENV002");
    }
  }
}

// ---- Checker sizing (SIZ001..SIZ003) -----------------------------------------

namespace {

void collect_windows(const ExprTable& t, ExprId id,
                     std::vector<psl::TimeNs>& out,
                     std::unordered_set<ExprId>& visited) {
  if (id == psl::kNoExpr || !visited.insert(id).second) return;
  const ExprTable::Node& n = t.node(id);
  if (n.kind == ExprKind::kNextEps) out.push_back(n.eps);
  collect_windows(t, n.lhs, out, visited);
  collect_windows(t, n.rhs, out, visited);
}

}  // namespace

void check_sizing(CheckContext& ctx) {
  if (ctx.outcome.deleted()) return;
  ExprTable& t = ctx.pm.table();
  const psl::TimeNs period = ctx.options.abstraction.clock_period_ns;
  const ExprId tlm = t.intern(ctx.outcome.property->formula);

  std::unordered_set<ExprId> visited;
  std::vector<psl::TimeNs> windows;
  collect_windows(t, tlm, windows, visited);
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  ctx.record.windows_ns = windows;
  ctx.record.lifetime =
      checker::compute_lifetime(ctx.outcome.property->formula, period);

  for (const psl::TimeNs eps : windows) {
    if (period != 0 && eps % period != 0) {
      emit(ctx, "SIZ001", Severity::kWarning, "checker-sizing",
           "next_e window " + std::to_string(eps) +
               " ns is not a multiple of the " + std::to_string(period) +
               " ns clock period",
           "the wrapper rounds the instance lifetime up to " +
               std::to_string((eps + period - 1) / period) +
               " instants; align the window with the clock period");
    }
  }

  const checker::LifetimeInfo& life = ctx.record.lifetime;
  if (!life.bounded) {
    emit(ctx, "SIZ002", Severity::kNote, "checker-sizing",
         "wrapper lifetime is unbounded (until/release/eventually "
         "obligations); the instance pool grows on demand and never exceeds "
         "the number of instances live at once");
  } else if (life.max_eps > 0) {
    std::string window_list;
    for (const psl::TimeNs eps : windows) {
      if (!window_list.empty()) window_list += ", ";
      window_list += std::to_string(eps);
    }
    emit(ctx, "SIZ003", Severity::kNote, "checker-sizing",
         "predicted wrapper sizing: lifetime " +
             std::to_string(life.instants) +
             " instants, instance-pool capacity " +
             std::to_string(life.instants) + " (windows: " + window_list +
             " ns)");
  }
}

}  // namespace repro::analysis
