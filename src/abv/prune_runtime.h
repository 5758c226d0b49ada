// The checked property set of one ABV environment, and the runtime side of
// the prune plan (analysis/prune.h). RtlAbvEnv and TlmAbvEnv both keep their
// properties in a CheckerSet, so registration under a prune plan, the
// report, the PRN003 cross-check (analysis=error) and the run verdict exist
// once for both.
//
// The verdict contract for pruned properties (DESIGN.md §14):
//   - an elided-true property reports zero failures (it can never fail);
//   - an elided-false property (aggressive mode) reports one derived
//     failure — it fails at every activation;
//   - a subsumed property inherits "ok" from its subsumer; when the
//     subsumer failed the row is reported as derived-inconclusive
//     (uncompleted = 1), never as a pass masking a failure — the overall
//     run verdict is already false through the subsumer.
#ifndef REPRO_ABV_PRUNE_RUNTIME_H_
#define REPRO_ABV_PRUNE_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "abv/report.h"
#include "analysis/diagnostic.h"
#include "analysis/prune.h"
#include "checker/checker.h"
#include "psl/ast.h"

namespace repro::abv {

class CheckerSet {
 public:
  // Applies a prune plan to properties added *after* this call: elided and
  // subsumed properties spawn no checker — their report rows carry derived
  // verdicts — and live properties with a specialized formula compile the
  // slimmed formula instead. With `cross_check` true every property still
  // runs and cross_check() audits the derived verdicts (PRN003). The plan
  // must outlive the set.
  void set_prune_plan(const analysis::PrunePlan* plan, bool cross_check) {
    plan_ = plan;
    audit_ = cross_check;
  }

  // Registers one property (arguments as for checker::PropertyChecker).
  // Returns the new checker, or nullptr when the prune plan pruned the
  // property.
  checker::PropertyChecker* add(const std::string& name, psl::ExprPtr formula,
                                psl::ExprPtr guard,
                                psl::TimeNs clock_period_ns,
                                const checker::CheckerOptions& options);

  // Live checkers, in registration order.
  const std::vector<std::unique_ptr<checker::PropertyChecker>>& checkers()
      const {
    return checkers_;
  }
  // Pruned properties (never spawned), in registration order.
  const std::vector<analysis::PruneDecision>& pruned() const {
    return pruned_;
  }

  // One row per live checker in registration order, then one derived row
  // per pruned property.
  Report report() const;

  // PRN003 error diagnostics for derived verdicts the audit run contradicts;
  // only ever non-empty under a cross-checked plan. Call after finish().
  std::vector<analysis::Diagnostic> cross_check() const;

  // Every live checker and every derived verdict holds.
  bool all_ok() const;

 private:
  // The live checker named `name`, or nullptr (derived rows are not
  // consulted).
  const checker::PropertyChecker* find(const std::string& name) const;
  // Verdict of the live checker named `name`; `found` reports whether one
  // exists.
  bool live_ok(const std::string& name, bool& found) const;

  const analysis::PrunePlan* plan_ = nullptr;
  bool audit_ = false;
  std::vector<std::unique_ptr<checker::PropertyChecker>> checkers_;
  std::vector<analysis::PruneDecision> pruned_;   // never spawned
  std::vector<analysis::PruneDecision> audited_;  // spawned for cross-check
};

}  // namespace repro::abv

#endif  // REPRO_ABV_PRUNE_RUNTIME_H_
