#include "abv/prune_runtime.h"

namespace repro::abv {

namespace {

// Builds the derived report row for a pruned (never spawned) property.
// `subsumer_found` / `subsumer_ok` describe the subsuming property's live
// verdict; both are ignored for elided rows.
PropertyReport derived_report_row(const analysis::PruneDecision& decision,
                                  bool subsumer_found, bool subsumer_ok) {
  PropertyReport row;
  row.name = decision.name;
  if (decision.action == analysis::PruneAction::kElide) {
    row.prune = "elide";
    row.derived_from = "static";
    // Elided-true: zero failures matches any run of a never-failing
    // checker. Elided-false: one derived failure stands for "fails at
    // every activation" (aggressive mode assumes at least one activation).
    if (!decision.static_verdict) row.failures = 1;
  } else {
    row.prune = "subsumed";
    row.derived_from = decision.subsumed_by;
    // Contrapositive of the subsumption proof: a subsumed failure implies a
    // subsumer failure. Subsumer ok => subsumed ok; subsumer failed => this
    // row is inconclusive (the run verdict is already false through the
    // subsumer, so no failure is ever masked).
    if (!subsumer_found || !subsumer_ok) row.uncompleted = 1;
  }
  return row;
}

// Compares one derived verdict against the checker that actually ran
// (cross-check mode) and appends a PRN003 error per mismatch.
void cross_check_decision(const analysis::PruneDecision& decision,
                          uint64_t activations, uint64_t failures,
                          bool subsumer_ok,
                          std::vector<analysis::Diagnostic>& out) {
  auto mismatch = [&](const std::string& message) {
    analysis::Diagnostic d;
    d.code = "PRN003";
    d.severity = analysis::Severity::kError;
    d.property = decision.name;
    d.check = "prune";
    d.message = message;
    out.push_back(std::move(d));
  };
  switch (decision.action) {
    case analysis::PruneAction::kElide:
      if (decision.static_verdict && failures > 0) {
        mismatch("derived verdict 'holds' contradicted by " +
                 std::to_string(failures) + " audit-run failure(s)");
      }
      if (!decision.static_verdict && activations > 0 && failures == 0) {
        mismatch("derived verdict 'fails' contradicted by an audit run with " +
                 std::to_string(activations) + " activation(s) and no failure");
      }
      break;
    case analysis::PruneAction::kSubsumed:
      if (failures > 0 && subsumer_ok) {
        mismatch("subsumed property failed in the audit run while subsumer '" +
                 decision.subsumed_by + "' held");
      }
      break;
    case analysis::PruneAction::kLive:
      break;
  }
}

}  // namespace

checker::PropertyChecker* CheckerSet::add(
    const std::string& name, psl::ExprPtr formula, psl::ExprPtr guard,
    psl::TimeNs clock_period_ns, const checker::CheckerOptions& options) {
  psl::ExprPtr fold;
  if (plan_ != nullptr) {
    if (const analysis::PruneDecision* d = plan_->find(name)) {
      if (d->action != analysis::PruneAction::kLive) {
        if (!audit_) {
          pruned_.push_back(*d);
          return nullptr;
        }
        audited_.push_back(*d);
      } else {
        if (d->specialized != nullptr) formula = d->specialized;
        fold = d->program_fold;
      }
    }
  }
  checkers_.push_back(std::make_unique<checker::PropertyChecker>(
      name, std::move(formula), std::move(guard), clock_period_ns, options));
  // Symbolic dead-node fold: swap in the slimmer program while the original
  // formula keeps driving cost accounting (verdict-stream parity-gated).
  if (fold != nullptr) checkers_.back()->set_program_formula(fold);
  return checkers_.back().get();
}

const checker::PropertyChecker* CheckerSet::find(
    const std::string& name) const {
  for (const auto& checker : checkers_) {
    if (checker->name() == name) return checker.get();
  }
  return nullptr;
}

bool CheckerSet::live_ok(const std::string& name, bool& found) const {
  const checker::PropertyChecker* checker = find(name);
  found = checker != nullptr;
  return checker == nullptr || checker->ok();
}

Report CheckerSet::report() const {
  Report report;
  for (const auto& checker : checkers_) report.add(*checker);
  for (const auto& d : pruned_) {
    bool found = false;
    bool subsumer_ok = true;
    if (d.action == analysis::PruneAction::kSubsumed) {
      subsumer_ok = live_ok(d.subsumed_by, found);
    }
    report.add_derived(derived_report_row(d, found, subsumer_ok));
  }
  return report;
}

std::vector<analysis::Diagnostic> CheckerSet::cross_check() const {
  std::vector<analysis::Diagnostic> out;
  for (const auto& d : audited_) {
    const checker::PropertyChecker* audited = find(d.name);
    if (audited == nullptr) continue;
    bool found = false;
    const bool subsumer_ok = d.action == analysis::PruneAction::kSubsumed
                                 ? live_ok(d.subsumed_by, found)
                                 : true;
    cross_check_decision(d, audited->stats().activations,
                         audited->stats().failures, subsumer_ok, out);
  }
  return out;
}

bool CheckerSet::all_ok() const {
  for (const auto& checker : checkers_) {
    if (!checker->ok()) return false;
  }
  // Derived verdicts: an elided-false property fails by construction; a
  // subsumed property follows its subsumer, which the loop above covered.
  for (const auto& d : pruned_) {
    if (d.action == analysis::PruneAction::kElide && !d.static_verdict) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::abv
