// RTL dynamic ABV environment.
//
// Binds event-counted PropertyCheckers (synthesized from RTL properties) to
// a clock and a set of design signals. At each clock edge selected by a
// property's clock context the environment samples the design — after its
// delta cycles have settled, so registered outputs written at the edge are
// visible — and feeds the evaluation event to the checker.
//
// Sampling follows the same arena discipline as the TLM engine: the signal
// bag is read ONCE per event into a reusable support::Snapshot (one getter
// call per signal, not one per signal per checker), and every checker
// selected at that edge reads that same row. With a single synchronous
// consumer the row is recycled in place — the degenerate one-reader case of
// support::BatchArena.
#ifndef REPRO_ABV_RTL_ENV_H_
#define REPRO_ABV_RTL_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "abv/prune_runtime.h"
#include "abv/report.h"
#include "psl/ast.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/signal.h"
#include "tlm/transaction.h"

namespace repro::support::tracelog {
class TraceWriter;
}  // namespace repro::support::tracelog

namespace repro::abv {

// Named read access to the design under verification. RTL models register
// their observable signals here; the environment samples them into
// per-event snapshots.
class SignalBag {
 public:
  // Registers (or re-points) `name`; the signal must outlive the bag.
  void add(const std::string& name, const sim::Signal<uint64_t>& signal) {
    entry(name) = {name, &signal, nullptr};
  }
  void add(const std::string& name, const sim::Signal<bool>& signal) {
    entry(name) = {name, nullptr, &signal};
  }

  // Shared key table over the registered names (name order, so the index
  // layout is deterministic); built lazily, invalidated by add(). Feed it
  // to support::Snapshot so all snapshots of this bag share one allocation.
  std::shared_ptr<const support::Snapshot::Keys> keys() const;

  // Reads every signal once into `snapshot`, which must have been built
  // over this bag's keys().
  void sample_into(support::Snapshot& snapshot) const {
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      snapshot.set_at(i, e.word != nullptr ? e.word->read()
                                           : uint64_t{e.bit->read()});
    }
  }

 private:
  // Exactly one of `word` / `bit` is set.
  struct Entry {
    std::string name;
    const sim::Signal<uint64_t>* word;
    const sim::Signal<bool>* bit;
  };
  // The entry for `name`, inserted in name order when new.
  Entry& entry(const std::string& name);

  std::vector<Entry> entries_;  // sorted by name
  mutable std::shared_ptr<const support::Snapshot::Keys> keys_cache_;
};

class RtlAbvEnv {
 public:
  RtlAbvEnv(sim::Kernel& kernel, SignalBag& signals)
      : kernel_(kernel), signals_(signals) {}

  // Checker backend and failure-log cap applied to properties registered
  // *after* this call; call before add_property.
  void set_checker_options(checker::CheckerOptions options) {
    checker_options_ = options;
  }
  const checker::CheckerOptions& checker_options() const {
    return checker_options_;
  }

  // Applies a prune plan to properties registered *after* this call (see
  // CheckerSet::set_prune_plan).
  void set_prune_plan(const analysis::PrunePlan* plan,
                      bool cross_check = false) {
    set_.set_prune_plan(plan, cross_check);
  }

  // PRN003 error diagnostics for derived verdicts the audit run contradicts;
  // call after finish().
  std::vector<analysis::Diagnostic> prune_cross_check() const {
    return set_.cross_check();
  }

  // Synthesizes a checker for `property` and registers it. Properties with
  // kClkPos (or the basic) context are evaluated at rising edges, kClkNeg at
  // falling edges, kClk at both.
  void add_property(const psl::RtlProperty& property);

  // Attaches the environment to the DUV clock. Must be called after all
  // add_property calls and before the simulation runs.
  void attach(sim::Clock& clock);

  // One settled clock-edge evaluation point: logs it to the record writer,
  // if any, and dispatches `values` to every checker selected at that edge
  // kind. attach()'s sampling callbacks land here; offline replay calls it
  // with recorded snapshots, no clock or live design needed.
  void on_sample(psl::TimeNs now, bool rising,
                 const support::Snapshot& values);

  // on_sample for each replayed edge record (layout: set_record_writer).
  void on_records(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end);

  // Trace-log writer serializing the evaluated edge stream (--record-out)
  // as one record per evaluation point: start = end = edge time, address 0
  // for rising / 1 for falling, observables = the settled snapshot. Must
  // outlive the environment; nullptr disables.
  void set_record_writer(support::tracelog::TraceWriter* writer) {
    record_writer_ = writer;
  }

  // End of simulation: resolve outstanding obligations.
  void finish();

  Report report() const { return set_.report(); }
  bool all_ok() const { return set_.all_ok(); }
  const std::vector<std::unique_ptr<checker::PropertyChecker>>& checkers()
      const {
    return set_.checkers();
  }

 private:
  void sample(bool rising);

  sim::Kernel& kernel_;
  SignalBag& signals_;
  support::tracelog::TraceWriter* record_writer_ = nullptr;
  checker::CheckerOptions checker_options_;
  CheckerSet set_;
  std::vector<psl::ClockContext::Kind> kinds_;  // per entry of checkers()
  // Reusable per-event snapshot buffer, built over signals_.keys() at
  // attach(); refilled (recycled) at every sampled edge.
  support::Snapshot sample_buffer_;
  bool any_pos_ = false;
  bool any_neg_ = false;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_RTL_ENV_H_
