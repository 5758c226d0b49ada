// TLM dynamic ABV environment.
//
// Consumes the completed-transaction stream of a tlm::RecordSource (live
// simulation or trace-log replay), span by span through on_records, and
// drives one checker::PropertyChecker per property at the end of each
// transaction (the basic transaction context Tb). A property is either
//   - abstracted with Methodology III.1 (the intended use, Sec. IV), or
//   - an unabstracted RTL property replayed at TLM-CA (the paper's TLM-CA
//     rows of Table I), checked event-counted: every per-cycle transaction
//     stands for a clock edge.
// Both kinds share one list, in registration (= report) order, held in an
// abv::CheckerSet together with the prune plan's derived rows.
#ifndef REPRO_ABV_TLM_ENV_H_
#define REPRO_ABV_TLM_ENV_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "abv/engine_config.h"
#include "abv/eval_engine.h"
#include "abv/prune_runtime.h"
#include "abv/report.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "support/trace_sink.h"
#include "tlm/transaction.h"

namespace repro::abv {

class TlmAbvEnv {
 public:
  // `clock_period_ns` is the reference RTL clock period, used to size the
  // instance pools of abstracted properties (Sec. IV point 1).
  explicit TlmAbvEnv(psl::TimeNs clock_period_ns = 10)
      : clock_period_ns_(clock_period_ns) {}

  // Replaces the engine knob group (jobs, batch size, in-flight bound;
  // zeros are clamped to 1); must be called before bind(). The struct is
  // handed to the EvalEngine verbatim. The default is the exact serial
  // walk (jobs 1); jobs N > 1 shards the registered properties across N
  // concurrent workers with identical per-property results (see
  // EvalEngine).
  void set_engine_config(const EngineConfig& config) {
    engine_config_ = config;
    if (engine_config_.jobs == 0) engine_config_.jobs = 1;
    if (engine_config_.batch_size == 0) engine_config_.batch_size = 1;
    if (engine_config_.max_inflight_batches == 0) {
      engine_config_.max_inflight_batches = 1;
    }
  }
  const EngineConfig& engine_config() const { return engine_config_; }

  // Failure-witness ring depth applied to every abstracted property's
  // checker at bind() (0 disables witness capture; event-counted checkers
  // capture none).
  void set_witness_depth(size_t depth) { witness_depth_ = depth; }
  size_t witness_depth() const { return witness_depth_; }

  // Checker backend and failure-log cap applied to checkers registered
  // *after* this call; call before add_property.
  void set_checker_options(checker::CheckerOptions options) {
    checker_options_ = options;
  }
  const checker::CheckerOptions& checker_options() const {
    return checker_options_;
  }

  // Chrome-trace sink for engine spans and failure instants; must outlive
  // the environment. nullptr (default) disables tracing.
  void set_trace_sink(support::TraceSink* sink) { trace_ = sink; }

  // JSONL metrics/coverage snapshot stream (--metrics-out): one compact line
  // every `interval_records` records plus an exact final line at finish().
  // Must outlive the environment; nullptr (default) disables streaming.
  // Call before bind().
  void set_metrics_output(std::ostream* os, size_t interval_records) {
    metrics_out_ = os;
    metrics_interval_ = interval_records;
  }

  // Live per-property coverage table: bind() wires one row per registered
  // property into its checker, so the table tracks the run as it
  // happens (exact after finish()).
  const support::CoverageTable& coverage() const { return coverage_; }

  // Applies a prune plan to properties registered *after* this call (see
  // CheckerSet::set_prune_plan); bind() annotates the pruned properties in
  // the coverage table. The plan must outlive the environment.
  void set_prune_plan(const analysis::PrunePlan* plan,
                      bool cross_check = false) {
    set_.set_prune_plan(plan, cross_check);
  }

  // PRN003 error diagnostics for derived verdicts the audit run contradicts;
  // only ever non-empty when set_prune_plan(..., /*cross_check=*/true) was
  // used. Call after finish().
  std::vector<analysis::Diagnostic> prune_cross_check() const {
    return set_.cross_check();
  }

  // Registers an abstracted TLM property.
  void add_property(const psl::TlmProperty& property);

  // Registers an unabstracted RTL property evaluated event-counted on the
  // transaction stream (per-cycle transactions at TLM-CA); the clock
  // context guard, if any, carries over.
  void add_rtl_property(const psl::RtlProperty& property);

  // Builds the evaluation engine over the registered properties; records
  // then arrive through on_records (the RecordSource drain loop). Call
  // after all add_* and config calls.
  void bind();

  // Feeds one span of completed transactions to the engine; requires
  // bind() first.
  void on_records(const tlm::TransactionRecord* begin,
                  const tlm::TransactionRecord* end);

  // Trace-log writer serializing the ingested stream (--record-out); must
  // outlive the environment. Call before bind(). nullptr disables.
  void set_record_writer(support::tracelog::TraceWriter* writer) {
    record_writer_ = writer;
  }

  void finish();

  Report report() const { return set_.report(); }
  bool all_ok() const { return set_.all_ok(); }

  // Metrics registry backing the evaluation engine; created by bind()
  // (nullptr before). Callers may add their own gauges (lane 0) before
  // taking a snapshot.
  support::MetricsRegistry* metrics() { return metrics_.get(); }
  // Deterministic merged view; empty when never bound.
  support::MetricsSnapshot metrics_snapshot() const;

  const std::vector<std::unique_ptr<checker::PropertyChecker>>& checkers()
      const {
    return set_.checkers();
  }

 private:
  psl::TimeNs clock_period_ns_;
  EngineConfig engine_config_;
  size_t witness_depth_ = 8;
  checker::CheckerOptions checker_options_;
  support::TraceSink* trace_ = nullptr;
  support::tracelog::TraceWriter* record_writer_ = nullptr;
  std::ostream* metrics_out_ = nullptr;
  size_t metrics_interval_ = 0;
  support::CoverageTable coverage_;
  CheckerSet set_;
  std::unique_ptr<support::MetricsRegistry> metrics_;  // built by bind()
  std::unique_ptr<EvalEngine> engine_;                 // built by bind()
};

}  // namespace repro::abv

#endif  // REPRO_ABV_TLM_ENV_H_
