#include "abv/tlm_env.h"

namespace repro::abv {

void TlmAbvEnv::add_property(const psl::TlmProperty& property) {
  set_.add(property.name, property.formula, property.context.guard,
           clock_period_ns_, checker_options_);
}

void TlmAbvEnv::add_rtl_property(const psl::RtlProperty& property) {
  set_.add(property.name, property.formula, property.context.guard,
           checker::kEventCounted, checker_options_);
}

void TlmAbvEnv::bind() {
  // Lane 0 is the producer/dispatch thread; lanes 1..jobs back the shard
  // workers, which now run concurrently with the producer.
  metrics_ =
      std::make_unique<support::MetricsRegistry>(engine_config_.jobs + 1);
  EvalEngine::Options options;
  options.config = engine_config_;
  options.metrics = metrics_.get();
  options.trace = trace_;
  options.metrics_out = metrics_out_;
  options.metrics_interval = metrics_interval_;
  options.coverage = &coverage_;
  options.record_writer = record_writer_;
  engine_ = std::make_unique<EvalEngine>(options);
  for (const analysis::PruneDecision& d : set_.pruned()) {
    coverage_.annotate(d.name, analysis::to_string(d.action));
  }
  for (const auto& checker : set_.checkers()) {
    if (!checker->event_counted()) checker->set_witness_depth(witness_depth_);
    checker->set_coverage(&coverage_.row(checker->name()));
    engine_->add(checker.get());
  }
}

void TlmAbvEnv::on_records(const tlm::TransactionRecord* begin,
                           const tlm::TransactionRecord* end) {
  engine_->on_records(begin, end);
}

void TlmAbvEnv::finish() {
  if (engine_ != nullptr) {
    engine_->finish();
    return;
  }
  // Never bound: retire directly (nothing was ever dispatched).
  for (const auto& checker : set_.checkers()) checker->finish();
}

support::MetricsSnapshot TlmAbvEnv::metrics_snapshot() const {
  return metrics_ != nullptr ? metrics_->snapshot() : support::MetricsSnapshot{};
}

}  // namespace repro::abv
