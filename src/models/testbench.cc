#include "models/testbench.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "analysis/coverage_check.h"
#include "analysis/driver.h"
#include "models/colorconv/colorconv_rtl.h"
#include "models/colorconv/colorconv_tlm_at.h"
#include "models/colorconv/colorconv_tlm_ca.h"
#include "models/des56/des56_rtl.h"
#include "models/des56/des56_tlm_at.h"
#include "models/des56/des56_tlm_ca.h"
#include "models/properties.h"
#include "models/stimulus.h"
#include "sim/clock.h"
#include "support/trace_sink.h"
#include "support/tracelog.h"
#include "tlm/record_source.h"
#include "tlm/recorder.h"
#include "tlm/socket.h"

namespace repro::models {
namespace {

using Clock = std::chrono::steady_clock;

constexpr sim::Time kForever = ~sim::Time{0} / 2;

// Selects the configured properties: explicit indices when given, otherwise
// the first `checkers` entries of the suite.
std::vector<psl::RtlProperty> pick(const PropertySuite& suite,
                                   const RunConfig& config) {
  std::vector<psl::RtlProperty> out;
  if (!config.property_indices.empty()) {
    for (size_t i : config.property_indices) {
      if (i < suite.properties.size()) out.push_back(suite.properties[i]);
    }
  } else {
    const size_t n = std::min(config.checkers, suite.properties.size());
    out.assign(suite.properties.begin(), suite.properties.begin() + n);
  }
  out.insert(out.end(), config.extra_properties.begin(),
             config.extra_properties.end());
  return out;
}

bool abv_enabled(const RunConfig& config) {
  return config.checkers > 0 || !config.property_indices.empty() ||
         !config.extra_properties.empty();
}

// Whether this run checks the abstracted TLM formulas (the normal TLM-AT
// flow, basic transaction context). RTL, TLM-CA and the unabstracted-replay
// ablation check the original RTL formulas (clock-edge context). Property
// registration, pruning and static analysis all follow this one rule.
bool checks_abstracted(const RunConfig& config) {
  return config.level == Level::kTlmAt &&
         !config.abstraction.at_replay_unabstracted;
}

// The properties one run checks, in registration order: the selected RTL
// formulas, or their abstractions when checks_abstracted, with the ones the
// Fig. 4 rules delete counted instead of kept. Empty when ABV is disabled.
// The prune plan and both check pipelines all read this one list.
struct CheckedProperties {
  std::vector<psl::RtlProperty> rtl;
  std::vector<psl::TlmProperty> tlm;
  size_t deleted = 0;
};

CheckedProperties select_checked(const RunConfig& config,
                                 const PropertySuite& suite) {
  CheckedProperties out;
  if (!abv_enabled(config)) return out;
  if (!checks_abstracted(config)) {
    out.rtl = pick(suite, config);
    return out;
  }
  rewrite::AbstractionOptions options;
  options.clock_period_ns = suite.clock_period_ns;
  options.abstracted_signals = suite.abstracted_signals;
  options.push_mode = config.abstraction.push_mode;
  for (const psl::RtlProperty& p : pick(suite, config)) {
    rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
    if (outcome.deleted()) {
      ++out.deleted;
    } else {
      out.tlm.push_back(*outcome.property);
    }
  }
  return out;
}

// Refuses a run whose checked formulas or guards read a signal this level's
// evaluation points do not carry: the error names the property, the signal
// and the level. Empty when every signal is bound; a miss left to the
// checkers would abort the process at the first lookup.
std::string unbound_observable(const RunConfig& config,
                               const CheckedProperties& checked) {
  const std::vector<std::string> bound =
      level_observables(config.design, config.level);
  std::string error;
  const auto bind = [&](const std::string& property, const psl::ExprPtr& e) {
    if (!error.empty()) return;
    const std::vector<std::string> unbound = psl::unbound_signals(e, bound);
    if (unbound.empty()) return;
    error = "property " + property + " reads '" + unbound.front() +
            "', which " + to_string(config.design) + " " +
            to_string(config.level) + " does not observe";
  };
  for (const psl::RtlProperty& p : checked.rtl) {
    bind(p.name, p.formula);
    bind(p.name, p.context.guard);
  }
  for (const psl::TlmProperty& q : checked.tlm) {
    bind(q.name, q.formula);
    bind(q.name, q.context.guard);
  }
  return error;
}

// Prune plan prepared once per run over the checked formulas. `active` is
// false when pruning is off or ABV is disabled; `audit` selects the
// AnalysisMode::kError cross-check (pruned properties still run and every
// derived verdict is compared against the real one, PRN003).
struct PrunePrep {
  analysis::PrunePlan plan;
  bool active = false;
  bool audit = false;
};

PrunePrep prepare_prune(const RunConfig& config,
                        const CheckedProperties& checked) {
  PrunePrep prep;
  prep.plan.mode = config.analysis.prune;
  if (config.analysis.prune == analysis::PruneMode::kOff ||
      !abv_enabled(config)) {
    return prep;
  }
  std::vector<analysis::PruneInput> inputs;
  for (const psl::TlmProperty& q : checked.tlm) {
    inputs.push_back(analysis::make_prune_input(q));
  }
  for (const psl::RtlProperty& p : checked.rtl) {
    inputs.push_back(analysis::make_prune_input(p));
  }
  analysis::SymbolicPruneOptions symbolic;
  symbolic.enabled = config.analysis.symbolic_budget > 0;
  symbolic.clock_period_ns = config.clock_period_ns;
  symbolic.step_budget = config.analysis.symbolic_budget;
  prep.plan = analysis::build_prune_plan(inputs, config.analysis.prune,
                                         /*atom_cap=*/20, symbolic);
  prep.active = true;
  prep.audit = config.analysis == AnalysisMode::kError;
  return prep;
}

// Output streams of one run, each null when off and open until the run
// ends. The trace-log writer records the stream identity `meta` and adopts
// the observable dictionary from the first record, keeping the model's
// key-table order (witness byte-identity depends on it). TLM runs add the
// trace sink (written by its destructor) and the metrics stream.
struct Outputs {
  tlm::RecordStreamMeta meta;
  std::unique_ptr<support::tracelog::TraceWriter> writer;
  std::unique_ptr<support::TraceSink> trace;
  std::unique_ptr<std::ofstream> metrics;
};

Outputs open_outputs(const RunConfig& config, bool tlm) {
  Outputs out;
  out.meta.design = to_string(config.design);
  out.meta.level = to_string(config.level);
  out.meta.clock_period_ns = config.clock_period_ns;
  if (!config.ingest.record_path.empty()) {
    out.writer = std::make_unique<support::tracelog::TraceWriter>(
        config.ingest.record_path, out.meta);
  }
  if (tlm && !config.observability.trace_path.empty()) {
    out.trace =
        std::make_unique<support::TraceSink>(config.observability.trace_path);
  }
  if (tlm && !config.observability.metrics_path.empty()) {
    out.metrics =
        std::make_unique<std::ofstream>(config.observability.metrics_path);
  }
  return out;
}

// ---- Model adapters ----------------------------------------------------------
//
// An adapter builds one design x level model and its driver on a private
// kernel and nothing else: the check pipelines below own the environment,
// the run loop and the RunResult. After the run the adapter reports the
// driver's self-check. Adapters capture `this` in kernel callbacks, so they
// live behind a unique_ptr and never move.

struct Model {
  Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  virtual ~Model() = default;

  virtual size_t ops_completed() const = 0;
  virtual size_t mismatches() const = 0;

  sim::Kernel kernel;
  size_t ops_expected = 0;  // DES56 operations or ColorConv pixels issued
};

// TLM models report every completed transaction to `recorder`; `period`
// is the reference clock their initiators schedule on.
struct TlmModel : Model {
  explicit TlmModel(sim::Time period) : period(period) {}

  tlm::TransactionRecorder recorder{kernel};
  const sim::Time period;
};

// RTL models run on `clock` and expose their observables in `bag`.
struct RtlModel : Model {
  explicit RtlModel(sim::Time period) : clock(kernel, "clk", period, 0) {}

  sim::Clock clock;
  abv::SignalBag bag;
};

class Des56RtlAdapter final : public RtlModel {
 public:
  explicit Des56RtlAdapter(const RunConfig& config)
      : RtlModel(config.clock_period_ns),
        duv_(kernel, clock),
        monitor_en_(kernel, "monitor_en", true),
        ops_(make_des_ops(config.workload, config.seed)),
        driver_(ops_) {
    ops_expected = ops_.size();
    clock.on_negedge([this] {
      if (driver_.done()) {
        kernel.stop();
        return;
      }
      const Des56Inputs in = driver_.tick(duv_.rdy.read(), duv_.out.read());
      duv_.ds.write(in.ds);
      if (in.ds) {
        duv_.indata.write(in.indata);
        duv_.key.write(in.key);
        duv_.decrypt.write(in.decrypt);
      }
    });
    duv_.register_signals(bag);
    bag.add("monitor_en", monitor_en_);
  }
  size_t ops_completed() const override { return driver_.ops_completed(); }
  size_t mismatches() const override { return driver_.mismatches(); }

 private:
  Des56Rtl duv_;
  sim::Signal<bool> monitor_en_;
  const std::vector<DesOp> ops_;
  Des56DriverModel driver_;
};

class Des56TlmCaAdapter final : public TlmModel {
 public:
  explicit Des56TlmCaAdapter(const RunConfig& config)
      : TlmModel(config.clock_period_ns),
        socket_(kernel, &recorder, "des56_ca"),
        ops_(make_des_ops(config.workload, config.seed)),
        driver_(ops_) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    ops_expected = ops_.size();
    kernel.schedule_at(0, [this] { cycle(); });
  }
  size_t ops_completed() const override { return driver_.ops_completed(); }
  size_t mismatches() const override { return driver_.mismatches(); }

 private:
  // Per-cycle transaction loop. Inputs at edge k+1 derive from the outputs
  // returned by the edge-k transaction, exactly like the RTL driver.
  void cycle() {
    if (driver_.done()) {
      kernel.stop();
      return;
    }
    payload_.command = tlm::Command::kWrite;
    payload_.data.assign({next_.ds ? uint64_t{1} : 0, next_.indata, next_.key,
                          next_.decrypt ? uint64_t{1} : 0});
    socket_.transport(payload_);
    const bool rdy = payload_.data[1] != 0;
    next_ = driver_.tick(rdy, payload_.data[0]);
    kernel.schedule_at(kernel.now() + period, [this] { cycle(); });
  }

  Des56TlmCa target_;
  tlm::InitiatorSocket socket_;
  const std::vector<DesOp> ops_;
  Des56DriverModel driver_;
  Des56Inputs next_;
  tlm::Payload payload_;
};

class Des56TlmAtAdapter final : public TlmModel {
 public:
  explicit Des56TlmAtAdapter(const RunConfig& config)
      : TlmModel(config.clock_period_ns),
        target_(kernel, &recorder, config.clock_period_ns),
        socket_(kernel, &recorder, "des56_at"),
        ops_(make_des_ops(config.workload, config.seed)) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    ops_expected = ops_.size();
    for (const DesOp& op : ops_) {
      expected_.push_back(op.decrypt ? des_decrypt(op.indata, op.key)
                                     : des_encrypt(op.indata, op.key));
    }
    if (!ops_.empty()) {
      kernel.schedule_at((ops_[0].gap + 1) * period, [this] { submit(); });
    }
  }
  size_t ops_completed() const override { return next_op_; }
  size_t mismatches() const override { return mismatches_; }

 private:
  // Issues operation next_op_ as a write and a result read, checking the
  // result at once.
  void submit() {
    const size_t i = next_op_++;
    tlm::Payload write;
    write.command = tlm::Command::kWrite;
    write.data = {ops_[i].indata, ops_[i].key, ops_[i].decrypt ? uint64_t{1} : 0};
    socket_.transport(write);
    tlm::Payload read;
    read.command = tlm::Command::kRead;
    const sim::Time done = socket_.transport(read);
    if (read.data.empty() || read.data[0] != expected_[i]) ++mismatches_;
    if (i + 1 < ops_.size()) {
      // Same schedule as the RTL driver: ds_{i+1} rises 18 + gap cycles
      // after ds_i.
      kernel.schedule_at(kernel.now() + (18 + ops_[i + 1].gap) * period,
                         [this] { submit(); });
    } else {
      kernel.schedule_at(done + 4 * period, [this] { kernel.stop(); });
    }
  }

  Des56TlmAt target_;
  tlm::InitiatorSocket socket_;
  const std::vector<DesOp> ops_;
  std::vector<uint64_t> expected_;
  size_t next_op_ = 0;  // also the number of completed operations
  size_t mismatches_ = 0;
};

class ColorConvRtlAdapter final : public RtlModel {
 public:
  explicit ColorConvRtlAdapter(const RunConfig& config)
      : RtlModel(config.clock_period_ns),
        duv_(kernel, clock),
        sof_(kernel, "sof", false),
        monitor_en_(kernel, "monitor_en", true),
        bursts_(make_cc_bursts(config.workload, config.seed)),
        driver_(bursts_) {
    for (const CcBurst& b : bursts_) ops_expected += b.pixels.size();
    clock.on_negedge([this] {
      if (driver_.done()) {
        kernel.stop();
        return;
      }
      const ColorConvDrive drive =
          driver_.tick(duv_.rdy.read(), static_cast<uint8_t>(duv_.y.read()),
                       static_cast<uint8_t>(duv_.cb.read()),
                       static_cast<uint8_t>(duv_.cr.read()));
      duv_.ds.write(drive.inputs.ds);
      duv_.r.write(drive.inputs.r);
      duv_.g.write(drive.inputs.g);
      duv_.b.write(drive.inputs.b);
      sof_.write(drive.sof);
    });
    duv_.register_signals(bag);
    bag.add("sof", sof_);
    bag.add("monitor_en", monitor_en_);
  }
  size_t ops_completed() const override { return driver_.pixels_completed(); }
  size_t mismatches() const override { return driver_.mismatches(); }

 private:
  ColorConvRtl duv_;
  sim::Signal<bool> sof_;
  sim::Signal<bool> monitor_en_;
  const std::vector<CcBurst> bursts_;
  ColorConvDriverModel driver_;
};

class ColorConvTlmCaAdapter final : public TlmModel {
 public:
  explicit ColorConvTlmCaAdapter(const RunConfig& config)
      : TlmModel(config.clock_period_ns),
        socket_(kernel, &recorder, "colorconv_ca"),
        bursts_(make_cc_bursts(config.workload, config.seed)),
        driver_(bursts_) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    for (const CcBurst& b : bursts_) ops_expected += b.pixels.size();
    kernel.schedule_at(0, [this] { cycle(); });
  }
  size_t ops_completed() const override { return driver_.pixels_completed(); }
  size_t mismatches() const override { return driver_.mismatches(); }

 private:
  void cycle() {
    if (driver_.done()) {
      kernel.stop();
      return;
    }
    payload_.command = tlm::Command::kWrite;
    payload_.data.assign({next_.inputs.ds ? uint64_t{1} : 0,
                          uint64_t{next_.inputs.r}, uint64_t{next_.inputs.g},
                          uint64_t{next_.inputs.b},
                          next_.sof ? uint64_t{1} : 0});
    socket_.transport(payload_);
    const bool rdy = payload_.data[0] != 0;
    next_ = driver_.tick(rdy, static_cast<uint8_t>(payload_.data[1]),
                         static_cast<uint8_t>(payload_.data[2]),
                         static_cast<uint8_t>(payload_.data[3]));
    kernel.schedule_at(kernel.now() + period, [this] { cycle(); });
  }

  ColorConvTlmCa target_;
  tlm::InitiatorSocket socket_;
  const std::vector<CcBurst> bursts_;
  ColorConvDriverModel driver_;
  ColorConvDrive next_;
  tlm::Payload payload_;
};

class ColorConvTlmAtAdapter final : public TlmModel {
 public:
  explicit ColorConvTlmAtAdapter(const RunConfig& config)
      : TlmModel(config.clock_period_ns),
        target_(kernel, &recorder, config.clock_period_ns),
        socket_(kernel, &recorder, "colorconv_at"),
        bursts_(make_cc_bursts(config.workload, config.seed)) {
    target_.set_static_observable("monitor_en", 1);
    socket_.bind(target_);
    for (const CcBurst& b : bursts_) ops_expected += b.pixels.size();
    if (!bursts_.empty()) {
      kernel.schedule_at((bursts_[0].gap + 1) * period,
                         [this] { issue_burst(); });
    }
  }
  size_t ops_completed() const override { return completed_; }
  size_t mismatches() const override { return mismatches_; }

 private:
  // Temporally-decoupled initiator (TLM-2.0 LT style): a whole burst is
  // issued from a single kernel event, with local time offsets carried in
  // the transport delay. Record delivery times are unchanged, so the
  // verification environment sees the exact same event stream as before.
  void issue_burst() {
    constexpr size_t kLatency = ColorConvTlmAt::kLatencyCycles;
    const sim::Time c = period;
    const CcBurst& burst = bursts_[next_burst_];
    const sim::Time t0 = kernel.now();
    const size_t n = burst.pixels.size();
    for (size_t i = 0; i < n; ++i) {
      const Pixel& p = burst.pixels[i];
      write_.command = tlm::Command::kWrite;
      write_.data.assign({uint64_t{p.r}, uint64_t{p.g}, uint64_t{p.b},
                          i == 0 ? uint64_t{1} : uint64_t{0}});
      sim::Time write_delay = i * c;
      socket_.transport(write_, write_delay);
      read_.command = tlm::Command::kRead;
      read_.data.clear();
      // Mid-burst, pixel i's result instant (i*c + 8c) coincides with the
      // write of pixel i+8, whose record carries the identical full
      // snapshot; the read phase is then silent to avoid a duplicated
      // evaluation point.
      read_.record = i + kLatency >= n;
      sim::Time read_delay = i * c;
      socket_.transport(read_, read_delay);
      const Ycbcr expect = colorconv_ref(p.r, p.g, p.b);
      if (read_.data.size() != 3 || read_.data[0] != expect.y ||
          read_.data[1] != expect.cb || read_.data[2] != expect.cr) {
        ++mismatches_;
      }
      ++completed_;
    }
    // Mark the ds and rdy falling instants (Def. III.1).
    target_.emit_idle(t0 + n * c);
    target_.emit_idle(t0 + (n + kLatency) * c);
    ++next_burst_;
    if (next_burst_ < bursts_.size()) {
      kernel.schedule_at(t0 + (n + bursts_[next_burst_].gap) * c,
                         [this] { issue_burst(); });
    } else {
      kernel.schedule_at(t0 + (n + 4 + kLatency) * c, [this] { kernel.stop(); });
    }
  }

  ColorConvTlmAt target_;
  tlm::InitiatorSocket socket_;
  const std::vector<CcBurst> bursts_;
  size_t next_burst_ = 0;
  size_t completed_ = 0;
  size_t mismatches_ = 0;
  tlm::Payload write_;
  tlm::Payload read_;
};

std::unique_ptr<RtlModel> make_rtl_model(const RunConfig& config) {
  if (config.design == Design::kDes56) {
    return std::make_unique<Des56RtlAdapter>(config);
  }
  return std::make_unique<ColorConvRtlAdapter>(config);
}

std::unique_ptr<TlmModel> make_tlm_model(const RunConfig& config) {
  const bool ca = config.level == Level::kTlmCa;
  if (config.design == Design::kDes56) {
    if (ca) return std::make_unique<Des56TlmCaAdapter>(config);
    return std::make_unique<Des56TlmAtAdapter>(config);
  }
  if (ca) return std::make_unique<ColorConvTlmCaAdapter>(config);
  return std::make_unique<ColorConvTlmAtAdapter>(config);
}

// ---- Check pipelines -----------------------------------------------------------
//
// One pipeline per environment kind. Each builds and configures its
// environment once, registers the checked properties, runs a live model or
// drains a replayed RecordSource, and fills the RunResult through
// fill_result. The wall-clock window covers only the run and env.finish().

// Configuration both environment kinds share: checker backend, trace-log
// writer and prune plan.
template <typename Env>
void configure(Env& env, const RunConfig& config, const Outputs& out,
               const PrunePrep& prune) {
  checker::CheckerOptions options;
  options.compiled = config.compiled_checkers;
  options.vectorized = config.engine.vectorized;
  options.failure_log_cap = config.observability.failure_log_cap;
  env.set_checker_options(options);
  env.set_record_writer(out.writer.get());
  if (prune.active) env.set_prune_plan(&prune.plan, prune.audit);
}

// Extent of a drained record stream.
struct Drained {
  uint64_t records = 0;
  sim::Time last_end = 0;
};

// Feeds `source` span by span into the environment.
template <typename Env>
Drained drain(tlm::RecordSource& source, Env& env) {
  Drained drained;
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    env.on_records(span.begin, span.end);
    drained.records += span.size();
    drained.last_end = span.end[-1].end;
  }
  return drained;
}

// RunResult tail of both pipelines. A live run reads the kernel and the
// driver self-check off `model`; a replay (`model` null) ends at the last
// record and has no DUV, so its driver self-check has no subject —
// functional verification happened when the stream was recorded. `metrics`
// is the environment's merged registry; the sim.* gauges go on top.
template <typename Env>
void fill_result(const Env& env, const PrunePrep& prune, Outputs& out,
                 const Model* model, const Drained& drained,
                 support::MetricsSnapshot metrics, RunResult& result) {
  if (model != nullptr) {
    result.sim_end_ns = model->kernel.now();
    result.kernel_events = model->kernel.events_executed();
    result.delta_cycles = model->kernel.delta_cycles();
    result.ops_completed = model->ops_completed();
    result.mismatches = model->mismatches();
    result.functional_ok = result.mismatches == 0 &&
                           result.ops_completed == model->ops_expected;
  } else {
    result.sim_end_ns = drained.last_end;
    result.functional_ok = true;
  }
  if (prune.active && prune.audit) {
    result.analysis_diagnostics = env.prune_cross_check();  // PRN003 errors
  }
  result.report = env.report();
  result.properties_ok = env.all_ok();
  result.metrics = std::move(metrics);
  result.metrics.gauges["sim.kernel_events"] = result.kernel_events;
  result.metrics.gauges["sim.delta_cycles"] = result.delta_cycles;
  result.metrics.gauges["sim.transactions"] = result.transactions;
  result.metrics.gauges["sim.wall_ns"] =
      static_cast<uint64_t>(result.wall_seconds * 1e9);
  if (out.writer != nullptr && !out.writer->finish()) {
    result.ingest_error = out.writer->error();
  }
}

// TLM-CA, TLM-AT and their replay. Live runs drain a LiveRecordSource over
// the model's recorder; without a consumer (no checkers, no record log) the
// kernel just runs and the recorder stays inactive, so targets skip
// snapshot materialization.
RunResult check_tlm(const RunConfig& config, const PropertySuite& suite,
                    const CheckedProperties& checked, const PrunePrep& prune,
                    TlmModel* model, tlm::RecordSource* replay) {
  RunResult result;
  Outputs out = open_outputs(config, /*tlm=*/true);
  abv::TlmAbvEnv env(suite.clock_period_ns);
  env.set_engine_config(config.engine);
  env.set_witness_depth(config.observability.witness_depth);
  env.set_trace_sink(out.trace.get());
  env.set_metrics_output(out.metrics.get(),
                         config.observability.metrics_interval);
  configure(env, config, out, prune);
  for (const psl::TlmProperty& q : checked.tlm) env.add_property(q);
  for (const psl::RtlProperty& p : checked.rtl) env.add_rtl_property(p);
  result.properties_deleted = checked.deleted;
  const bool pull =
      model == nullptr || abv_enabled(config) || out.writer != nullptr;
  if (pull) env.bind();

  const auto t0 = Clock::now();
  Drained drained;
  if (model == nullptr) {
    drained = drain(*replay, env);
  } else if (pull) {
    tlm::LiveRecordSource live(model->kernel, model->recorder, out.meta,
                               kForever);
    drain(live, env);
  } else {
    model->kernel.run(kForever);
  }
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.transactions =
      model != nullptr ? model->recorder.transactions() : drained.records;
  fill_result(env, prune, out, model, drained, env.metrics_snapshot(), result);
  return result;
}

// RTL and its replay. A replayed record is one settled clock-edge sample
// (address 0 = rising, 1 = falling) that substitutes for sampling a live
// design, so the replay's kernel and signal bag are inert placeholders.
RunResult check_rtl(const RunConfig& config, const CheckedProperties& checked,
                    const PrunePrep& prune, RtlModel* model,
                    tlm::RecordSource* replay) {
  RunResult result;
  Outputs out = open_outputs(config, /*tlm=*/false);
  sim::Kernel inert_kernel;
  abv::SignalBag inert_bag;
  abv::RtlAbvEnv env(model != nullptr ? model->kernel : inert_kernel,
                     model != nullptr ? model->bag : inert_bag);
  configure(env, config, out, prune);
  for (const psl::RtlProperty& p : checked.rtl) env.add_property(p);
  if (model != nullptr && (abv_enabled(config) || out.writer != nullptr)) {
    env.attach(model->clock);
  }

  const auto t0 = Clock::now();
  Drained drained;
  if (model == nullptr) {
    drained = drain(*replay, env);
  } else {
    model->kernel.run(kForever);
  }
  env.finish();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  fill_result(env, prune, out, model, drained, {}, result);
  return result;
}

void append(std::vector<analysis::Diagnostic>& to,
            std::vector<analysis::Diagnostic> from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

// Runs the static analysis battery over the configured properties. Returns
// true when the simulation may proceed (always, except kError with errors).
bool run_analysis(const RunConfig& config, const PropertySuite& suite,
                  RunResult& result) {
  analysis::AnalysisOptions options;
  options.abstraction.clock_period_ns = suite.clock_period_ns;
  options.abstraction.abstracted_signals = suite.abstracted_signals;
  options.abstraction.push_mode = config.abstraction.push_mode;
  options.symbolic_budget = config.analysis.symbolic_budget;
  if (checks_abstracted(config)) {
    // Normal AT flow: the original formula binds at RTL, the abstracted one
    // against the transaction snapshots of the AT target.
    options.rtl_observables = level_observables(config.design, Level::kRtl);
    options.tlm_observables = level_observables(config.design, Level::kTlmAt);
  } else {
    // RTL, TLM-CA and the unabstracted-replay ablation all evaluate the
    // original RTL formulas directly against this level's observables.
    options.rtl_observables = level_observables(config.design, config.level);
  }

  analysis::Driver driver(options);
  for (const psl::RtlProperty& p : pick(suite, config)) {
    driver.analyze(p);
  }
  result.analysis_ok = driver.ok();
  for (const analysis::PropertyAnalysis& r : driver.results()) {
    append(result.analysis_diagnostics, r.diagnostics);
  }
  return result.analysis_ok || config.analysis != AnalysisMode::kError;
}

// Shared post-run tail of both run_simulation overloads: merges the
// analysis/prune diagnostics in their documented order, writes the prune
// plan, and appends the static-vs-dynamic coverage cross-check.
void finalize_run(const RunConfig& config, const PrunePrep& prune,
                  RunResult& analyzed, RunResult& result) {
  // Merge diagnostics: static analysis first, then the plan's
  // PRN001/002/004 notes, then the PRN003 cross-check errors fill_result
  // left (the only thing in result.analysis_diagnostics at this point).
  std::vector<analysis::Diagnostic> prune_errors =
      std::move(result.analysis_diagnostics);
  result.analysis_diagnostics = std::move(analyzed.analysis_diagnostics);
  if (prune.active) append(result.analysis_diagnostics, prune.plan.diagnostics());
  result.analysis_ok = analyzed.analysis_ok && prune_errors.empty();
  append(result.analysis_diagnostics, std::move(prune_errors));
  result.prune_plan = prune.plan;
  if (prune.active && !config.observability.prune_plan_path.empty()) {
    std::ofstream plan_out(config.observability.prune_plan_path);
    prune.plan.write_json(plan_out);
  }

  // Post-run static-vs-dynamic cross-check: reconcile the analysis layer's
  // vacuity predictions with the coverage the run actually observed
  // (COV001/COV002 warnings appended after the static diagnostics).
  if (config.analysis != AnalysisMode::kOff && abv_enabled(config)) {
    std::vector<analysis::DynamicCoverage> observed;
    for (const abv::PropertyReport& p : result.report.properties()) {
      // Derived (pruned) rows carry no dynamic evidence; auditing them for
      // vacuity would only restate the prune decision.
      if (!p.prune.empty()) continue;
      analysis::DynamicCoverage c;
      c.property = p.name;
      c.activations = p.activations;
      c.failures = p.failures;
      c.real_passes = p.real_passes;
      c.vacuous_passes = p.vacuous_passes;
      observed.push_back(std::move(c));
    }
    append(result.analysis_diagnostics,
           analysis::cross_check_coverage(result.analysis_diagnostics,
                                          observed));
  }
}

// Frame of both run_simulation overloads: static analysis, the prune plan,
// the level's check pipeline over a freshly built model (`replay` null) or
// the given record source, then the diagnostics tail.
RunResult run_checked(const RunConfig& config, tlm::RecordSource* replay) {
  const PropertySuite suite =
      config.design == Design::kDes56 ? des56_suite() : colorconv_suite();

  // Pre-simulation static analysis. Uses its own pass manager, so it leaves
  // the simulated configuration (and its reports) untouched.
  // kError: error diagnostics block the simulation (and the replay); an
  // unbound observable is among them (ENV001).
  RunResult analyzed;
  if (config.analysis != AnalysisMode::kOff && abv_enabled(config) &&
      !run_analysis(config, suite, analyzed)) {
    return analyzed;
  }

  // Whatever the analysis mode, no model or replay runs with an unbound
  // observable.
  const CheckedProperties checked = select_checked(config, suite);
  std::string unbound = unbound_observable(config, checked);
  if (!unbound.empty()) {
    RunResult refused;
    refused.ingest_error = std::move(unbound);
    return refused;
  }

  const PrunePrep prune = prepare_prune(config, checked);
  RunResult result;
  if (config.level == Level::kRtl) {
    const std::unique_ptr<RtlModel> model =
        replay == nullptr ? make_rtl_model(config) : nullptr;
    result = check_rtl(config, checked, prune, model.get(), replay);
  } else {
    const std::unique_ptr<TlmModel> model =
        replay == nullptr ? make_tlm_model(config) : nullptr;
    result = check_tlm(config, suite, checked, prune, model.get(), replay);
  }
  finalize_run(config, prune, analyzed, result);
  return result;
}
}  // namespace

std::vector<std::string> level_observables(Design d, Level l) {
  switch (d) {
    case Design::kDes56:
      switch (l) {
        case Level::kRtl:
        case Level::kTlmCa:
          return {"ds",  "indata",        "key",
                  "decrypt", "out",       "rdy",
                  "rdy_next_cycle", "rdy_next_next_cycle", "monitor_en"};
        case Level::kTlmAt:
          return {"ds", "indata", "key", "decrypt", "out", "rdy",
                  "monitor_en"};
      }
      break;
    case Design::kColorConv:
      switch (l) {
        case Level::kRtl:
          return {"ds", "r",  "g",  "b",   "y",
                  "cb", "cr", "rdy", "rdy_next_cycle", "sof", "monitor_en"};
        case Level::kTlmCa:
          return {"ds", "r",  "g",  "b",   "sof", "y",
                  "cb", "cr", "rdy", "rdy_next_cycle", "monitor_en"};
        case Level::kTlmAt:
          return {"ds", "r",  "g",  "b",   "sof", "y",
                  "cb", "cr", "rdy", "monitor_en"};
      }
      break;
  }
  return {};
}

const char* to_string(Design d) {
  switch (d) {
    case Design::kDes56: return "DES56";
    case Design::kColorConv: return "ColorConv";
  }
  return "?";
}

const char* to_string(Level l) {
  switch (l) {
    case Level::kRtl: return "RTL";
    case Level::kTlmCa: return "TLM-CA";
    case Level::kTlmAt: return "TLM-AT";
  }
  return "?";
}

bool parse_design(const std::string& name, Design& out) {
  for (Design d : {Design::kDes56, Design::kColorConv}) {
    if (name == to_string(d)) {
      out = d;
      return true;
    }
  }
  return false;
}

bool parse_level(const std::string& name, Level& out) {
  for (Level l : {Level::kRtl, Level::kTlmCa, Level::kTlmAt}) {
    if (name == to_string(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

RunResult run_simulation(const RunConfig& config) {
  if (!config.ingest.replay_path.empty()) {
    // Offline replay: decode + validate the log, check its identity against
    // this configuration, then feed it through the source-based overload.
    RunResult result;
    support::tracelog::TraceReader reader;
    if (std::optional<support::tracelog::TraceError> err =
            reader.open(config.ingest.replay_path)) {
      result.ingest_error = err->to_string();
      return result;
    }
    tlm::RecordStreamMeta expected;
    expected.design = to_string(config.design);
    expected.level = to_string(config.level);
    expected.clock_period_ns = config.clock_period_ns;
    expected.observables = level_observables(config.design, config.level);
    if (std::optional<support::tracelog::TraceError> err =
            support::tracelog::validate_meta(reader.meta(), expected)) {
      result.ingest_error = err->to_string();
      return result;
    }
    support::tracelog::TraceReplaySource source(std::move(reader));
    return run_simulation(config, source);
  }

  return run_checked(config, nullptr);
}

RunResult run_simulation(const RunConfig& config, tlm::RecordSource& source) {
  return run_checked(config, &source);
}

}  // namespace repro::models
