// PropertyChecker: the runtime checker of one property, driven by a stream
// of evaluation events. It is the Sec. IV wrapper of the paper:
//   1. allocation of checker instances — a pool sized by the property
//      lifetime (the maximum number of instants where transactions can
//      occur between firing and completion);
//   2. evaluation of active instances — an evaluation table maps the next
//      required evaluation time of each scheduled instance to the instance;
//      on an event at time t, instances due at t are evaluated and instances
//      whose deadline passed (t' < t) resolve per next_e semantics (a missed
//      evaluation point is a failure unless the formula absorbs it);
//   3. reset and reuse of instances that reached their completion time;
//   4. activation of a new instance at each event matching the context,
//      skipping registration when the instance is trivially resolved at its
//      firing point.
//
// Pending instances whose obligations are not purely time-scheduled
// (until/release/eventually) are kept on a dense list and see every event;
// this is the graceful degradation for until-based TLM properties like q2
// of Fig. 3. A formula without next_e is never time-scheduled, so its
// checker decides that once at construction and keeps every pending
// instance on the dense list.
//
// Abstracted TLM properties are evaluated at transaction ends (the basic
// transaction context Tb). The same class checks unabstracted RTL
// properties, where the events are the clock edges selected by the clock
// context (RtlAbvEnv), or per-cycle transactions standing for those edges
// (the paper's TLM-CA rows of Table I). Such a checker is *event-counted*:
// a `next` counts events, not time, and it is built with kEventCounted in
// place of a clock period.
//
// A property with a top-level `always` starts a fresh verification session
// (checker instance) at every evaluation event whose context guard holds,
// mirroring the behaviour FoCs-generated checkers have at RTL.
#ifndef REPRO_CHECKER_CHECKER_H_
#define REPRO_CHECKER_CHECKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checker/batch.h"
#include "checker/instance.h"
#include "checker/program.h"
#include "checker/trace.h"
#include "psl/ast.h"
#include "support/coverage.h"
#include "support/metrics.h"
#include "support/trace_sink.h"

namespace repro::checker {

// Clock period of an event-counted checker (unabstracted RTL property): its
// time unit is the evaluation event itself.
inline constexpr psl::TimeNs kEventCounted = 0;

// Backend and resource options of a PropertyChecker. The compiled backend
// evaluates a flat program (program.h) shared by every instance of a
// property; the interpreter backend keeps the virtual-dispatch obligation
// tree of instance.h. Both implement the same semantics (cross-validated in
// the ir test suite).
struct CheckerOptions {
  bool compiled = true;
  // On the compiled backend, evaluate instances of frame-free programs
  // (ProgramBatch::supported) through the 64-wide lockstep kernel (batch.h).
  // Reports are byte-identical either way; only speed differs. Programs with
  // dynamic operators fall back to scalar compiled evaluation per property.
  bool vectorized = true;
  // Maximum number of Failure entries retained for diagnostics; verdicts and
  // stats are unaffected.
  size_t failure_log_cap = 64;
};

// One observed property violation. `time` is the simulation (VCD) timestamp
// the violation was attributed to. `witness` is the checker's ring buffer of
// recent transactions at failure time, oldest first; empty for event-counted
// checkers and for witness depth 0.
struct Failure {
  psl::TimeNs time = 0;
  std::string property;
  Trace witness;
};

// Static sizing of a checker's instance pool (Sec. IV point 1), shared with
// the pre-simulation checker-sizing analysis pass. `bounded` is false when
// the formula (below its top-level always chain) contains a fixpoint
// operator (until/release/always/eventually/abort), in which case the pool
// has no static bound and grows on demand. For bounded formulas `instants`
// is the instance lifetime in transaction instants: with timing equivalence
// those instants are multiples of the RTL clock period, so
// lifetime = ceil(max next_e window / clock period) — the ceiling matters
// when a window is not a multiple of the period, where truncation would
// undersize the pool and the deadline horizon.
struct LifetimeInfo {
  bool bounded = true;
  size_t instants = 0;       // 0 when unbounded or purely boolean
  psl::TimeNs max_eps = 0;   // largest next_e window below the always chain
};

LifetimeInfo compute_lifetime(const psl::ExprPtr& formula,
                              psl::TimeNs clock_period_ns);

struct CheckerStats {
  uint64_t events = 0;        // evaluation events observed
  uint64_t activations = 0;   // verification sessions started
  uint64_t failures = 0;      // instances resolved kFalse
  uint64_t holds = 0;         // instances resolved kTrue
  uint64_t trivial = 0;       // activations resolved at their anchor event
                              // (vacuity indicator: typically a false
                              // antecedent, the paper's "trivially true")
  uint64_t uncompleted = 0;   // instances still pending at finish()
  uint64_t reuses = 0;        // sessions served by a recycled instance
  uint64_t steps = 0;         // instance step() calls (work measure)
  // Vacuity split of `holds` (holds == real_passes + vacuous_passes): a
  // pass is real when the property's derived antecedent/guard fired at the
  // instance's anchor event, vacuous otherwise. Properties without a guard
  // shape count every hold as real. See DESIGN.md §13.
  uint64_t real_passes = 0;
  uint64_t vacuous_passes = 0;
  // Evaluation-table entries popped strictly past their deadline (the
  // out-of-order/missed evaluation points of Sec. IV point 2); the next_e
  // semantics decide whether the miss is absorbed or fails the instance.
  uint64_t missed_deadlines = 0;
  // steps x formula node count: a deterministic evaluation-cost proxy that
  // is identical across the interpreter/compiled/lockstep backends (actual
  // per-backend node visits differ and would break report byte-identity).
  uint64_t node_visits = 0;
  size_t pool_capacity = 0;    // live instances (active + pooled)
  size_t table_peak = 0;       // peak size of the evaluation table
  // Lockstep accounting (vectorized backend only; absent from reports, so
  // the JSON stays byte-identical with vectorization on or off).
  uint64_t vector_batches = 0;       // multi-lane prime() calls
  uint64_t vector_lanes_filled = 0;  // lanes advanced by those calls
};

class PropertyChecker {
 public:
  // `formula` is the full property; a leading `always` chain is stripped and
  // turned into per-event instance activation. `guard` is the optional
  // boolean context guard (clock context guard at RTL, Tb guard at TLM);
  // nullptr means every event is an evaluation point. `clock_period_ns` is
  // the reference RTL clock period of an abstracted property; together with
  // the formula's maximum next_e window it sizes the instance pool
  // preallocated up front (Sec. IV point 1). kEventCounted marks an
  // unabstracted RTL property. A property with unbounded lifetime
  // (until-based) starts with an empty pool that grows on demand. `options`
  // selects the instance backend and the failure-log cap.
  PropertyChecker(std::string name, psl::ExprPtr formula, psl::ExprPtr guard,
                  psl::TimeNs clock_period_ns, CheckerOptions options = {});

  // Feeds one evaluation event (a clock edge or a transaction end). `values`
  // is only borrowed for the call: the witness ring copies what it keeps.
  void on_event(psl::TimeNs time, const support::Snapshot& values);

  // Ends the trace: resolves outstanding instances with truncated semantics,
  // attributed to the last observed event.
  void finish();

  const std::string& name() const { return name_; }
  const CheckerStats& stats() const { return stats_; }
  const std::vector<Failure>& failures() const { return failure_log_; }
  bool ok() const { return stats_.failures == 0; }

  // Built with kEventCounted (an unabstracted RTL property).
  bool event_counted() const { return event_counted_; }

  // Lifetime in instants, as computed per Sec. IV (0 if unbounded).
  size_t lifetime() const { return lifetime_; }

  const CheckerOptions& options() const { return options_; }
  // Compiled program shared by this checker's instances; nullptr on the
  // interpreter backend.
  const std::shared_ptr<const Program>& program() const { return program_; }

  // Replaces the compiled program with one built from `formula` (e.g. the
  // parity-gated dead-node fold of an analysis PruneDecision). The original
  // formula keeps driving everything observable — lifetime, pool sizing,
  // the derived antecedent and the node_visits cost proxy — so reports stay
  // byte-identical; only the executed node table shrinks. Must be called
  // before the first event; no-op on nullptr or the interpreter backend.
  void set_program_formula(const psl::ExprPtr& formula);

  // --- Observability -------------------------------------------------------

  // Resizes the failure-witness ring buffer (recent events dumped alongside
  // each failure verdict). Abstracted checkers start at depth 8,
  // event-counted ones at 0 (disabled). Call before the first on_event;
  // resizing discards buffered entries.
  void set_witness_depth(size_t depth);
  size_t witness_depth() const { return witness_depth_; }

  // Emits an instant trace event on lane `tid` for every failure verdict.
  // The sink must outlive the checker; nullptr disables emission.
  void set_trace(support::TraceSink* sink, uint32_t tid) {
    trace_ = sink;
    trace_tid_ = tid;
  }

  // Activation-to-verdict latency in simulation nanoseconds, one sample per
  // retired session. Deterministic for a given event stream.
  const support::Histogram& latency_histogram() const { return latency_ns_; }

  // The derived antecedent/guard (derive_antecedent on the stripped body);
  // nullptr when the body has no guard shape (every pass is then real).
  const psl::ExprPtr& antecedent() const { return antecedent_; }

  // Attaches the live coverage row this checker mirrors its stats into at
  // the end of every event (relaxed stores; see support/coverage.h).
  // nullptr detaches. The row must outlive the checker.
  void set_coverage(support::CoverageTable::Row* row);

 private:
  void sync_coverage();
  void retire(std::unique_ptr<Instance> instance, Verdict v, psl::TimeNs time);
  void place(std::unique_ptr<Instance> instance);
  std::unique_ptr<Instance> acquire();
  std::unique_ptr<Instance> make_instance();
  void fill_pool();
  void prime_cohorts(psl::TimeNs time, const Event& ev);
  void capture_witness(psl::TimeNs time, const support::Snapshot& values);
  Trace witness_snapshot() const;

  std::string name_;
  psl::ExprPtr formula_;   // keeps the AST alive for node back-references
  psl::ExprPtr body_;      // formula with top-level always stripped
  psl::ExprPtr guard_;     // context guard, may be nullptr
  CheckerOptions options_;
  bool event_counted_ = false;
  // The body has a next_e: pending instances may wait on the evaluation
  // table. False means every pending instance goes to the dense list.
  bool scheduled_ = false;
  std::shared_ptr<const Program> program_;  // compiled backend only
  // Vectorized backend: the shared lockstep layout and the lane blocks the
  // instances live in (one block per 64 concurrent instances). Empty when
  // the program is unsupported or vectorization is off.
  std::shared_ptr<const ProgramBatch> batch_layout_;
  std::vector<std::shared_ptr<BatchState>> blocks_;
  // Reused per-event scratch of the prime pre-pass (block -> lanes).
  std::vector<std::pair<BatchState*, uint64_t>> prime_masks_;
  bool repeating_ = false;     // had a top-level always
  bool started_ = false;       // non-repeating: first activation done
  size_t lifetime_ = 0;
  // Last event time observed; end-of-trace retirements are reported at this
  // instant (never later than the end of the trace).
  psl::TimeNs last_time_ = 0;

  // Evaluation table: next required evaluation time -> scheduled instance.
  std::multimap<psl::TimeNs, std::unique_ptr<Instance>> table_;
  // Instances that must observe every event.
  std::vector<std::unique_ptr<Instance>> dense_;
  // Reset instances ready for reuse.
  std::vector<std::unique_ptr<Instance>> free_pool_;

  CheckerStats stats_;
  std::vector<Failure> failure_log_;  // capped at options_.failure_log_cap

  // Failure-witness ring buffer: the last `witness_depth_` events, written
  // circularly (witness_next_ is the overwrite position once full). A full
  // ring overwrites its slots in place, so steady-state capture allocates
  // nothing; failures copy the ring out.
  size_t witness_depth_ = 0;
  Trace witness_ring_;
  size_t witness_next_ = 0;

  // Activation-to-verdict latency in simulation ns.
  support::Histogram latency_ns_;

  psl::ExprPtr antecedent_;  // derived guard, may be nullptr
  uint64_t node_cost_ = 0;   // node_count(body_), the node_visits increment
  support::CoverageTable::Row* coverage_ = nullptr;

  support::TraceSink* trace_ = nullptr;
  uint32_t trace_tid_ = 0;
};

}  // namespace repro::checker

#endif  // REPRO_CHECKER_CHECKER_H_
