#include "checker/checker.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>

namespace repro::checker {

LifetimeInfo compute_lifetime(const psl::ExprPtr& formula,
                              psl::TimeNs clock_period_ns) {
  assert(formula);
  assert(clock_period_ns >= 1);
  LifetimeInfo info;
  psl::ExprPtr body = formula;
  while (body->kind == psl::ExprKind::kAlways) body = body->lhs;
  // A formula is time-scheduled iff it has no fixpoint operators below the
  // stripped always chain.
  std::vector<const psl::Expr*> work{body.get()};
  while (!work.empty()) {
    const psl::Expr* e = work.back();
    work.pop_back();
    switch (e->kind) {
      case psl::ExprKind::kUntil:
      case psl::ExprKind::kRelease:
      case psl::ExprKind::kAlways:
      case psl::ExprKind::kEventually:
      case psl::ExprKind::kAbort:
        info.bounded = false;
        break;
      default:
        break;
    }
    if (e->lhs) work.push_back(e->lhs.get());
    if (e->rhs) work.push_back(e->rhs.get());
  }
  info.max_eps = psl::max_eps(body);
  if (info.bounded) {
    // Ceiling division: a window that is not a multiple of the clock period
    // still needs an instant for its final partial period.
    info.instants = static_cast<size_t>(
        (info.max_eps + clock_period_ns - 1) / clock_period_ns);
  }
  return info;
}

namespace {

bool has_next_eps(const psl::ExprPtr& e) {
  if (e == nullptr) return false;
  return e->kind == psl::ExprKind::kNextEps || has_next_eps(e->lhs) ||
         has_next_eps(e->rhs);
}

}  // namespace

PropertyChecker::PropertyChecker(std::string name, psl::ExprPtr formula,
                                 psl::ExprPtr guard,
                                 psl::TimeNs clock_period_ns,
                                 CheckerOptions options)
    : name_(std::move(name)),
      formula_(std::move(formula)),
      guard_(std::move(guard)),
      options_(options),
      event_counted_(clock_period_ns == kEventCounted),
      witness_depth_(event_counted_ ? 0 : 8),
      // Event-counted: ns-scale (RTL edge-to-edge) up to ~8M ns. Abstracted:
      // sub-period to ~2k-period latencies; DES56's longest next_e window
      // (170 ns at a 10 ns clock) sits mid-range.
      latency_ns_(event_counted_
                      ? support::exponential_bounds(1, 24)
                      : support::exponential_bounds(clock_period_ns, 12)) {
  assert(formula_);
  body_ = formula_;
  while (body_->kind == psl::ExprKind::kAlways) {
    repeating_ = true;
    body_ = body_->lhs;
  }
  scheduled_ = has_next_eps(body_);
  antecedent_ = derive_antecedent(body_);
  node_cost_ = psl::node_count(body_);
  // Compile once; every instance in the pool shares the immutable program.
  if (options_.compiled) program_ = Program::compile(body_);
  // Frame-free programs additionally share a lockstep layout: instances then
  // occupy lanes of 64-wide blocks and due cohorts advance in one pass.
  if (program_ != nullptr && options_.vectorized &&
      ProgramBatch::supported(*program_)) {
    batch_layout_ = std::make_shared<const ProgramBatch>(program_);
  }
  // Sec. IV point 1: the pool is sized by the lifetime of an instance, i.e.
  // the number of instants in (t_fire, t_end] at which a transaction can
  // occur (see compute_lifetime). A property with until/release obligations
  // has no static bound, and an event-counted one no instants in time; the
  // pool then grows on demand.
  if (event_counted_) return;
  const LifetimeInfo info = compute_lifetime(body_, clock_period_ns);
  if (info.bounded) {
    lifetime_ = info.instants;
    fill_pool();
    stats_.pool_capacity = lifetime_;
  }
}

void PropertyChecker::fill_pool() {
  free_pool_.reserve(lifetime_);
  for (size_t i = 0; i < lifetime_; ++i) free_pool_.push_back(make_instance());
}

void PropertyChecker::set_program_formula(const psl::ExprPtr& formula) {
  assert(!started_ && stats_.events == 0);
  if (formula == nullptr || program_ == nullptr) return;
  psl::ExprPtr body = formula;
  while (body->kind == psl::ExprKind::kAlways) body = body->lhs;
  program_ = Program::compile(body);
  batch_layout_.reset();
  if (options_.vectorized && ProgramBatch::supported(*program_)) {
    batch_layout_ = std::make_shared<const ProgramBatch>(program_);
  }
  // The pre-filled pool references the old program; rebuild it at the
  // original lifetime so pool_capacity is unchanged.
  blocks_.clear();
  free_pool_.clear();
  fill_pool();
}

void PropertyChecker::retire(std::unique_ptr<Instance> instance, Verdict v,
                               psl::TimeNs time) {
  const psl::TimeNs activated = instance->activated_at();
  latency_ns_.record(time >= activated ? time - activated : 0);
  switch (v) {
    case Verdict::kTrue:
      ++stats_.holds;
      // The vacuity split: a hold whose antecedent never fired at the
      // firing event proves nothing about the consequent.
      if (instance->exercised()) {
        ++stats_.real_passes;
      } else {
        ++stats_.vacuous_passes;
      }
      break;
    case Verdict::kFalse:
      ++stats_.failures;
      if (failure_log_.size() < options_.failure_log_cap) {
        failure_log_.push_back({time, name_, witness_snapshot()});
      }
      if (trace_ != nullptr) {
        trace_->instant(trace_tid_, "fail:" + name_, {{"sim_time_ns", time}});
      }
      break;
    case Verdict::kPending:
      ++stats_.uncompleted;
      break;
  }
  // Sec. IV point 3: reset the instance so it can serve a later session.
  // acquire() allocates only when the pool is empty, so an unbounded
  // (until-based) property's pool never outgrows the high-water mark of
  // instances live at once.
  instance->reset();
  free_pool_.push_back(std::move(instance));
}

void PropertyChecker::place(std::unique_ptr<Instance> instance) {
  // Without next_e there is never a deadline: skip the lookup.
  std::optional<psl::TimeNs> deadline;
  if (scheduled_) deadline = instance->next_deadline();
  if (deadline) {
    table_.emplace(*deadline, std::move(instance));
    stats_.table_peak = std::max(stats_.table_peak, table_.size());
  } else {
    dense_.push_back(std::move(instance));
  }
}

void PropertyChecker::set_witness_depth(size_t depth) {
  witness_depth_ = depth;
  witness_ring_.clear();
  witness_ring_.shrink_to_fit();
  witness_next_ = 0;
}

void PropertyChecker::capture_witness(psl::TimeNs time,
                                      const support::Snapshot& values) {
  if (witness_ring_.size() < witness_depth_) {
    witness_ring_.push_back({time, values});
  } else {
    Observation& slot = witness_ring_[witness_next_];
    slot.time = time;
    slot.values = values;
    witness_next_ = (witness_next_ + 1) % witness_depth_;
  }
}

Trace PropertyChecker::witness_snapshot() const {
  // Oldest first: once the ring is full, witness_next_ points at the oldest
  // entry; before that, insertion order is already chronological.
  Trace out;
  out.reserve(witness_ring_.size());
  for (size_t i = 0; i < witness_ring_.size(); ++i) {
    out.push_back(witness_ring_[(witness_next_ + i) % witness_ring_.size()]);
  }
  return out;
}

std::unique_ptr<Instance> PropertyChecker::acquire() {
  if (!free_pool_.empty()) {
    auto instance = std::move(free_pool_.back());
    free_pool_.pop_back();
    ++stats_.reuses;
    return instance;
  }
  ++stats_.pool_capacity;
  return make_instance();
}

std::unique_ptr<Instance> PropertyChecker::make_instance() {
  if (batch_layout_ != nullptr) {
    for (const auto& block : blocks_) {
      if (block->has_free_lane()) {
        return std::make_unique<Instance>(block, block->allocate_lane());
      }
    }
    blocks_.push_back(std::make_shared<BatchState>(batch_layout_));
    return std::make_unique<Instance>(blocks_.back(),
                                      blocks_.back()->allocate_lane());
  }
  if (program_) return std::make_unique<Instance>(program_);
  return std::make_unique<Instance>(body_);
}

// Lockstep pre-pass: collect the instances this event is about to step
// — scheduled entries whose deadline has arrived plus every dense instance —
// group them by lane block, and advance each block once through the 64-wide
// kernel. The bookkeeping loops in on_event then consume the primed
// verdicts lane by lane, so stats ordering, table evolution, failure logs
// and the free-pool LIFO are identical to the scalar path by construction.
// Instances that get re-stepped within the same event (re-dued
// eps == 0 entries, table instances migrating to the dense list) have
// consumed their primed bit by then and self-prime, preserving the scalar
// double-step.
void PropertyChecker::prime_cohorts(psl::TimeNs time, const Event& ev) {
  prime_masks_.clear();
  const auto add = [&](const Instance& instance) {
    BatchState* block = instance.batch_block();
    if (block == nullptr) return;
    const uint64_t bit = uint64_t{1} << instance.batch_lane();
    for (auto& [b, mask] : prime_masks_) {
      if (b == block) {
        mask |= bit;
        return;
      }
    }
    prime_masks_.emplace_back(block, bit);
  };
  for (auto it = table_.begin(); it != table_.end() && it->first <= time;
       ++it) {
    add(*it->second);
  }
  for (const auto& instance : dense_) add(*instance);
  for (auto& [block, mask] : prime_masks_) {
    const int lanes = std::popcount(mask);
    const uint64_t t0 =
        trace_ != nullptr && lanes > 1 ? trace_->now_ns() : 0;
    block->prime(ev, mask);
    if (lanes > 1) {
      ++stats_.vector_batches;
      stats_.vector_lanes_filled += static_cast<uint64_t>(lanes);
      if (trace_ != nullptr) {
        const uint64_t t1 = trace_->now_ns();
        trace_->span(trace_tid_, "vector_batch", t0, t1 > t0 ? t1 - t0 : 0,
                     {{"lanes", static_cast<uint64_t>(lanes)}});
      }
    }
  }
}

void PropertyChecker::on_event(psl::TimeNs time,
                               const support::Snapshot& values) {
  ++stats_.events;
  last_time_ = time;
  if (witness_depth_ > 0) capture_witness(time, values);
  const Event ev{time, &values};
  if (!blocks_.empty()) prime_cohorts(time, ev);

  // Sec. IV point 2: evaluate every scheduled instance whose deadline is at
  // or before `time`. An instance due strictly earlier missed its evaluation
  // point; feeding it this event lets the next_e nodes resolve it (to kFalse
  // unless the formula absorbs the miss).
  while (!table_.empty() && table_.begin()->first <= time) {
    if (table_.begin()->first < time) ++stats_.missed_deadlines;
    auto instance = std::move(table_.begin()->second);
    table_.erase(table_.begin());
    ++stats_.steps;
    stats_.node_visits += node_cost_;
    const Verdict v = instance->step(ev);
    if (v == Verdict::kPending) {
      place(std::move(instance));
    } else {
      retire(std::move(instance), v, time);
    }
  }

  // Dense instances observe every event.
  size_t keep = 0;
  for (size_t i = 0; i < dense_.size(); ++i) {
    ++stats_.steps;
    stats_.node_visits += node_cost_;
    const Verdict v = dense_[i]->step(ev);
    if (v == Verdict::kPending) {
      dense_[keep++] = std::move(dense_[i]);
    } else {
      retire(std::move(dense_[i]), v, time);
    }
  }
  dense_.resize(keep);

  // Sec. IV point 4: activate a new session at each event matching the
  // context.
  if (!repeating_ && started_) {
    if (coverage_ != nullptr) sync_coverage();
    return;
  }
  if (guard_ && !eval_boolean(guard_, values)) {
    if (coverage_ != nullptr) sync_coverage();
    return;
  }
  started_ = true;

  auto instance = acquire();
  instance->set_activated_at(time);
  instance->set_exercised(antecedent_ == nullptr ||
                          eval_boolean(antecedent_, values));
  ++stats_.activations;
  ++stats_.steps;
  stats_.node_visits += node_cost_;
  const Verdict v = instance->step(ev);
  if (v == Verdict::kPending) {
    // Register the instance with its required evaluation points; trivially
    // resolved instances (e.g. antecedent false at firing) never get here.
    place(std::move(instance));
  } else {
    ++stats_.trivial;
    retire(std::move(instance), v, time);
  }
  if (coverage_ != nullptr) sync_coverage();
}

void PropertyChecker::finish() {
  // End-of-trace retirements are attributed to the last observed event: a
  // dense instance failed *by* then, and a scheduled instance's deadline may
  // lie beyond the end of the trace.
  for (auto& [deadline, instance] : table_) {
    const Verdict v = instance->finish();
    retire(std::move(instance), v, std::min(deadline, last_time_));
  }
  table_.clear();
  for (auto& instance : dense_) {
    const Verdict v = instance->finish();
    retire(std::move(instance), v, last_time_);
  }
  dense_.clear();
  if (coverage_ != nullptr) sync_coverage();
}

void PropertyChecker::set_coverage(support::CoverageTable::Row* row) {
  coverage_ = row;
  if (coverage_ != nullptr) sync_coverage();
}

void PropertyChecker::sync_coverage() {
  // Single-writer mirror: this checker is the only writer of its row, so
  // relaxed stores of the current totals are enough for a reader to observe
  // a recent, internally-plausible state (exact after finish()).
  auto& row = *coverage_;
  const auto relaxed = std::memory_order_relaxed;
  row.activations.store(stats_.activations, relaxed);
  row.holds.store(stats_.holds, relaxed);
  row.failures.store(stats_.failures, relaxed);
  row.uncompleted.store(stats_.uncompleted, relaxed);
  row.trivial.store(stats_.trivial, relaxed);
  row.real_passes.store(stats_.real_passes, relaxed);
  row.vacuous_passes.store(stats_.vacuous_passes, relaxed);
  row.missed_deadlines.store(stats_.missed_deadlines, relaxed);
  row.node_visits.store(stats_.node_visits, relaxed);
}

}  // namespace repro::checker
