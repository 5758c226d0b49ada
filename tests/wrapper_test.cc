// Tests for the Sec. IV wrapper: instance pool sizing (lifetime), the
// evaluation table, reset/reuse, activation rules and the Fig. 5 scenario.
#include <gtest/gtest.h>

#include "checker/checker.h"
#include "psl/parser.h"

namespace repro::checker {
namespace {

psl::TlmProperty tlm(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// Checker of the abstracted property `text` on a 10 ns clock.
PropertyChecker abstracted(const std::string& text) {
  const psl::TlmProperty p = tlm(text);
  return PropertyChecker(p.name, p.formula, p.context.guard,
                         /*clock_period_ns=*/10);
}

void transaction(PropertyChecker& wrapper, psl::TimeNs time,
                 const std::vector<std::pair<std::string, uint64_t>>& values) {
  wrapper.on_event(time, support::Snapshot(values));
}

// ---- Sec. IV point 1: allocation / lifetime ------------------------------------------

TEST(Wrapper, LifetimeMatchesPaperExample) {
  // q3 with eps = 170 and clock period 10: at most 17 instants where
  // transactions can occur in (t_fire, t_end] -> pool of 17 instances.
  PropertyChecker wrapper =
      abstracted("q3: always (!ds || next_e[1,170](rdy)) @Tb");
  EXPECT_EQ(wrapper.lifetime(), 17u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 17u);
}

TEST(Wrapper, UnboundedLifetimeForUntilProperties) {
  PropertyChecker wrapper = abstracted("always (!ds || (!rdy until rdy)) @Tb");
  EXPECT_EQ(wrapper.lifetime(), 0u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 0u);  // grows on demand
}

TEST(Wrapper, LifetimeUsesLongestPath) {
  PropertyChecker wrapper =
      abstracted("always (!ds || (next_e[1,30](a) && next_e[2,50](b))) @Tb");
  EXPECT_EQ(wrapper.lifetime(), 5u);
}

TEST(Wrapper, LifetimeRoundsUpNonMultipleWindows) {
  // eps = 25 at a 10 ns clock: truncating division would size the pool at 2
  // and miss the instant covering the final partial period; the lifetime
  // must be ceil(25/10) = 3.
  const psl::TlmProperty q = tlm("always (!ds || next_e[1,25](rdy)) @Tb");
  PropertyChecker wrapper(q.name, q.formula, q.context.guard,
                          /*clock_period_ns=*/10);
  EXPECT_EQ(wrapper.lifetime(), 3u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 3u);

  const LifetimeInfo info = compute_lifetime(q.formula, 10);
  EXPECT_TRUE(info.bounded);
  EXPECT_EQ(info.instants, 3u);
  EXPECT_EQ(info.max_eps, 25u);
}

// ---- Sec. IV points 2-4: evaluation, reuse, activation ---------------------------------

TEST(Wrapper, PassingScenarioQ3) {
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,170](rdy)) @Tb");
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 110, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 270, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().activations, 3u);
  // All three sessions resolved: two trivially (ds low), one at 270 ns.
  EXPECT_EQ(wrapper.stats().holds, 3u);
}

TEST(Wrapper, MissedEvaluationPointRaisesFailureAtNextTransaction) {
  // Fig. 5: an instance expected at t_fire+170 whose instant passes without
  // a transaction fails when the next (later) transaction arrives.
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,170](rdy)) @Tb");
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 350, {{"ds", 0}, {"rdy", 1}});  // 270 was missed
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  EXPECT_EQ(wrapper.failures()[0].time, 350u);
}

TEST(Wrapper, EarlyTransactionsAreNotConsumed) {
  // Transactions before t_fire+eps must not consume the evaluation point.
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,170](rdy)) @Tb");
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 150, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 200, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 270, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
}

TEST(Wrapper, InstancesAreRecycled) {
  PropertyChecker wrapper = abstracted("always (!ds || next_e[1,20](rdy)) @Tb");
  // Many sessions, all trivially true: the pool (2 instances) must serve all
  // of them through reuse.
  for (int i = 0; i < 50; ++i) {
    transaction(wrapper, 10 * (i + 1), {{"ds", 0}, {"rdy", 0}});
  }
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().activations, 50u);
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);  // never grew
  EXPECT_GE(wrapper.stats().reuses, 48u);
}

TEST(Wrapper, EvaluationTableOnlyWakesDueInstances) {
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,170](rdy)) @Tb");
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  const uint64_t steps_after_firing = wrapper.stats().steps;
  // Early transactions: the scheduled instance must not be stepped at all.
  transaction(wrapper, 110, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 120, {{"ds", 0}, {"rdy", 0}});
  // Each early transaction costs exactly one step: the (trivially resolved)
  // new activation; the pending instance sleeps in the table.
  EXPECT_EQ(wrapper.stats().steps, steps_after_firing + 2);
  transaction(wrapper, 270, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
}

TEST(Wrapper, TransactionContextGuardGatesActivation) {
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,20](rdy)) @Tb && monitor_en");
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}, {"monitor_en", 0}});
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}, {"monitor_en", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().activations, 1u);  // only the guarded-in event
}

TEST(Wrapper, DenseUntilInstancesSeeEveryTransaction) {
  PropertyChecker wrapper = abstracted("always (!ds || (!rdy until rdy)) @Tb");
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}});
  transaction(wrapper, 30, {{"ds", 0}, {"rdy", 1}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().holds, 3u);
}

TEST(Wrapper, DetectsWrongTlmImplementation) {
  // rdy arrives on time but out is 0: the data check fails.
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,30](out != 0)) @Tb");
  transaction(wrapper, 10, {{"ds", 1}, {"out", 0}});
  transaction(wrapper, 40, {{"ds", 0}, {"out", 0}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
}

TEST(Wrapper, UncompletedInstancesAreNotFailures) {
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,170](rdy)) @Tb");
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});
  wrapper.finish();  // simulation ends before the evaluation point
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().holds, 1u);  // weakly satisfied at truncation
}

TEST(Wrapper, EventuallyStrongFailsAtFinish) {
  PropertyChecker wrapper = abstracted("always (!ds || eventually! rdy) @Tb");
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
}

TEST(Wrapper, MissedDeadlineStrictlyBeforeNextTransaction) {
  // Two pending instances with different deadlines; the next transaction
  // arrives after the earlier deadline but exactly on the later one. Only
  // the earlier instance missed its evaluation point.
  PropertyChecker wrapper = abstracted("always (!ds || next_e[1,40](rdy)) @Tb");
  transaction(wrapper, 100, {{"ds", 1}, {"rdy", 0}});  // deadline 140
  transaction(wrapper, 150, {{"ds", 1}, {"rdy", 0}});  // 140 missed; dl 190
  transaction(wrapper, 190, {{"ds", 0}, {"rdy", 1}});  // 190 met on time
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  // The miss is detected (and logged) at the transaction that exposed it.
  EXPECT_EQ(wrapper.failures()[0].time, 150u);
  EXPECT_EQ(wrapper.stats().holds, 2u);  // the on-time instance + trivial
}

TEST(Wrapper, EndOfSimDenseFailureLoggedAtLastEventTime) {
  // A strong obligation that fails at end-of-sim must be attributed to the
  // last observed transaction time, not t=0.
  PropertyChecker wrapper = abstracted("always (!ds || eventually! rdy) @Tb");
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  transaction(wrapper, 250, {{"ds", 0}, {"rdy", 0}});
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  EXPECT_EQ(wrapper.failures()[0].time, 250u);
}

TEST(Wrapper, EndOfSimTableFailureNotReportedAfterLastEvent) {
  // A scheduled instance whose deadline (60) lies beyond the end of the
  // trace and that resolves false at finish() must not be reported at a
  // time later than the last observed transaction.
  PropertyChecker wrapper =
      abstracted("q: always (!ds || !next_e[1,50](rdy)) @Tb");
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});
  wrapper.finish();  // next_e resolves weakly true; the negation fails
  EXPECT_EQ(wrapper.stats().failures, 1u);
  ASSERT_EQ(wrapper.failures().size(), 1u);
  EXPECT_EQ(wrapper.failures()[0].time, 10u);
}

TEST(Wrapper, UnboundedFreePoolIsCappedAtActiveHighWaterMark) {
  // Until-based property: the pool must not retain more instances than were
  // ever live at once. Instance A goes dense and a second instance B is
  // activated next to it (two live), then A retires; every later session
  // reuses one of those two instances instead of allocating.
  PropertyChecker wrapper = abstracted("always (!ds || (!rdy until rdy)) @Tb");
  transaction(wrapper, 10, {{"ds", 1}, {"rdy", 0}});  // A allocated, dense
  EXPECT_EQ(wrapper.stats().pool_capacity, 1u);
  transaction(wrapper, 20, {{"ds", 0}, {"rdy", 0}});  // B allocated, trivial
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
  transaction(wrapper, 30, {{"ds", 0}, {"rdy", 1}});  // A resolves
  for (psl::TimeNs t = 40; t <= 200; t += 10) {
    transaction(wrapper, t, {{"ds", t % 40 == 0 ? 1u : 0u}, {"rdy", 1}});
  }
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().failures, 0u);
  EXPECT_EQ(wrapper.stats().activations, 20u);
  EXPECT_EQ(wrapper.stats().reuses, 18u);
  // Live instances (pooled, nothing active) match the high-water mark.
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
}

TEST(Wrapper, BoundedPoolIsNeverDropped) {
  // Time-scheduled properties keep their statically sized pool.
  PropertyChecker wrapper = abstracted("always (!ds || next_e[1,20](rdy)) @Tb");
  for (int i = 0; i < 20; ++i) {
    transaction(wrapper, 10 * (i + 1), {{"ds", 0}, {"rdy", 0}});
  }
  wrapper.finish();
  EXPECT_EQ(wrapper.stats().pool_capacity, 2u);
}

TEST(Wrapper, TablePeakTracksConcurrentScheduledInstances) {
  PropertyChecker wrapper =
      abstracted("always (!ds || next_e[1,170](rdy)) @Tb");
  for (int i = 0; i < 5; ++i) {
    transaction(wrapper, 10 * (i + 1), {{"ds", 1}, {"rdy", 0}});
  }
  EXPECT_EQ(wrapper.stats().table_peak, 5u);
  wrapper.finish();
}

}  // namespace
}  // namespace repro::checker
