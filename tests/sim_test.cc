#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/signal.h"
#include "sim/trace.h"

namespace repro::sim {
namespace {

TEST(Kernel, RunsTimedEventsInOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(30, [&] { order.push_back(3); });
  kernel.schedule_at(10, [&] { order.push_back(1); });
  kernel.schedule_at(20, [&] { order.push_back(2); });
  kernel.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.now(), 30u);
}

TEST(Kernel, FifoWithinTimestamp) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(10, [&] { order.push_back(1); });
  kernel.schedule_at(10, [&] { order.push_back(2); });
  kernel.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, RunStopsAtLimit) {
  Kernel kernel;
  int hits = 0;
  kernel.schedule_at(10, [&] { ++hits; });
  kernel.schedule_at(20, [&] { ++hits; });
  kernel.schedule_at(30, [&] { ++hits; });
  kernel.run(20);
  EXPECT_EQ(hits, 2);
  kernel.run(100);
  EXPECT_EQ(hits, 3);
}

TEST(Kernel, StopEndsSimulation) {
  Kernel kernel;
  int hits = 0;
  kernel.schedule_at(10, [&] {
    ++hits;
    kernel.stop();
  });
  kernel.schedule_at(20, [&] { ++hits; });
  kernel.run_all();
  EXPECT_EQ(hits, 1);
  kernel.run_all();  // resumes after stop
  EXPECT_EQ(hits, 2);
}

TEST(Kernel, EventsScheduledAtCurrentTimeRunInSameTimestamp) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(10, [&] {
    order.push_back(1);
    kernel.schedule_at(10, [&] { order.push_back(2); });
  });
  kernel.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(kernel.now(), 10u);
}

TEST(Signal, WriteCommitsInUpdatePhase) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  int observed_during_evaluate = -1;
  kernel.schedule_at(5, [&] {
    s.write(42);
    observed_during_evaluate = s.read();  // old value: not yet committed
  });
  kernel.run_all();
  EXPECT_EQ(observed_during_evaluate, 0);
  EXPECT_EQ(s.read(), 42);
}

TEST(Signal, LastWriteInDeltaWins) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  kernel.schedule_at(5, [&] {
    s.write(1);
    s.write(2);
  });
  kernel.run_all();
  EXPECT_EQ(s.read(), 2);
}

TEST(Signal, WatcherRunsAfterCommit) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  int seen = -1;
  s.on_change([&] { seen = s.read(); });
  kernel.schedule_at(5, [&] { s.write(9); });
  kernel.run_all();
  EXPECT_EQ(seen, 9);
}

TEST(Signal, NoNotificationOnSameValueWrite) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 7);
  int notifications = 0;
  s.on_change([&] { ++notifications; });
  kernel.schedule_at(5, [&] { s.write(7); });
  kernel.run_all();
  EXPECT_EQ(notifications, 0);
}

TEST(Signal, CascadedWatchersUseDeltas) {
  Kernel kernel;
  Signal<int> a(kernel, "a", 0);
  Signal<int> b(kernel, "b", 0);
  a.on_change([&] { b.write(a.read() + 1); });
  int b_seen = -1;
  b.on_change([&] { b_seen = b.read(); });
  kernel.schedule_at(5, [&] { a.write(10); });
  kernel.run_all();
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(b_seen, 11);
  EXPECT_EQ(kernel.now(), 5u);  // all within one timestamp
}

TEST(Clock, GeneratesPeriodicRisingEdges) {
  Kernel kernel;
  Clock clock(kernel, "clk", 10, 0);
  std::vector<Time> edges;
  clock.on_posedge([&] { edges.push_back(kernel.now()); });
  kernel.run(35);
  EXPECT_EQ(edges, (std::vector<Time>{0, 10, 20, 30}));
  EXPECT_EQ(clock.cycles(), 4u);
}

TEST(Clock, NegedgeFallsMidPeriod) {
  Kernel kernel;
  Clock clock(kernel, "clk", 10, 0);
  std::vector<Time> falls;
  clock.on_negedge([&] { falls.push_back(kernel.now()); });
  kernel.run(25);
  EXPECT_EQ(falls, (std::vector<Time>{5, 15, 25}));
}

TEST(Clock, PosedgeCallbacksShareTheEvaluatePhase) {
  // A signal written by the first posedge callback must not be visible to
  // the second one in the same edge (register semantics).
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  Clock clock(kernel, "clk", 10, 0);
  int second_saw = -1;
  clock.on_posedge([&] { s.write(static_cast<int>(kernel.now())); });
  clock.on_posedge([&] { second_saw = s.read(); });
  kernel.run(10);  // edges at 0 and 10
  EXPECT_EQ(second_saw, 0);  // at edge 10, sees value committed at edge 0
}

TEST(ChangeLog, RecordsCommittedChangesWithTime) {
  Kernel kernel;
  Signal<uint64_t> s(kernel, "data", 1);
  ChangeLog log(kernel);
  log.watch(s);
  kernel.schedule_at(10, [&] { s.write(2); });
  kernel.schedule_at(20, [&] { s.write(2); });  // no change
  kernel.schedule_at(30, [&] { s.write(3); });
  kernel.run_all();
  const auto changes = log.for_signal("data");
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0], (Change{0, "data", 1}));
  EXPECT_EQ(changes[1], (Change{10, "data", 2}));
  EXPECT_EQ(changes[2], (Change{30, "data", 3}));
}

TEST(ChangeLog, ExplicitRecordCollapsesRepeats) {
  Kernel kernel;
  ChangeLog log(kernel);
  log.record(5, "x", 1);
  log.record(10, "x", 1);  // collapsed
  log.record(15, "x", 0);
  EXPECT_EQ(log.for_signal("x").size(), 2u);
}

TEST(Kernel, CountsEventsAndDeltas) {
  Kernel kernel;
  Signal<int> s(kernel, "s", 0);
  s.on_change([] {});
  kernel.schedule_at(5, [&] { s.write(1); });
  kernel.run_all();
  EXPECT_GE(kernel.events_executed(), 2u);  // writer + watcher
  EXPECT_GE(kernel.delta_cycles(), 2u);
}

}  // namespace
}  // namespace repro::sim
