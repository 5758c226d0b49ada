#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.h"
#include "tlm/recorder.h"
#include "tlm/socket.h"
#include "tlm/transaction.h"

namespace repro::tlm {
namespace {

// ---- Recorder -------------------------------------------------------------------

TEST(Recorder, DeliversAtCompletionTimeInOrder) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  std::vector<sim::Time> delivered;
  recorder.subscribe([&](const TransactionRecord& record) {
    delivered.push_back(record.end);
    EXPECT_EQ(kernel.now(), record.end);
  });
  kernel.schedule_at(10, [&] {
    TransactionRecord late;
    late.end = 50;
    recorder.emit(late);
    TransactionRecord early;
    early.end = 20;
    recorder.emit(early);
  });
  kernel.run_all();
  EXPECT_EQ(delivered, (std::vector<sim::Time>{20, 50}));
  EXPECT_EQ(recorder.transactions(), 2u);
}

TEST(Recorder, InactiveWithoutListeners) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  EXPECT_FALSE(recorder.active());
  recorder.subscribe([](const TransactionRecord&) {});
  EXPECT_TRUE(recorder.active());
}

TEST(Recorder, CountOnlyTracksUnmaterializedTransactions) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  recorder.count();
  recorder.count();
  EXPECT_EQ(recorder.transactions(), 2u);
}

// ---- Socket ---------------------------------------------------------------------

// Target that accepts writes with a fixed latency and echoes data on reads.
class EchoTarget : public TargetIf {
 public:
  void b_transport(Payload& payload, sim::Time& delay) override {
    saw_monitored = payload.monitored;
    if (payload.command == Command::kWrite) {
      stored = payload.data;
      delay += 30;
    } else {
      payload.data = stored;
      delay += 5;
    }
    payload.response = Response::kOk;
  }

  std::vector<uint64_t> stored;
  bool saw_monitored = false;
};

TEST(Socket, TransportReturnsCompletionTime) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  EchoTarget target;
  InitiatorSocket socket(kernel, &recorder, "test");
  socket.bind(target);
  kernel.schedule_at(100, [&] {
    Payload write;
    write.command = Command::kWrite;
    write.data = {1, 2, 3};
    EXPECT_EQ(socket.transport(write), 130u);
  });
  kernel.run_all();
  EXPECT_EQ(recorder.transactions(), 1u);
}

TEST(Socket, TemporalDecouplingAccumulatesDelay) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  std::vector<std::pair<sim::Time, sim::Time>> spans;
  recorder.subscribe([&](const TransactionRecord& r) {
    spans.push_back({r.start, r.end});
  });
  EchoTarget target;
  InitiatorSocket socket(kernel, &recorder, "test");
  socket.bind(target);
  kernel.schedule_at(100, [&] {
    // Two writes issued from one kernel event with local offsets 0 and 10.
    Payload a;
    a.command = Command::kWrite;
    sim::Time da = 0;
    EXPECT_EQ(socket.transport(a, da), 130u);
    Payload b;
    b.command = Command::kWrite;
    sim::Time db = 10;
    EXPECT_EQ(socket.transport(b, db), 140u);
    EXPECT_EQ(db, 40u);  // 10 local + 30 target latency
  });
  kernel.run_all();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (std::pair<sim::Time, sim::Time>{100, 130}));
  EXPECT_EQ(spans[1], (std::pair<sim::Time, sim::Time>{110, 140}));
}

TEST(Socket, MonitoredFlagFollowsRecorderState) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  EchoTarget target;
  InitiatorSocket socket(kernel, &recorder, "test");
  socket.bind(target);
  kernel.schedule_at(10, [&] {
    Payload p;
    p.command = Command::kWrite;
    socket.transport(p);
    EXPECT_FALSE(target.saw_monitored);  // no listeners yet
  });
  kernel.run(10);
  recorder.subscribe([](const TransactionRecord&) {});
  kernel.schedule_at(20, [&] {
    Payload p;
    p.command = Command::kWrite;
    socket.transport(p);
    EXPECT_TRUE(target.saw_monitored);
  });
  kernel.run_all();
}

TEST(Socket, SilentPhasesAreCountedButNotDelivered) {
  sim::Kernel kernel;
  TransactionRecorder recorder(kernel);
  size_t delivered = 0;
  recorder.subscribe([&](const TransactionRecord&) { ++delivered; });
  EchoTarget target;
  InitiatorSocket socket(kernel, &recorder, "test");
  socket.bind(target);
  kernel.schedule_at(10, [&] {
    Payload loud;
    loud.command = Command::kWrite;
    socket.transport(loud);
    Payload silent;
    silent.command = Command::kWrite;
    silent.record = false;
    socket.transport(silent);
  });
  kernel.run_all();
  EXPECT_EQ(recorder.transactions(), 2u);
  EXPECT_EQ(delivered, 1u);
}

TEST(Socket, UnboundSocketReportsNotBound) {
  sim::Kernel kernel;
  InitiatorSocket socket(kernel, nullptr, "test");
  EXPECT_FALSE(socket.bound());
  EchoTarget target;
  socket.bind(target);
  EXPECT_TRUE(socket.bound());
}

TEST(Socket, ReadEchoesWrittenData) {
  sim::Kernel kernel;
  EchoTarget target;
  InitiatorSocket socket(kernel, nullptr, "test");
  socket.bind(target);
  kernel.schedule_at(10, [&] {
    Payload write;
    write.command = Command::kWrite;
    write.data = {7, 8};
    socket.transport(write);
    Payload read;
    read.command = Command::kRead;
    socket.transport(read);
    EXPECT_EQ(read.data, (std::vector<uint64_t>{7, 8}));
  });
  kernel.run_all();
}

}  // namespace
}  // namespace repro::tlm
