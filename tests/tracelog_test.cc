// support::tracelog: on-disk format round trips, corrupt-input rejection
// with distinct error kinds, and record-then-replay equivalence against the
// live simulation (the RecordSource ingest redesign's core guarantee).
#include "support/tracelog.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "models/testbench.h"
#include "psl/parser.h"
#include "tlm/record_source.h"
#include "tlm/transaction.h"

namespace repro {
namespace {

using support::tracelog::TraceError;
using support::tracelog::TraceReader;
using support::tracelog::TraceReplaySource;
using support::tracelog::TraceWriter;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::shared_ptr<const support::Snapshot::Keys> test_keys() {
  return std::make_shared<const support::Snapshot::Keys>(
      support::Snapshot::Keys{"ds", "rdy", "out"});
}

tlm::RecordStreamMeta test_meta() {
  tlm::RecordStreamMeta meta;
  meta.design = "DES56";
  meta.level = "TLM-AT";
  meta.clock_period_ns = 10;
  return meta;
}

std::vector<tlm::TransactionRecord> test_records(size_t n) {
  auto keys = test_keys();
  std::vector<tlm::TransactionRecord> records;
  for (size_t i = 0; i < n; ++i) {
    tlm::TransactionRecord r;
    r.start = 10 * i;
    r.end = 10 * i + 7;
    r.command = i % 2 == 0 ? tlm::Command::kWrite : tlm::Command::kRead;
    r.response = tlm::Response::kOk;
    r.address = 0x100 + i;
    r.data = {i, ~i};
    r.observables = support::Snapshot(keys);
    r.observables.set_at(0, i % 2);
    r.observables.set_at(1, i % 3);
    r.observables.set_at(2, 0xdead0000 + i);
    records.push_back(std::move(r));
  }
  return records;
}

// Writes `n` records into `path`, `frame_records` per frame.
void write_log(const std::string& path, size_t n, size_t frame_records = 256) {
  TraceWriter writer(path, test_meta(), frame_records);
  for (const tlm::TransactionRecord& r : test_records(n)) writer.append(r);
  ASSERT_TRUE(writer.finish()) << writer.error();
}

void expect_same_records(const std::vector<tlm::TransactionRecord>& got,
                         const std::vector<tlm::TransactionRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].start, want[i].start) << i;
    EXPECT_EQ(got[i].end, want[i].end) << i;
    EXPECT_EQ(got[i].command, want[i].command) << i;
    EXPECT_EQ(got[i].response, want[i].response) << i;
    EXPECT_EQ(got[i].address, want[i].address) << i;
    EXPECT_EQ(got[i].data, want[i].data) << i;
    ASSERT_EQ(got[i].observables.size(), want[i].observables.size()) << i;
    for (size_t k = 0; k < want[i].observables.size(); ++k) {
      EXPECT_EQ((*got[i].observables.keys())[k],
                (*want[i].observables.keys())[k]);
      EXPECT_EQ(got[i].observables.at(k), want[i].observables.at(k)) << i;
    }
  }
}

TEST(TracelogFormat, PathPicksEncoding) {
  EXPECT_EQ(support::tracelog::format_for_path("x.rtabv"),
            support::tracelog::Format::kBinary);
  EXPECT_EQ(support::tracelog::format_for_path("x"),
            support::tracelog::Format::kBinary);
  EXPECT_EQ(support::tracelog::format_for_path("x.jsonl"),
            support::tracelog::Format::kJsonl);
}

TEST(TracelogFormat, BinaryRoundTrip) {
  const std::string path = temp_path("roundtrip.rtabv");
  write_log(path, 10, /*frame_records=*/4);  // 4+4+2: three frames
  TraceReader reader;
  ASSERT_FALSE(reader.open(path).has_value());
  EXPECT_EQ(reader.meta().design, "DES56");
  EXPECT_EQ(reader.meta().level, "TLM-AT");
  EXPECT_EQ(reader.meta().clock_period_ns, 10u);
  EXPECT_EQ(reader.meta().observables, *test_keys());
  EXPECT_EQ(reader.frame_sizes(), (std::vector<size_t>{4, 4, 2}));
  expect_same_records(reader.records(), test_records(10));
}

TEST(TracelogFormat, JsonlRoundTrip) {
  const std::string path = temp_path("roundtrip.jsonl");
  write_log(path, 5);
  // The debug encoding is line-oriented text: meta line + one line/record.
  const std::string text = slurp(path);
  EXPECT_EQ(text.compare(0, 1, "{"), 0);
  TraceReader reader;
  ASSERT_FALSE(reader.open(path).has_value());
  EXPECT_EQ(reader.meta().observables, *test_keys());
  expect_same_records(reader.records(), test_records(5));
}

TEST(TracelogFormat, EmptyStreamRoundTrip) {
  const std::string path = temp_path("empty.rtabv");
  TraceWriter writer(path, test_meta());
  ASSERT_TRUE(writer.finish()) << writer.error();
  TraceReader reader;
  ASSERT_FALSE(reader.open(path).has_value());
  EXPECT_TRUE(reader.records().empty());
  EXPECT_EQ(reader.meta().design, "DES56");
}

TEST(TracelogFormat, WriteSpanFramesPerSegment) {
  const std::string path = temp_path("spans.rtabv");
  const std::vector<tlm::TransactionRecord> records = test_records(10);
  TraceWriter writer(path, test_meta());
  writer.write_span(records.data(), records.data() + 7);
  writer.write_span(records.data() + 7, records.data() + 10);
  ASSERT_TRUE(writer.finish()) << writer.error();
  TraceReader reader;
  ASSERT_FALSE(reader.open(path).has_value());
  // One frame per sealed segment, mirroring the live engine's batching.
  EXPECT_EQ(reader.frame_sizes(), (std::vector<size_t>{7, 3}));
  expect_same_records(reader.records(), records);
}

TEST(TracelogFormat, WriterAdoptsDictionaryFromFirstRecord) {
  const std::string path = temp_path("adopt.rtabv");
  tlm::RecordStreamMeta meta = test_meta();
  meta.observables.clear();  // adopt from the stream
  TraceWriter writer(path, meta);
  for (const tlm::TransactionRecord& r : test_records(3)) writer.append(r);
  ASSERT_TRUE(writer.finish()) << writer.error();
  TraceReader reader;
  ASSERT_FALSE(reader.open(path).has_value());
  EXPECT_EQ(reader.meta().observables, *test_keys());
}

TEST(TracelogFormat, WriterRejectsInconsistentKeyTable) {
  const std::string path = temp_path("inconsistent.rtabv");
  TraceWriter writer(path, test_meta());
  std::vector<tlm::TransactionRecord> records = test_records(1);
  writer.append(records[0]);
  tlm::TransactionRecord odd;
  odd.observables = support::Snapshot(
      std::make_shared<const support::Snapshot::Keys>(
          support::Snapshot::Keys{"other"}));
  writer.append(odd);
  EXPECT_FALSE(writer.finish());
  EXPECT_NE(writer.error().find("key table"), std::string::npos);
}

TEST(TracelogErrors, MissingFileIsIo) {
  TraceReader reader;
  auto err = reader.open(temp_path("does_not_exist.rtabv"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kIo);
}

TEST(TracelogErrors, ShortMagicIsTruncated) {
  const std::string path = temp_path("shortmagic.rtabv");
  spit(path, "RTAB");
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kTruncated);
}

TEST(TracelogErrors, WrongMagicIsBadMagic) {
  const std::string path = temp_path("badmagic.rtabv");
  spit(path, "NOTALOG!garbage beyond the magic");
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kBadMagic);
}

TEST(TracelogErrors, FutureVersionIsUnsupported) {
  const std::string path = temp_path("future.rtabv");
  write_log(path, 2);
  std::string bytes = slurp(path);
  bytes[8] = 99;  // schema_version LSB (little-endian u32 after the magic)
  spit(path, bytes);
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kUnsupportedVersion);
  EXPECT_NE(err->message.find("99"), std::string::npos);
}

TEST(TracelogErrors, FlippedMetaByteIsCrcMismatch) {
  const std::string path = temp_path("metacrc.rtabv");
  write_log(path, 2);
  std::string bytes = slurp(path);
  // 8 magic + 4 version + 1 endian + 4 meta length, then the meta payload.
  bytes[17] ^= 0x40;
  spit(path, bytes);
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kCrcMismatch);
}

TEST(TracelogErrors, FlippedRecordByteIsCrcMismatch) {
  const std::string path = temp_path("framecrc.rtabv");
  write_log(path, 4);
  std::string bytes = slurp(path);
  // The trailer is the last 13 bytes ('E' + u64 + u32); flip a record byte
  // well inside the single record frame just before it.
  bytes[bytes.size() - 20] ^= 0x01;
  spit(path, bytes);
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kCrcMismatch);
}

TEST(TracelogErrors, ChoppedTrailerIsTruncated) {
  const std::string path = temp_path("chopped.rtabv");
  write_log(path, 4);
  std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 13));  // drop the trailer frame
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kTruncated);
}

TEST(TracelogErrors, ChoppedRecordFrameIsTruncated) {
  const std::string path = temp_path("midframe.rtabv");
  write_log(path, 4);
  std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 30));  // ends inside the frame
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kTruncated);
}

TEST(TracelogErrors, TrailingBytesAreCorrupt) {
  const std::string path = temp_path("trailing.rtabv");
  write_log(path, 2);
  spit(path, slurp(path) + "x");
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kCorrupt);
}

TEST(TracelogErrors, JsonlWithoutMetaIsBadMagic) {
  const std::string path = temp_path("nometa.jsonl");
  spit(path, "{\"start\":0,\"end\":1}\n");
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kBadMagic);
}

TEST(TracelogErrors, MalformedJsonlRecordIsCorrupt) {
  const std::string path = temp_path("badline.jsonl");
  write_log(path, 1);
  spit(path, slurp(path) + "{\"start\":}\n");
  TraceReader reader;
  auto err = reader.open(path);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kCorrupt);
}

// Reads `path` and returns the rejection kind (fails the test on success).
TraceError::Kind reject_kind(const std::string& path) {
  TraceReader reader;
  std::optional<TraceError> err = reader.open(path);
  EXPECT_TRUE(err.has_value()) << path << " was accepted";
  return err.has_value() ? err->kind : TraceError::Kind::kIo;
}

TEST(TracelogErrors, RecordWithoutRowIsCorrupt) {
  // Binary: the has-observables flag is clear on a record of a log whose
  // dictionary is non-empty, so checkers would find no column to read.
  tlm::RecordStreamMeta meta = test_meta();
  meta.observables = *test_keys();
  std::vector<tlm::TransactionRecord> records = test_records(3);
  records[1].observables = support::Snapshot();
  const std::string path = temp_path("norow.rtabv");
  {
    TraceWriter writer(path, meta);
    for (const tlm::TransactionRecord& r : records) writer.append(r);
    ASSERT_TRUE(writer.finish()) << writer.error();
  }
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);

  // Without a dictionary, rowless records are the whole stream and valid.
  const std::string bare = temp_path("bare.rtabv");
  {
    TraceWriter writer(bare, test_meta());
    writer.append(records[1]);
    ASSERT_TRUE(writer.finish()) << writer.error();
  }
  TraceReader reader;
  EXPECT_FALSE(reader.open(bare).has_value());
}

const char kJsonlMeta[] =
    "{\"schema_version\":1,\"design\":\"DES56\",\"level\":\"TLM-AT\","
    "\"clock_period_ns\":10,\"observables\":[\"ds\",\"rdy\"]}\n";

std::string jsonl_record(uint64_t end, const std::string& observables) {
  return "{\"start\":" + std::to_string(end) + ",\"end\":" +
         std::to_string(end) +
         ",\"command\":0,\"response\":0,\"address\":0,\"data\":[]" +
         observables + "}\n";
}

TEST(TracelogErrors, JsonlRecordWithoutRowIsCorrupt) {
  const std::string path = temp_path("norow.jsonl");
  spit(path, kJsonlMeta +
                 jsonl_record(10, ",\"observables\":{\"ds\":1,\"rdy\":0}") +
                 jsonl_record(20, ""));
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);
}

TEST(TracelogErrors, JsonlRecordMissingObservableIsCorrupt) {
  // Dropping a name must not read its column as 0.
  const std::string path = temp_path("partialrow.jsonl");
  spit(path, kJsonlMeta + jsonl_record(10, ",\"observables\":{\"ds\":1}"));
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);
  // Repeating one name does not make up for the other.
  spit(path, kJsonlMeta +
                 jsonl_record(10, ",\"observables\":{\"ds\":1,\"ds\":0}"));
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);
}

TEST(TracelogErrors, JsonlNonUnsignedFieldIsCorrupt) {
  // Integer fields take plain unsigned tokens only: a negative, fractional
  // or exponent number is refused, never cast (-10 ns would read as
  // 2^64 - 10).
  const std::string path = temp_path("signed.jsonl");
  std::string meta = kJsonlMeta;
  meta.replace(meta.find(":10,"), 4, ":-10,");
  spit(path, meta);
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);
  const std::string row = ",\"observables\":{\"ds\":1,\"rdy\":0}";
  std::string fractional = jsonl_record(10, row);
  fractional.replace(fractional.find("\"end\":10"), 8, "\"end\":1.5");
  spit(path, kJsonlMeta + fractional);
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);
  spit(path, kJsonlMeta +
                 jsonl_record(10, ",\"observables\":{\"ds\":-1,\"rdy\":0}"));
  EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt);
  spit(path, kJsonlMeta + jsonl_record(10, row));
  TraceReader reader;
  EXPECT_FALSE(reader.open(path).has_value());
}

TEST(TracelogErrors, DecreasingEndIsCorrupt) {
  std::vector<tlm::TransactionRecord> records = test_records(6);
  std::swap(records[2], records[4]);
  for (const std::string name : {"backwards.rtabv", "backwards.jsonl"}) {
    const std::string path = temp_path(name);
    {
      TraceWriter writer(path, test_meta());
      for (const tlm::TransactionRecord& r : records) writer.append(r);
      ASSERT_TRUE(writer.finish()) << writer.error();
    }
    EXPECT_EQ(reject_kind(path), TraceError::Kind::kCorrupt) << name;
  }
  // Equal end times are in order (transactions may complete together).
  const std::string path = temp_path("ties.jsonl");
  spit(path, kJsonlMeta +
                 jsonl_record(10, ",\"observables\":{\"ds\":1,\"rdy\":0}") +
                 jsonl_record(10, ",\"observables\":{\"rdy\":1,\"ds\":0}"));
  TraceReader reader;
  EXPECT_FALSE(reader.open(path).has_value());
}

TEST(TracelogErrors, KindStringsAreDistinct) {
  const TraceError::Kind kinds[] = {
      TraceError::Kind::kIo,           TraceError::Kind::kBadMagic,
      TraceError::Kind::kUnsupportedVersion, TraceError::Kind::kTruncated,
      TraceError::Kind::kCrcMismatch,  TraceError::Kind::kCorrupt,
      TraceError::Kind::kMetaMismatch};
  std::vector<std::string> names;
  for (TraceError::Kind k : kinds) names.push_back(to_string(k));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(TracelogMeta, ValidateChecksIdentity) {
  tlm::RecordStreamMeta actual = test_meta();
  actual.observables = *test_keys();
  tlm::RecordStreamMeta expected = actual;
  EXPECT_FALSE(
      support::tracelog::validate_meta(actual, expected).has_value());

  // The dictionary is compared as a set: container iteration order is a
  // producer detail (RTL bags sort, TLM tables are declaration-ordered).
  expected.observables = {"rdy", "out", "ds"};
  EXPECT_FALSE(
      support::tracelog::validate_meta(actual, expected).has_value());

  expected.observables = {"rdy", "out"};
  auto err = support::tracelog::validate_meta(actual, expected);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kMetaMismatch);

  expected = actual;
  expected.design = "ColorConv";
  err = support::tracelog::validate_meta(actual, expected);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kMetaMismatch);

  expected = actual;
  expected.clock_period_ns = 20;
  err = support::tracelog::validate_meta(actual, expected);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, TraceError::Kind::kMetaMismatch);

  // Unset expectations (empty design/level, zero clock) match anything.
  expected = tlm::RecordStreamMeta{};
  expected.observables = actual.observables;
  EXPECT_FALSE(
      support::tracelog::validate_meta(actual, expected).has_value());
}

TEST(TracelogMeta, ReadMetaParsesHeaderOnly) {
  const std::string path = temp_path("metaonly.rtabv");
  write_log(path, 3);
  tlm::RecordStreamMeta meta;
  ASSERT_FALSE(support::tracelog::read_meta(path, meta).has_value());
  EXPECT_EQ(meta.design, "DES56");
  EXPECT_EQ(meta.observables, *test_keys());
}

TEST(TracelogSource, ReplaySourceMirrorsFrames) {
  const std::string path = temp_path("source.rtabv");
  write_log(path, 10, /*frame_records=*/4);
  TraceReader reader;
  ASSERT_FALSE(reader.open(path).has_value());
  TraceReplaySource source(std::move(reader));
  EXPECT_EQ(source.meta().design, "DES56");
  std::vector<size_t> spans;
  size_t total = 0;
  for (tlm::RecordSpan span = source.next(); !span.empty();
       span = source.next()) {
    spans.push_back(span.size());
    total += span.size();
  }
  EXPECT_EQ(spans, (std::vector<size_t>{4, 4, 2}));
  EXPECT_EQ(total, 10u);
  EXPECT_TRUE(source.next().empty());  // stays exhausted
}

// ---- Record-then-replay equivalence ---------------------------------------

// The reports must match byte for byte with the timing block excluded, which
// is exactly write_json without a ReportTiming argument.
std::string report_json(const models::RunResult& result) {
  std::ostringstream os;
  result.report.write_json(os, nullptr);
  return os.str();
}

models::RunConfig replay_config(const models::RunConfig& recorded,
                                const std::string& log, size_t jobs) {
  models::RunConfig config = recorded;
  config.ingest.record_path.clear();
  config.ingest.replay_path = log;
  config.engine.jobs = jobs;
  return config;
}

class ReplayEquivalence : public testing::TestWithParam<size_t> {};

TEST_P(ReplayEquivalence, Des56TlmAtWithWitnessDemo) {
  const std::string log =
      temp_path("des56_at_" + std::to_string(GetParam()) + ".rtabv");
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 120;
  config.checkers = 9;
  config.engine.jobs = GetParam();
  // A deliberately failing property so the equivalence covers failure logs
  // and witness rings, not just counters.
  auto parsed = psl::parse_rtl_property(
      "wdemo: always (!ds || next[1](rdy)) @clk_pos");
  ASSERT_TRUE(parsed.ok());
  config.extra_properties.push_back(std::move(parsed).take());
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;
  ASSERT_GT(live.report.total_failures(), 0u);

  for (size_t replay_jobs : {size_t{1}, size_t{4}}) {
    const models::RunResult replayed =
        models::run_simulation(replay_config(config, log, replay_jobs));
    ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
    EXPECT_EQ(replayed.transactions, live.transactions);
    EXPECT_EQ(report_json(replayed), report_json(live))
        << "replay at jobs=" << replay_jobs;
  }
}

TEST_P(ReplayEquivalence, ColorConvTlmAtWithPrune) {
  const std::string log =
      temp_path("colorconv_at_" + std::to_string(GetParam()) + ".rtabv");
  models::RunConfig config;
  config.design = models::Design::kColorConv;
  config.level = models::Level::kTlmAt;
  config.workload = 200;
  config.checkers = 12;
  config.engine.jobs = GetParam();
  // Derived (pruned) report rows must replay identically too.
  config.analysis = models::AnalysisMode::kOn;
  config.analysis.prune = analysis::PruneMode::kSafe;
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;

  for (size_t replay_jobs : {size_t{1}, size_t{4}}) {
    const models::RunResult replayed =
        models::run_simulation(replay_config(config, log, replay_jobs));
    ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
    EXPECT_EQ(report_json(replayed), report_json(live))
        << "replay at jobs=" << replay_jobs;
  }
}

// TLM-CA: the unabstracted RTL suite checked on the per-cycle transaction
// stream. Records at the fixture's job count, replays at jobs 1 and 4.
void expect_tlm_ca_replay_matches(models::Design design, size_t workload,
                                  size_t jobs) {
  const std::string log = temp_path(std::string(models::to_string(design)) +
                                    "_ca_" + std::to_string(jobs) + ".rtabv");
  models::RunConfig config;
  config.design = design;
  config.level = models::Level::kTlmCa;
  config.workload = workload;
  config.checkers = 12;  // every suite property
  config.engine.jobs = jobs;
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;
  ASSERT_GT(live.report.total_activations(), 0u);

  for (size_t replay_jobs : {size_t{1}, size_t{4}}) {
    const models::RunResult replayed =
        models::run_simulation(replay_config(config, log, replay_jobs));
    ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
    EXPECT_EQ(replayed.transactions, live.transactions);
    EXPECT_EQ(report_json(replayed), report_json(live))
        << "replay at jobs=" << replay_jobs;
  }
}

TEST_P(ReplayEquivalence, Des56TlmCa) {
  expect_tlm_ca_replay_matches(models::Design::kDes56, 60, GetParam());
}

TEST_P(ReplayEquivalence, ColorConvTlmCa) {
  expect_tlm_ca_replay_matches(models::Design::kColorConv, 100, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Jobs, ReplayEquivalence,
                         testing::Values(size_t{1}, size_t{4}));

TEST(ReplayRtl, RecordThenReplayMatchesAndRoundTrips) {
  const std::string log = temp_path("des56_rtl.rtabv");
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kRtl;
  config.workload = 60;
  config.checkers = 9;
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;

  // Replay while re-recording: the checker report matches the live run and
  // the re-recorded log is byte-identical (same records, same framing).
  const std::string rerecorded = temp_path("des56_rtl_rt.rtabv");
  models::RunConfig replay = replay_config(config, log, 1);
  replay.ingest.record_path = rerecorded;
  const models::RunResult replayed = models::run_simulation(replay);
  ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
  EXPECT_EQ(report_json(replayed), report_json(live));
  EXPECT_EQ(slurp(rerecorded), slurp(log));
}

TEST(ReplayTlmAt, RecordThenReplayMatchesAndRoundTrips) {
  const std::string log = temp_path("des56_at_rt_src.rtabv");
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 60;
  config.checkers = 9;
  auto parsed = psl::parse_rtl_property(
      "wdemo: always (!ds || next[1](rdy)) @clk_pos");
  ASSERT_TRUE(parsed.ok());
  config.extra_properties.push_back(std::move(parsed).take());
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;
  ASSERT_GT(live.report.total_failures(), 0u);

  // Replay while re-recording: same report, byte-identical log (the writer
  // frames the replayed spans exactly as it framed the live ones).
  const std::string rerecorded = temp_path("des56_at_rt.rtabv");
  models::RunConfig replay = replay_config(config, log, 1);
  replay.ingest.record_path = rerecorded;
  const models::RunResult replayed = models::run_simulation(replay);
  ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
  EXPECT_EQ(report_json(replayed), report_json(live));
  EXPECT_EQ(slurp(rerecorded), slurp(log));
}

TEST(ReplayRtl, ColorConvRecordThenReplayMatches) {
  const std::string log = temp_path("colorconv_rtl.rtabv");
  models::RunConfig config;
  config.design = models::Design::kColorConv;
  config.level = models::Level::kRtl;
  config.workload = 100;
  config.checkers = 12;
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;

  const models::RunResult replayed =
      models::run_simulation(replay_config(config, log, 1));
  ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
  EXPECT_EQ(report_json(replayed), report_json(live));
}

TEST(ReplayValidation, MismatchedConfigIsRejected) {
  const std::string log = temp_path("mismatch.rtabv");
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 30;
  config.checkers = 9;
  config.ingest.record_path = log;
  ASSERT_TRUE(models::run_simulation(config).ingest_error.empty());

  // Same file replayed as the wrong design/level: distinct meta mismatch.
  models::RunConfig wrong = replay_config(config, log, 1);
  wrong.design = models::Design::kColorConv;
  const models::RunResult r = models::run_simulation(wrong);
  EXPECT_NE(r.ingest_error.find("meta mismatch"), std::string::npos)
      << r.ingest_error;

  models::RunConfig wrong_level = replay_config(config, log, 1);
  wrong_level.level = models::Level::kRtl;
  EXPECT_NE(models::run_simulation(wrong_level).ingest_error.find(
                "meta mismatch"),
            std::string::npos);
}

TEST(ReplayValidation, CorruptLogSurfacesIngestError) {
  const std::string log = temp_path("corrupt_replay.rtabv");
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 30;
  config.checkers = 9;
  config.ingest.record_path = log;
  ASSERT_TRUE(models::run_simulation(config).ingest_error.empty());
  std::string bytes = slurp(log);
  spit(log, bytes.substr(0, bytes.size() - 13));

  const models::RunResult r = models::run_simulation(replay_config(config, log, 1));
  EXPECT_NE(r.ingest_error.find("truncated"), std::string::npos)
      << r.ingest_error;
}

TEST(ReplayJsonl, TlmAtJsonlLogReplaysIdentically) {
  const std::string log = temp_path("des56_at.jsonl");
  models::RunConfig config;
  config.design = models::Design::kDes56;
  config.level = models::Level::kTlmAt;
  config.workload = 60;
  config.checkers = 9;
  config.ingest.record_path = log;
  const models::RunResult live = models::run_simulation(config);
  ASSERT_TRUE(live.ingest_error.empty()) << live.ingest_error;

  const models::RunResult replayed =
      models::run_simulation(replay_config(config, log, 1));
  ASSERT_TRUE(replayed.ingest_error.empty()) << replayed.ingest_error;
  EXPECT_EQ(report_json(replayed), report_json(live));
}

}  // namespace
}  // namespace repro
