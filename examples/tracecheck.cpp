// tracecheck: offline dynamic ABV on a recorded trace log.
//
//   tracecheck [--abstract <sig,...>] <props.psl> <log>
//
// Checks an RTL property file against a trace log (support::tracelog: the
// binary RTABVLOG encoding, or its .jsonl twin, which is easy to write by
// hand). The log's meta says which level produced it, and the properties are
// checked the way the testbench checks that level:
//   RTL     each record is one settled clock edge (address 0 = rising,
//           1 = falling); a property sees only the edges its clock context
//           selects.
//   TLM-CA  each record is one cycle's transaction; the properties are
//           checked as written, event-counted.
//   TLM-AT  the properties are first abstracted with Methodology III.1 (the
//           meta's clock period; --abstract names the signals to abstract
//           away) and checked at the end of every transaction.
//
// Exit code 0 when every property holds, 1 on failures, 2 on usage errors
// (among them an unreadable or malformed log, an unknown level, a TLM-AT log
// without a clock period, and a property or guard reading a signal the log
// does not record). Run with --demo for a self-contained demonstration.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "models/testbench.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "support/strutil.h"
#include "support/tracelog.h"

using namespace repro;

namespace {

const char kDemoProps[] =
    "p1: always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos;\n"
    "p2: always (!ds || next(!ds until rdy)) @clk_pos;\n";

// The demo log: four DES56-style transactions under a TLM-AT meta, one row
// per transaction end (time, then ds, indata, out, rdy).
tlm::RecordStreamMeta demo_log(std::vector<tlm::TransactionRecord>& records) {
  const tlm::RecordStreamMeta meta{"DES56", "TLM-AT", 10,
                                   {"ds", "indata", "out", "rdy"}};
  const uint64_t rows[][5] = {{10, 1, 0, 0, 0}, {20, 0, 0, 0, 0},
                              {180, 0, 0, 0x9d2a73f1, 1},
                              {190, 0, 0, 0x9d2a73f1, 0}};
  auto keys = std::make_shared<const support::Snapshot::Keys>(meta.observables);
  for (const auto& row : rows) {
    tlm::TransactionRecord& r = records.emplace_back();
    r.start = r.end = row[0];
    r.observables = support::Snapshot(keys);
    for (size_t i = 0; i < keys->size(); ++i) r.observables.set_at(i, row[i + 1]);
  }
  return meta;
}

int usage() {
  std::fprintf(stderr,
               "usage: tracecheck [--abstract <sig,...>] <props.psl> "
               "<log.rtabv|log.jsonl>\n       tracecheck --demo\n");
  return 2;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "tracecheck: %s\n", message.c_str());
  return 2;
}

// Feeds every record to `env`, prints one line per property and the verdict.
template <typename Env>
int run(Env& env, const std::vector<tlm::TransactionRecord>& records) {
  if (!records.empty()) {
    env.on_records(records.data(), records.data() + records.size());
  }
  env.finish();
  const abv::Report report = env.report();
  bool all_ok = true;
  for (const abv::PropertyReport& p : report.properties()) {
    std::printf("%-8s activations=%llu holds=%llu failures=%llu  %s\n",
                p.name.c_str(), static_cast<unsigned long long>(p.activations),
                static_cast<unsigned long long>(p.holds),
                static_cast<unsigned long long>(p.failures),
                p.ok() ? "PASS" : "FAIL");
    all_ok = all_ok && p.ok();
  }
  std::printf("%s\n", all_ok ? "ALL PASS" : "FAILURES DETECTED");
  return all_ok ? 0 : 1;
}

int check(const std::string& props_text, const tlm::RecordStreamMeta& meta,
          const std::vector<tlm::TransactionRecord>& records,
          const std::set<std::string>& abstracted) {
  auto properties = psl::parse_rtl_property_file(props_text);
  if (!properties.ok()) return fail(properties.error().to_string());
  models::Level level = models::Level::kRtl;
  if (!models::parse_level(meta.level, level)) {
    return fail("trace log records unknown level '" + meta.level + "'");
  }
  if (level == models::Level::kTlmAt && meta.clock_period_ns == 0) {
    return fail("TLM-AT trace log records no clock period");
  }

  // TLM-AT checks the abstractions; RTL and TLM-CA the formulas as written.
  std::vector<psl::RtlProperty> rtl;
  std::vector<psl::TlmProperty> tlm;
  std::set<std::string> missing;
  const auto bind = [&](const psl::ExprPtr& formula, const psl::ExprPtr& guard) {
    for (const psl::ExprPtr& e : {formula, guard}) {
      for (std::string& sig : psl::unbound_signals(e, meta.observables)) {
        missing.insert(std::move(sig));
      }
    }
  };
  rewrite::AbstractionOptions options;
  options.clock_period_ns = meta.clock_period_ns;
  options.abstracted_signals = abstracted;
  for (const psl::RtlProperty& p : properties.value()) {
    if (level != models::Level::kTlmAt) {
      bind(p.formula, p.context.guard);
      rtl.push_back(p);
      continue;
    }
    rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
    if (outcome.deleted()) {
      std::printf("%-8s deleted by signal abstraction\n", p.name.c_str());
      continue;
    }
    std::printf("%-8s %s\n", p.name.c_str(),
                psl::to_string(*outcome.property).c_str());
    bind(outcome.property->formula, outcome.property->context.guard);
    tlm.push_back(*outcome.property);
  }
  if (!missing.empty()) {
    return fail("unknown signal(s) not in the trace log's observables: " +
                join(std::vector<std::string>(missing.begin(), missing.end()),
                     ", "));
  }

  if (level == models::Level::kRtl) {
    // The records stand in for sampling a live design, as in RTL replay.
    sim::Kernel inert_kernel;
    abv::SignalBag inert_bag;
    abv::RtlAbvEnv env(inert_kernel, inert_bag);
    for (const psl::RtlProperty& p : rtl) env.add_property(p);
    return run(env, records);
  }
  abv::TlmAbvEnv env(meta.clock_period_ns);
  for (const psl::TlmProperty& q : tlm) env.add_property(q);
  for (const psl::RtlProperty& p : rtl) env.add_rtl_property(p);
  env.bind();
  return run(env, records);
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  std::set<std::string> abstracted;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--abstract" && i + 1 < argc) {
      for (const std::string& sig : split_and_trim(argv[++i], ',')) {
        abstracted.insert(sig);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  if (demo) {
    std::printf("(demo mode: bundled DES56-style properties and trace)\n");
    std::vector<tlm::TransactionRecord> records;
    const tlm::RecordStreamMeta meta = demo_log(records);
    return check(kDemoProps, meta, records, abstracted);
  }
  if (paths.size() != 2) return usage();
  std::ifstream in(paths[0]);
  if (!in) return fail("cannot open " + paths[0]);
  std::stringstream props;
  props << in.rdbuf();
  support::tracelog::TraceReader reader;
  if (std::optional<support::tracelog::TraceError> err = reader.open(paths[1])) {
    return fail(paths[1] + ": " + err->to_string());
  }
  return check(props.str(), reader.meta(), reader.records(), abstracted);
}
