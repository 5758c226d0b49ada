// tracecheck: offline dynamic ABV on a recorded trace.
//
//   tracecheck [--tlm] [--clock <ns>] [--abstract <sig,...>] <props.psl> <trace.csv>
//
// Parses an RTL property file and a CSV trace (see checker/trace_io.h for
// the format). By default the trace rows are treated as clock-edge samples
// and the properties are checked as written. With --tlm, the rows are
// treated as transaction-end events: the properties are first abstracted
// with Methodology III.1 (using --clock and --abstract) and checked on the
// transaction time scale instead of event-counted.
//
// Exit code 0 when every property holds, 1 on failures, 2 on usage errors
// (including a checked property or guard that names a signal missing from
// the trace header).
// Run with --demo for a self-contained demonstration.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checker/checker.h"
#include "checker/trace_io.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "support/strutil.h"

using namespace repro;

namespace {

const char kDemoProps[] =
    "p1: always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos;\n"
    "p2: always (!ds || next(!ds until rdy)) @clk_pos;\n";

const char kDemoTrace[] =
    "time,ds,indata,out,rdy\n"
    "10,1,0,0,0\n"
    "20,0,0,0,0\n"
    "180,0,0,0x9d2a73f1,1\n"
    "190,0,0,0x9d2a73f1,0\n";

int usage() {
  std::fprintf(stderr,
               "usage: tracecheck [--tlm] [--clock <ns>] [--abstract <sig,...>] "
               "<props.psl> <trace.csv>\n       tracecheck --demo\n");
  return 2;
}

// Usage error for properties that name signals the trace lacks.
int unknown_signals(const std::set<std::string>& missing) {
  const std::string names =
      join(std::vector<std::string>(missing.begin(), missing.end()), ", ");
  std::fprintf(stderr,
               "tracecheck: unknown signal(s) not in the trace header: %s\n",
               names.c_str());
  return 2;
}

std::string slurp(const std::string& path, bool& ok) {
  std::ifstream in(path);
  ok = static_cast<bool>(in);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool tlm_mode = false;
  bool demo = false;
  rewrite::AbstractionOptions options;
  options.clock_period_ns = 10;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tlm") {
      tlm_mode = true;
    } else if (arg == "--demo") {
      demo = true;
      tlm_mode = true;
    } else if (arg == "--clock" && i + 1 < argc) {
      const std::optional<uint64_t> clock = parse_u64(argv[++i]);
      if (!clock || *clock == 0) return usage();
      options.clock_period_ns = *clock;
    } else if (arg == "--abstract" && i + 1 < argc) {
      for (const std::string& sig : split_and_trim(argv[++i], ',')) {
        options.abstracted_signals.insert(sig);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  std::string props_text, trace_text;
  if (demo) {
    props_text = kDemoProps;
    trace_text = kDemoTrace;
    std::printf("(demo mode: bundled DES56-style properties and trace)\n");
  } else {
    if (paths.size() != 2) return usage();
    bool ok = false;
    props_text = slurp(paths[0], ok);
    if (!ok) {
      std::fprintf(stderr, "tracecheck: cannot open %s\n", paths[0].c_str());
      return 2;
    }
    trace_text = slurp(paths[1], ok);
    if (!ok) {
      std::fprintf(stderr, "tracecheck: cannot open %s\n", paths[1].c_str());
      return 2;
    }
  }

  auto properties = psl::parse_rtl_property_file(props_text);
  if (!properties.ok()) {
    std::fprintf(stderr, "tracecheck: %s\n", properties.error().to_string().c_str());
    return 2;
  }
  auto trace = checker::parse_trace_csv(trace_text);
  if (!trace.ok()) {
    std::fprintf(stderr, "tracecheck: %s\n", trace.error().to_string().c_str());
    return 2;
  }

  // Every row shares the header as its key table, so the first row stands
  // for the header; a trace without rows evaluates nothing.
  const checker::Trace& rows = trace.value();
  std::set<std::string> missing;
  std::vector<std::unique_ptr<checker::PropertyChecker>> checkers;
  for (const psl::RtlProperty& p : properties.value()) {
    psl::ExprPtr formula = p.formula;
    psl::ExprPtr guard = p.context.guard;
    psl::TimeNs period = checker::kEventCounted;
    if (tlm_mode) {
      auto outcome = rewrite::abstract_property(p, options);
      if (outcome.deleted()) {
        std::printf("%-8s deleted by signal abstraction\n", p.name.c_str());
        continue;
      }
      std::printf("%-8s %s\n", p.name.c_str(),
                  psl::to_string(*outcome.property).c_str());
      formula = outcome.property->formula;
      guard = outcome.property->context.guard;
      period = options.clock_period_ns;
    }
    if (!rows.empty()) {
      for (const psl::ExprPtr& e : {formula, guard}) {
        for (std::string& sig :
             psl::unbound_signals(e, *rows[0].values.keys())) {
          missing.insert(std::move(sig));
        }
      }
    }
    checkers.push_back(std::make_unique<checker::PropertyChecker>(
        p.name, formula, guard, period));
  }
  if (!missing.empty()) return unknown_signals(missing);
  for (const checker::Observation& o : rows) {
    for (auto& c : checkers) c->on_event(o.time, o.values);
  }
  bool all_ok = true;
  for (auto& c : checkers) {
    c->finish();
    std::printf("%-8s activations=%llu holds=%llu failures=%llu  %s\n",
                c->name().c_str(),
                static_cast<unsigned long long>(c->stats().activations),
                static_cast<unsigned long long>(c->stats().holds),
                static_cast<unsigned long long>(c->stats().failures),
                c->ok() ? "PASS" : "FAIL");
    all_ok = all_ok && c->ok();
  }
  std::printf("%s\n", all_ok ? "ALL PASS" : "FAILURES DETECTED");
  return all_ok ? 0 : 1;
}
