// checkergen: synthesize standalone C++ monitors from PSL properties (the
// FoCs role in the paper's Fig. 1 flow).
//
//   checkergen [--tlm] [--clock <ns>] [--abstract <sig,...>] [file]
//
// Reads an RTL property file (stdin by default) and prints, for each
// property, a self-contained C++ checker class. With --tlm the properties
// are first abstracted with Methodology III.1 so the emitted monitors hook
// transaction-end events; without it they are RTL monitors for clock-edge
// sampling. Run with --demo to emit the checker for the paper's q3.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "checker/codegen.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "support/strutil.h"

using namespace repro;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: checkergen [--tlm] [--clock <ns>] [--abstract "
               "<sig,...>] [--demo | file]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool tlm_mode = false;
  bool demo = false;
  rewrite::AbstractionOptions options;
  options.clock_period_ns = 10;
  std::string path;

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
      path = arg;
    }
  }

  std::string text;
  if (demo) {
    text =
        "q3: always (!ds || (next[15](rdy_next_next_cycle) && "
        "next[16](rdy_next_cycle) && next[17](rdy))) @clk_pos;";
    options.abstracted_signals = {"rdy_next_cycle", "rdy_next_next_cycle"};
  } else if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "checkergen: cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  } else {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  }

  auto properties = psl::parse_rtl_property_file(text);
  if (!properties.ok()) {
    std::fprintf(stderr, "checkergen: %s\n",
                 properties.error().to_string().c_str());
    return 1;
  }

  for (const psl::RtlProperty& p : properties.value()) {
    if (tlm_mode) {
      rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
      if (outcome.deleted()) {
        std::printf("// %s: deleted by signal abstraction, no checker emitted\n\n",
                    p.name.c_str());
        continue;
      }
      std::fputs(checker::generate_checker(*outcome.property).c_str(), stdout);
    } else {
      std::fputs(checker::generate_checker(p).c_str(), stdout);
    }
    std::printf("\n");
  }
  return 0;
}
