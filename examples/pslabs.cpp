// pslabs: the property-abstraction tool of Fig. 1 as a command-line utility.
//
//   pslabs [--clock <ns>] [--abstract <sig1,sig2,...>] [--paper-push] [file]
//
// Reads an RTL property file (`name: formula @context;` entries) from the
// given path or stdin, applies Methodology III.1, and prints the resulting
// TLM properties with their classification. Demo: run it on the bundled
// DES56 suite with --demo.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "models/properties.h"
#include "psl/parser.h"
#include "rewrite/methodology.h"
#include "support/strutil.h"

using namespace repro;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pslabs [--clock <ns>] [--abstract <sig,sig,...>] "
               "[--paper-push] [--demo | file]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rewrite::AbstractionOptions options;
  options.clock_period_ns = 10;
  std::string path;
  bool demo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--clock" && i + 1 < argc) {
      const std::optional<uint64_t> clock = parse_u64(argv[++i]);
      if (!clock || *clock == 0) return usage();
      options.clock_period_ns = *clock;
    } else if (arg == "--abstract" && i + 1 < argc) {
      for (const std::string& sig : split_and_trim(argv[++i], ',')) {
        options.abstracted_signals.insert(sig);
      }
    } else if (arg == "--paper-push") {
      options.push_mode = rewrite::PushMode::kDistributeThroughFixpoints;
    } else if (arg == "--demo") {
      demo = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }

  std::string text;
  if (demo) {
    text = models::kDes56PropertyText;
    options.abstracted_signals.insert("rdy_next_cycle");
    options.abstracted_signals.insert("rdy_next_next_cycle");
  } else if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "pslabs: cannot open %s\n", path.c_str());
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

  auto parsed = psl::parse_rtl_property_file(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "pslabs: %s\n", parsed.error().to_string().c_str());
    return 1;
  }

  int index = 0;
  for (const psl::RtlProperty& p : parsed.value()) {
    ++index;
    const std::string name = p.name.empty() ? "prop" + std::to_string(index) : p.name;
    rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
    std::printf("-- %s\n", name.c_str());
    std::printf("   rtl: %s\n", psl::to_string(p).c_str());
    if (outcome.deleted()) {
      std::printf("   tlm: (deleted: property only constrained abstracted signals)\n");
    } else {
      std::printf("   tlm: %s\n", psl::to_string(*outcome.property).c_str());
    }
    std::printf("   class: %s\n", rewrite::to_string(outcome.classification));
    for (const std::string& note : outcome.notes) {
      std::printf("   note: %s\n", note.c_str());
    }
  }
  return 0;
}
