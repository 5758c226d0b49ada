// Tests for the checker code generator: structural golden checks plus a
// differential test that compiles the generated C++ with the system
// compiler and compares its verdict counters against the in-process
// PropertyChecker on a shared random trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/codegen.h"
#include "checker/trace.h"
#include "psl/parser.h"
#include "support/rng.h"

namespace repro::checker {
namespace {

psl::TlmProperty tlm(const std::string& text) {
  auto result = psl::parse_tlm_property(text);
  EXPECT_TRUE(result.ok()) << text;
  return result.value();
}

// ---- Structural checks ----------------------------------------------------------

TEST(Codegen, EmitsTypedValuesStruct) {
  const std::string code =
      generate_checker(tlm("q3: always (!ds || next_e[1,170](rdy)) @Tb"));
  EXPECT_NE(code.find("struct Values"), std::string::npos);
  EXPECT_NE(code.find("uint64_t ds = 0;"), std::string::npos);
  EXPECT_NE(code.find("uint64_t rdy = 0;"), std::string::npos);
  EXPECT_NE(code.find("class q3_checker"), std::string::npos);
  EXPECT_NE(code.find("void on_event(uint64_t t, const Values& v)"),
            std::string::npos);
  // The 170 ns deadline is hard-coded into the next_e state machine.
  EXPECT_NE(code.find("s.target = t + 170"), std::string::npos);
}

TEST(Codegen, BooleanSubformulasAreInlined) {
  const std::string code = generate_checker(
      tlm("inv: always (!rdy || (cb >= 16 && cb <= 240)) @Tb"));
  // Entirely boolean body: no obligation structs at all.
  EXPECT_EQ(code.find("struct S0"), std::string::npos);
  EXPECT_NE(code.find("(v.cb >= 16)"), std::string::npos);
}

TEST(Codegen, GuardGatesActivation) {
  const std::string code = generate_checker(
      tlm("g: always (!ds || next_e[1,20](rdy)) @Tb && monitor_en"));
  EXPECT_NE(code.find("if (!((v.monitor_en != 0))) return;"), std::string::npos);
}

TEST(Codegen, CommentsRecordTheProperty) {
  const std::string code =
      generate_checker(tlm("q: always (!ds || (a until b)) @Tb"));
  EXPECT_NE(code.find("// property: always !ds || (a until b)"),
            std::string::npos);
}

// ---- Differential compile-and-run test --------------------------------------------

struct DiffCase {
  std::string name;
  std::string property;  // TLM property text
};

// Signals used by all differential cases (one shared trace).
const char* kSignals[] = {"a", "b", "c", "ds", "rdy", "rst"};

Trace random_trace(uint64_t seed, size_t length) {
  Rng rng(seed);
  Trace trace;
  psl::TimeNs time = 10;
  const auto keys = std::make_shared<const support::Snapshot::Keys>(
      std::begin(kSignals), std::end(kSignals));
  for (size_t i = 0; i < length; ++i) {
    Observation o{time, support::Snapshot(keys)};
    for (const char* sig : kSignals) o.values.set(sig, rng.below(3));
    trace.push_back(std::move(o));
    time += 10 * rng.range(1, 3);
  }
  return trace;
}

TEST(CodegenDifferential, GeneratedCheckersMatchLibrary) {
  const std::vector<DiffCase> cases = {
      {"c0", "always (!ds || next_e[1,30](rdy)) @Tb"},
      {"c1", "always (!a || (b until c)) @Tb"},
      {"c2", "always ((!a || next[2](c)) abort rst) @Tb"},
      {"c3", "always (!ds || (eventually! rdy)) @Tb"},
      {"c4", "always (!(a && b == 2) || next_e[1,20](c != 0)) @Tb"},
      {"c5", "always (rdy -> b <= 2) @Tb"},
  };
  const Trace trace = random_trace(20260705, 40);

  // Library counters.
  struct Counters {
    uint64_t activations, holds, failures;
  };
  std::vector<Counters> expected;
  for (const DiffCase& dc : cases) {
    const psl::TlmProperty property = tlm(dc.name + ": " + dc.property);
    PropertyChecker checker(dc.name, property.formula, property.context.guard,
                            kEventCounted);
    for (const Observation& o : trace) checker.on_event(o.time, o.values);
    checker.finish();
    expected.push_back({checker.stats().activations, checker.stats().holds,
                        checker.stats().failures});
  }

  // Generated program: all checkers plus a main() replaying the same trace.
  std::string program;
  for (const DiffCase& dc : cases) {
    program += generate_checker(tlm(dc.name + ": " + dc.property));
  }
  program += "#include <cstdio>\n\nint main() {\n";
  program += "  struct Row { unsigned long long t";
  for (const char* sig : kSignals) program += std::string(", ") + sig;
  program += "; };\n  static const Row rows[] = {\n";
  for (const Observation& o : trace) {
    program += "    {" + std::to_string(o.time);
    for (const char* sig : kSignals) {
      program += ", " + std::to_string(o.values.value(sig));
    }
    program += "},\n";
  }
  program += "  };\n";
  for (const DiffCase& dc : cases) {
    program += "  gen_" + dc.name + "_checker::" + dc.name + "_checker " +
               dc.name + ";\n";
  }
  program += "  for (const Row& r : rows) {\n";
  for (const DiffCase& dc : cases) {
    const psl::TlmProperty property = tlm(dc.property);
    program += "    {\n      gen_" + dc.name + "_checker::Values v;\n";
    auto signals = psl::referenced_signals(property.formula);
    if (property.context.guard) {
      for (const auto& s : psl::referenced_signals(property.context.guard)) {
        signals.insert(s);
      }
    }
    for (const std::string& sig : signals) {
      program += "      v." + sig + " = r." + sig + ";\n";
    }
    program += "      " + dc.name + ".on_event(r.t, v);\n    }\n";
  }
  program += "  }\n";
  for (const DiffCase& dc : cases) program += "  " + dc.name + ".finish();\n";
  for (const DiffCase& dc : cases) {
    program += "  std::printf(\"%llu %llu %llu\\n\", (unsigned long long)" +
               dc.name + ".activations(), (unsigned long long)" + dc.name +
               ".holds(), (unsigned long long)" + dc.name + ".failures());\n";
  }
  program += "  return 0;\n}\n";

  const std::string dir = ::testing::TempDir();
  const std::string source = dir + "/gen_checkers.cc";
  const std::string binary = dir + "/gen_checkers";
  {
    std::ofstream out(source);
    ASSERT_TRUE(out) << source;
    out << program;
  }
  const std::string compile =
      "g++ -std=c++17 -O1 -o " + binary + " " + source + " 2>&1";
  FILE* cc = popen(compile.c_str(), "r");
  ASSERT_NE(cc, nullptr);
  std::string compile_output;
  char buffer[256];
  while (fgets(buffer, sizeof buffer, cc) != nullptr) compile_output += buffer;
  ASSERT_EQ(pclose(cc), 0) << "generated code failed to compile:\n"
                           << compile_output << "\n--- source ---\n"
                           << program;

  FILE* run = popen(binary.c_str(), "r");
  ASSERT_NE(run, nullptr);
  std::vector<Counters> actual;
  while (fgets(buffer, sizeof buffer, run) != nullptr) {
    Counters c{};
    ASSERT_EQ(std::sscanf(buffer, "%llu %llu %llu",
                          (unsigned long long*)&c.activations,
                          (unsigned long long*)&c.holds,
                          (unsigned long long*)&c.failures),
              3);
    actual.push_back(c);
  }
  ASSERT_EQ(pclose(run), 0);

  ASSERT_EQ(actual.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(actual[i].activations, expected[i].activations) << cases[i].property;
    EXPECT_EQ(actual[i].holds, expected[i].holds) << cases[i].property;
    EXPECT_EQ(actual[i].failures, expected[i].failures) << cases[i].property;
  }
}

}  // namespace
}  // namespace repro::checker
