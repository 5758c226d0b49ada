// Golden-report regression: the JSON report (no timing section) of every
// design x level at a small workload, compared byte for byte against the
// files committed under tests/data/golden/.
//
// Each run checks the full suite plus one deliberately failing property, so
// the goldens pin failure logs (mid-trace and end-of-trace), TLM-AT failure
// witnesses, latency histograms and the vacuity split, not only counters.
// The runs use four engine jobs so the sharded dispatch is exercised (jobs
// are ignored at RTL).
//
// On a mismatch the test writes `<name>.actual.json` next to the test
// binary. When a change of report bytes is intended, review the diff against
// the golden and copy the actual file over it.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "models/testbench.h"
#include "psl/parser.h"

using namespace repro;

namespace {

// ds-activations fail one cycle later (rdy comes much later): mid-trace
// failures. rdy-activations demand another ds afterwards: the last one is
// still pending when the trace ends and fails there.
constexpr char kFailingProperty[] =
    "gfail: always ((!ds || next[1](rdy)) && (!rdy || next(eventually! ds))) "
    "@clk_pos";

struct GoldenCase {
  const char* name;
  models::Design design;
  models::Level level;
  size_t workload;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GoldenReport : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReport, MatchesCommittedReport) {
  const GoldenCase& c = GetParam();
  models::RunConfig config;
  config.design = c.design;
  config.level = c.level;
  config.workload = c.workload;
  config.checkers = 99;  // whole suite
  config.engine.jobs = 4;
  auto parsed = psl::parse_rtl_property(kFailingProperty);
  ASSERT_TRUE(parsed.ok());
  config.extra_properties.push_back(std::move(parsed).take());
  const models::RunResult result = models::run_simulation(config);
  ASSERT_TRUE(result.functional_ok);
  ASSERT_FALSE(result.properties_ok);

  std::ostringstream actual;
  result.report.write_json(actual);
  const std::string golden_path =
      std::string(REPRO_GOLDEN_DIR) + "/" + c.name + ".json";
  const std::string golden = read_file(golden_path);
  if (actual.str() != golden) {
    const std::string actual_path =
        std::string(REPRO_GOLDEN_OUT_DIR) + "/" + c.name + ".actual.json";
    std::ofstream(actual_path, std::ios::binary) << actual.str();
    ADD_FAILURE() << "report differs from " << golden_path
                  << "; actual report written to " << actual_path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, GoldenReport,
    testing::Values(
        GoldenCase{"des56_rtl", models::Design::kDes56, models::Level::kRtl, 4},
        GoldenCase{"des56_tlm_ca", models::Design::kDes56,
                   models::Level::kTlmCa, 4},
        GoldenCase{"des56_tlm_at", models::Design::kDes56,
                   models::Level::kTlmAt, 4},
        GoldenCase{"colorconv_rtl", models::Design::kColorConv,
                   models::Level::kRtl, 12},
        GoldenCase{"colorconv_tlm_ca", models::Design::kColorConv,
                   models::Level::kTlmCa, 12},
        GoldenCase{"colorconv_tlm_at", models::Design::kColorConv,
                   models::Level::kTlmAt, 12}),
    [](const testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
