// Reconstructed PSL property suites for the two testcases (Sec. V: 9
// properties for DES56, 12 for ColorConv). The three DES56 properties of the
// paper's Fig. 3 are included: p1 and p3 verbatim, and p2 both verbatim (for
// the rewriting tests and the ablation bench, as `p2_paper`) and in the
// boolean-operand-until form `p2` used by the experiment suites, which
// abstracts soundly onto sparse TLM-AT transaction streams (see DESIGN.md).
#ifndef REPRO_MODELS_PROPERTIES_H_
#define REPRO_MODELS_PROPERTIES_H_

#include <set>
#include <string>
#include <vector>

#include "psl/ast.h"

namespace repro::models {

struct PropertySuite {
  std::string design;
  // Full RTL property suite, in source order.
  std::vector<psl::RtlProperty> properties;
  // Interface signals removed by the RTL-to-TLM-AT abstraction.
  std::set<std::string> abstracted_signals;
  // Reference RTL clock period (Algorithm III.1).
  psl::TimeNs clock_period_ns = 10;
};

// The 9-property DES56 suite.
PropertySuite des56_suite();
// The 12-property ColorConv suite.
PropertySuite colorconv_suite();

// Fig. 3's p2, exactly as published (next distributed into the until by the
// paper's push_ahead rules). Used by the rewriting tests and by the
// soundness ablation benchmark.
psl::RtlProperty des56_p2_paper();

// Raw DES56 property text (parser input), exposed for the rewrite
// benchmark; tests/data/des56.psl is a copy for offline checking.
extern const char kDes56PropertyText[];

}  // namespace repro::models

#endif  // REPRO_MODELS_PROPERTIES_H_
