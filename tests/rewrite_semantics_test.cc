// Semantic (trace-level) validation of the rewriting passes, randomized:
//
//   * NNF preserves the verdict of every formula on every trace;
//   * push_ahead_next preserves the verdict (both push modes);
//   * Algorithm III.1 preserves the verdict on clock-grid traces — the
//     paper's p == p' equivalence at RTL (Sec. III-A: "when evaluated at RTL
//     with clock context clk_pos, p and p'_1 are equivalent");
//   * on sparse traces, the substituted property can only differ in the
//     direction the paper describes (next_e fails when its instant has no
//     event).
#include <gtest/gtest.h>

#include "checker/reference_eval.h"
#include "checker/trace.h"
#include "psl/ast.h"
#include "rewrite/next_substitution.h"
#include "rewrite/nnf.h"
#include "rewrite/push_ahead.h"
#include "support/rng.h"

namespace repro::rewrite {
namespace {

using checker::Observation;
using checker::Trace;
using checker::Verdict;
using psl::ExprPtr;

// Random formula WITHOUT next_e (the rewriting passes run before
// Algorithm III.1 introduces it).
ExprPtr random_formula(Rng& rng, int depth) {
  const char* signals[] = {"a", "b", "c"};
  if (depth <= 0 || rng.chance(1, 3)) {
    switch (rng.below(3)) {
      case 0:
        return psl::sig(signals[rng.below(3)]);
      case 1:
        return psl::not_(psl::sig(signals[rng.below(3)]));
      default:
        return psl::cmp(signals[rng.below(3)], psl::CmpOp::kEq, rng.below(3));
    }
  }
  switch (rng.below(10)) {
    case 0:
      return psl::and_(random_formula(rng, depth - 1),
                       random_formula(rng, depth - 1));
    case 1:
      return psl::or_(random_formula(rng, depth - 1),
                      random_formula(rng, depth - 1));
    case 2:
      return psl::implies(random_formula(rng, depth - 1),
                          random_formula(rng, depth - 1));
    case 3:
      return psl::not_(random_formula(rng, depth - 1));
    case 4:
      return psl::next(static_cast<uint32_t>(rng.range(1, 3)),
                       random_formula(rng, depth - 1));
    case 5:
      return psl::until(random_formula(rng, depth - 1),
                        random_formula(rng, depth - 1), rng.chance(1, 2));
    case 6:
      return psl::release(random_formula(rng, depth - 1),
                          random_formula(rng, depth - 1));
    case 7:
      return psl::always(random_formula(rng, depth - 1));
    case 8:
      return psl::abort_(random_formula(rng, depth - 1),
                         psl::sig(signals[rng.below(3)]));
    default:
      return psl::eventually(random_formula(rng, depth - 1));
  }
}

Trace random_trace(Rng& rng, size_t length, bool grid) {
  Trace trace;
  psl::TimeNs time = 10;
  for (size_t i = 0; i < length; ++i) {
    trace.push_back({time, support::Snapshot({{"a", rng.below(3)},
                                              {"b", rng.below(3)},
                                              {"c", rng.below(3)}})});
    time += grid ? 10 : 10 * rng.range(1, 3);
  }
  return trace;
}

class RewriteSemantics : public ::testing::TestWithParam<int> {};

TEST_P(RewriteSemantics, NnfPreservesVerdicts) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  const ExprPtr formula = random_formula(rng, 3);
  const ExprPtr nnf = to_nnf(formula);
  const Trace trace = random_trace(rng, rng.range(2, 10), rng.chance(1, 2));
  for (bool complete : {false, true}) {
    for (size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(checker::reference_eval(formula, trace, i, complete),
                checker::reference_eval(nnf, trace, i, complete))
          << psl::to_string(formula) << "  ==>  " << psl::to_string(nnf)
          << " at position " << i << " complete=" << complete;
    }
  }
}

TEST_P(RewriteSemantics, PushAheadIsBoundaryMonotone) {
  // The distribution rules are exact on infinite traces; under truncated
  // semantics, a weak `next` operand pushed inside an until/release can
  // resolve leniently at the very end of the trace where the undistributed
  // original still sees its (strong) boundary — an end-of-simulation
  // artifact, not a verdict flip. We therefore require the strong property
  // that the two forms never *contradict* (one true, the other false), on
  // both complete and ongoing traces.
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 11);
  const ExprPtr nnf = to_nnf(random_formula(rng, 3));
  const Trace trace = random_trace(rng, rng.range(2, 10), rng.chance(1, 2));
  for (PushMode mode :
       {PushMode::kDistributeThroughFixpoints, PushMode::kOpaqueFixpoints}) {
    const ExprPtr pushed = push_ahead_next(nnf, mode);
    for (bool complete : {false, true}) {
      for (size_t i = 0; i < trace.size(); ++i) {
        const Verdict a = checker::reference_eval(nnf, trace, i, complete);
        const Verdict b = checker::reference_eval(pushed, trace, i, complete);
        // In NNF every next occurs positively, so the boundary leniency is
        // monotone: the pushed form may be true where the original already
        // failed at the boundary, never the reverse.
        ASSERT_FALSE(a == Verdict::kTrue && b == Verdict::kFalse)
            << psl::to_string(nnf) << "  ==>  " << psl::to_string(pushed)
            << " at position " << i << " complete=" << complete;
      }
    }
  }
}

TEST_P(RewriteSemantics, PushAheadExactAwayFromTheBoundary) {
  // Away from the trace end (all next windows inside the trace), the
  // distribution is exact. Double the trace and compare on the first half.
  Rng rng(static_cast<uint64_t>(GetParam()) * 48611 + 3);
  const ExprPtr nnf = to_nnf(random_formula(rng, 2));
  const uint32_t depth = psl::max_next_depth(nnf);
  const size_t half = rng.range(3, 8);
  const Trace trace = random_trace(rng, 2 * (half + depth), rng.chance(1, 2));
  for (PushMode mode :
       {PushMode::kDistributeThroughFixpoints, PushMode::kOpaqueFixpoints}) {
    const ExprPtr pushed = push_ahead_next(nnf, mode);
    for (size_t i = 0; i < half; ++i) {
      const Verdict a = checker::reference_eval(nnf, trace, i, /*complete=*/false);
      const Verdict b =
          checker::reference_eval(pushed, trace, i, /*complete=*/false);
      if (a != Verdict::kPending && b != Verdict::kPending) {
        ASSERT_EQ(a, b) << psl::to_string(nnf) << "  ==>  "
                        << psl::to_string(pushed) << " at position " << i;
      }
    }
  }
}

TEST_P(RewriteSemantics, AlgorithmIII1PreservesVerdictsOnClockGrid) {
  // The paper's Sec. III-A equivalence: with a 10 ns clock, next[n] and
  // next_e[tau, n*10] coincide on a cycle-accurate (grid) trace.
  Rng rng(static_cast<uint64_t>(GetParam()) * 104009 + 23);
  const ExprPtr pushed =
      push_ahead_next(to_nnf(random_formula(rng, 3)), PushMode::kOpaqueFixpoints);
  const ExprPtr substituted = substitute_next(pushed, 10);
  const Trace trace = random_trace(rng, rng.range(2, 12), /*grid=*/true);
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(checker::reference_eval(pushed, trace, i, /*complete=*/true),
              checker::reference_eval(substituted, trace, i, /*complete=*/true))
        << psl::to_string(pushed) << "  ==>  " << psl::to_string(substituted)
        << " at position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RewriteSemantics, ::testing::Range(0, 200));

}  // namespace
}  // namespace repro::rewrite
