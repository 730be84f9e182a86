// Tests for APMI (Algorithm 2): agreement with the independent dense
// reference, the Lemma 3.1 truncation bounds, convergence in eps, and
// parameterized sweeps over alpha. Probabilities come from the unfused
// ApmiProbabilities, affinities from the production engine.
#include "src/core/apmi.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/affinity.h"
#include "src/core/affinity_engine.h"
#include "test_util.h"

namespace pane {
namespace {

struct ApmiRun {
  ProbabilityMatrices probs;
  AffinitySlabs affinity;
};

ApmiRun RunApmi(const AttributedGraph& g, double alpha, int t) {
  const CsrMatrix p = g.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  ApmiInputs inputs;
  inputs.p = &p;
  inputs.p_transposed = &pt;
  inputs.r = &g.attributes();
  inputs.alpha = alpha;
  inputs.t = t;
  ApmiRun run;
  run.probs = ApmiProbabilities(inputs).ValueOrDie();
  AffinityEngineOptions options;
  options.alpha = alpha;
  options.t = t;
  run.affinity =
      ComputeAffinitySlabs(p, pt, g.attributes(), options).ValueOrDie();
  return run;
}

TEST(ApmiTest, MatchesDenseReferenceAtSameT) {
  const AttributedGraph g = testing::SmallSbm(21, 250);
  for (const int t : {1, 3, 7}) {
    const ApmiRun run = RunApmi(g, 0.5, t);
    const auto exact = ExactProbabilities(g, 0.5, t).ValueOrDie();
    EXPECT_LT(run.probs.pf.MaxAbsDiff(exact.pf), 1e-12) << "t=" << t;
    EXPECT_LT(run.probs.pb.MaxAbsDiff(exact.pb), 1e-12) << "t=" << t;
  }
}

TEST(ApmiTest, Lemma31TruncationBounds) {
  // Inequalities (9) and (10): max{0, Pf - eps} <= Pf_t <= Pf, elementwise.
  const AttributedGraph g = testing::Figure1Graph();
  const double alpha = 0.3;
  const double eps = 0.05;
  const int t = ComputeIterationCount(eps, alpha);
  const ApmiRun run = RunApmi(g, alpha, t);
  // "Exact" series: truncated far beyond machine precision.
  const auto exact = ExactProbabilities(g, alpha, 120).ValueOrDie();
  for (int64_t i = 0; i < g.num_nodes(); ++i) {
    for (int64_t j = 0; j < g.num_attributes(); ++j) {
      const double pf = exact.pf(i, j);
      const double pf_t = run.probs.pf(i, j);
      EXPECT_LE(pf_t, pf + 1e-12);
      EXPECT_GE(pf_t, std::max(0.0, pf - eps) - 1e-12);
      const double pb = exact.pb(i, j);
      const double pb_t = run.probs.pb(i, j);
      EXPECT_LE(pb_t, pb + 1e-12);
      EXPECT_GE(pb_t, std::max(0.0, pb - eps) - 1e-12);
    }
  }
}

TEST(ApmiTest, AffinityConvergesAsEpsilonShrinks) {
  const AttributedGraph g = testing::SmallSbm(22, 200);
  const auto exact = ExactAffinity(g, 0.5).ValueOrDie();
  double prev_err = 1e300;
  for (const double eps : {0.25, 0.05, 0.005, 0.0005}) {
    const int t = ComputeIterationCount(eps, 0.5);
    const ApmiRun run = RunApmi(g, 0.5, t);
    const double err = run.affinity.forward.MaxAbsDiff(exact.forward) +
                       run.affinity.backward.MaxAbsDiff(exact.backward);
    EXPECT_LE(err, prev_err + 1e-12) << "eps=" << eps;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 5e-3);
}

TEST(ApmiTest, GraphAffinityShapes) {
  const AffinitySlabs affinity =
      testing::GraphAffinity(testing::Figure1Graph());
  EXPECT_EQ(affinity.forward.rows(), 6);
  EXPECT_EQ(affinity.forward.cols(), 3);
  EXPECT_EQ(affinity.backward.rows(), 6);
}

TEST(ApmiTest, InputValidation) {
  const AttributedGraph g = testing::Figure1Graph();
  const CsrMatrix p = g.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  ApmiInputs inputs;
  inputs.p = &p;
  inputs.p_transposed = &pt;
  inputs.r = &g.attributes();

  inputs.alpha = 0.0;  // out of range
  inputs.t = 3;
  EXPECT_FALSE(ApmiProbabilities(inputs).ok());

  inputs.alpha = 0.5;
  inputs.t = 0;  // out of range
  EXPECT_FALSE(ApmiProbabilities(inputs).ok());

  inputs.t = 3;
  inputs.r = nullptr;
  EXPECT_FALSE(ApmiProbabilities(inputs).ok());
}

// ---------------------------------------------------------------------------
// Property sweep over alpha: for each stopping probability, the truncated
// probabilities stay within [0, 1], never exceed the exact series, and the
// affinity is finite and non-negative (SPMI property).
class ApmiAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ApmiAlphaSweep, ProbabilitiesWellFormed) {
  const double alpha = GetParam();
  const AttributedGraph g = testing::SmallSbm(23, 150);
  const int t = ComputeIterationCount(0.015, alpha);
  const ApmiRun run = RunApmi(g, alpha, t);
  for (int64_t i = 0; i < g.num_nodes(); ++i) {
    double row_sum = 0.0;
    for (int64_t j = 0; j < g.num_attributes(); ++j) {
      const double pf = run.probs.pf(i, j);
      EXPECT_GE(pf, 0.0);
      EXPECT_LE(pf, 1.0 + 1e-12);
      row_sum += pf;
      const double f = run.affinity.forward.Row(i)[j];
      const double b = run.affinity.backward.Row(i)[j];
      EXPECT_TRUE(std::isfinite(f));
      EXPECT_GE(f, 0.0);
      EXPECT_TRUE(std::isfinite(b));
      EXPECT_GE(b, 0.0);
    }
    // Forward walk distributes at most probability 1 over attributes.
    EXPECT_LE(row_sum, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, ApmiAlphaSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace pane
