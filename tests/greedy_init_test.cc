// Tests for GreedyInit (Algorithm 3) and SMGreedyInit (Algorithm 7):
// residual consistency, the near-unitary Y property the seeding relies on,
// Lemma 4.2-style agreement at high rank, and the greedy-vs-random quality
// gap that motivates Section 5.7.
#include "src/core/greedy_init.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

namespace pane {
namespace {

using testing::InitFor;

AffinitySlabs TestAffinity(int64_t n = 300, uint64_t seed = 41) {
  return testing::GraphAffinity(testing::SmallSbm(seed, n));
}

double ResidualConsistencyError(const EmbeddingState& s,
                                const AffinitySlabs& affinity) {
  DenseMatrix sf_expected, sb_expected;
  GemmTransBAddScaled(s.xf, s.y, 1.0, affinity.forward.ToDense().ValueOrDie(),
                      -1.0, &sf_expected);
  GemmTransBAddScaled(s.xb, s.y, 1.0, affinity.backward.ToDense().ValueOrDie(),
                      -1.0, &sb_expected);
  return s.sf.MaxAbsDiff(sf_expected) + s.sb.MaxAbsDiff(sb_expected);
}

double OrthonormalityError(const DenseMatrix& q) {
  DenseMatrix gram;
  GemmTransA(q, q, &gram);
  gram.Sub(DenseMatrix::Identity(q.cols()));
  return gram.FrobeniusNorm();
}

TEST(GreedyInitTest, ResidualsConsistent) {
  const AffinitySlabs affinity = TestAffinity();
  const auto state = GreedyInit(affinity, InitFor(32, 6)).ValueOrDie();
  EXPECT_LT(ResidualConsistencyError(state, affinity), 1e-9);
}

TEST(GreedyInitTest, YIsOrthonormal) {
  const AffinitySlabs affinity = TestAffinity();
  const auto state = GreedyInit(affinity, InitFor(32, 6)).ValueOrDie();
  // Y = V from the SVD of F' — the "key observation" behind Xb = B'Y.
  EXPECT_LT(OrthonormalityError(state.y), 1e-8);
}

TEST(GreedyInitTest, ApproximatesForwardAffinity) {
  const AffinitySlabs affinity = TestAffinity();
  const auto state = GreedyInit(affinity, InitFor(64, 8)).ValueOrDie();
  const double f_norm = affinity.forward.FrobeniusNorm();
  // Xf Y^T must already capture most of F' at init (that's the point).
  EXPECT_LT(state.sf.FrobeniusNorm(), 0.5 * f_norm);
}

TEST(GreedyInitTest, ShapesMatchBudget) {
  const AffinitySlabs affinity = TestAffinity();
  const auto state = GreedyInit(affinity, InitFor(48, 5)).ValueOrDie();
  EXPECT_EQ(state.xf.cols(), 24);
  EXPECT_EQ(state.xb.cols(), 24);
  EXPECT_EQ(state.y.cols(), 24);
  EXPECT_EQ(state.xf.rows(), affinity.forward.rows());
  EXPECT_EQ(state.y.rows(), affinity.forward.cols());
}

TEST(GreedyInitTest, RejectsOddK) {
  const AffinitySlabs affinity = TestAffinity(100, 43);
  EXPECT_FALSE(GreedyInit(affinity, InitFor(33, 5)).ok());
  EXPECT_FALSE(GreedyInit(affinity, InitFor(0, 5)).ok());
}

TEST(GreedyInitTest, BetterObjectiveThanRandomInit) {
  const AffinitySlabs affinity = TestAffinity();
  const auto greedy = GreedyInit(affinity, InitFor(32, 6)).ValueOrDie();
  const auto random =
      RandomInit(affinity, InitFor(32, 5, nullptr, /*seed=*/7)).ValueOrDie();
  // The Figures 7-8 premise: greedy seeding starts far closer to optimal.
  EXPECT_LT(Objective(greedy), 0.5 * Objective(random));
}

TEST(RandomInitTest, ResidualsConsistent) {
  const AffinitySlabs affinity = TestAffinity(150, 44);
  const auto state =
      RandomInit(affinity, InitFor(16, 5, nullptr, /*seed=*/5)).ValueOrDie();
  EXPECT_LT(ResidualConsistencyError(state, affinity), 1e-9);
}

TEST(SmGreedyInitTest, ResidualsConsistent) {
  const AffinitySlabs affinity = TestAffinity();
  ThreadPool pool(4);
  const auto state =
      SmGreedyInit(affinity, InitFor(32, 6, &pool)).ValueOrDie();
  EXPECT_LT(ResidualConsistencyError(state, affinity), 1e-9);
}

TEST(SmGreedyInitTest, QualityCloseToSerial) {
  const AffinitySlabs affinity = TestAffinity();
  ThreadPool pool(4);
  const auto serial = GreedyInit(affinity, InitFor(32, 6)).ValueOrDie();
  const auto parallel =
      SmGreedyInit(affinity, InitFor(32, 6, &pool)).ValueOrDie();
  // Split-merge SVD introduces bounded extra error (Section 4.2): the
  // parallel objective stays within a modest factor of the serial one.
  EXPECT_LT(Objective(parallel), 1.5 * Objective(serial) + 1e-9);
}

TEST(SmGreedyInitTest, SingleThreadPoolDelegatesToSerial) {
  const AffinitySlabs affinity = TestAffinity(150, 45);
  ThreadPool pool(1);
  const auto a = SmGreedyInit(affinity, InitFor(16, 5, &pool)).ValueOrDie();
  const auto b = GreedyInit(affinity, InitFor(16, 5)).ValueOrDie();
  EXPECT_EQ(a.xf.MaxAbsDiff(b.xf), 0.0);
  EXPECT_EQ(a.y.MaxAbsDiff(b.y), 0.0);
}

TEST(SmGreedyInitTest, Lemma42HighRankRecovery) {
  // At k/2 >= rank(F'), both inits satisfy Xf Y^T = F' (Sf = 0). We build a
  // low-rank affinity stand-in to make the rank condition achievable.
  Rng rng(46);
  DenseMatrix left(120, 6), right(6, 30), f;
  left.FillGaussian(&rng);
  right.FillGaussian(&rng);
  Gemm(left, right, &f);
  AffinitySlabs affinity;
  affinity.forward = f;
  affinity.backward = f;  // same rank structure
  ThreadPool pool(3);
  const auto serial = GreedyInit(affinity, InitFor(16, 10)).ValueOrDie();
  const auto parallel =
      SmGreedyInit(affinity, InitFor(16, 10, &pool)).ValueOrDie();
  const double scale = f.FrobeniusNorm();
  EXPECT_LT(serial.sf.FrobeniusNorm() / scale, 1e-8);
  EXPECT_LT(parallel.sf.FrobeniusNorm() / scale, 1e-8);
}

TEST(ObjectiveTest, MatchesDefinition) {
  EmbeddingState state;
  state.sf = DenseMatrix({{1, 2}, {3, 0}});
  state.sb = DenseMatrix({{0, 1}, {0, 0}});
  // ||Sf||^2 = 14, ||Sb||^2 = 1.
  EXPECT_NEAR(Objective(state), 15.0, 1e-12);
}

}  // namespace
}  // namespace pane
