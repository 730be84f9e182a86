// Tests for GreedyInit: Algorithm 3 on a null or 1-thread pool, Algorithm 7
// (SMGreedyInit) on a larger one. Residual consistency, the near-unitary Y
// property the seeding relies on, Lemma 4.2-style agreement at high rank,
// the greedy-vs-random quality gap that motivates Section 5.7, that
// Algorithm 7's wave size never changes the answer, and that every init
// writes its residuals into the affinity slabs it was given.
#include "src/core/greedy_init.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "src/common/random.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

namespace pane {
namespace {

using testing::InitFor;
using testing::ResidualConsistencyError;

// Rows a spilled test slab streams between drops.
constexpr int64_t kSpillChunkRows = 5;

AffinitySlabs TestAffinity(int64_t n = 300, uint64_t seed = 41) {
  return testing::GraphAffinity(testing::SmallSbm(seed, n));
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
  const auto state = GreedyInit(affinity, InitFor(32, 6, &pool)).ValueOrDie();
  EXPECT_LT(ResidualConsistencyError(state, affinity), 1e-9);
}

TEST(SmGreedyInitTest, QualityCloseToSerial) {
  const AffinitySlabs affinity = TestAffinity();
  ThreadPool pool(4);
  const auto serial = GreedyInit(affinity, InitFor(32, 6)).ValueOrDie();
  const auto parallel =
      GreedyInit(affinity, InitFor(32, 6, &pool)).ValueOrDie();
  // Split-merge SVD introduces bounded extra error (Section 4.2): the
  // parallel objective stays within a modest factor of the serial one.
  EXPECT_LT(Objective(parallel), 1.5 * Objective(serial) + 1e-9);
}

TEST(SmGreedyInitTest, SingleThreadPoolRunsAlgorithm3) {
  const AffinitySlabs affinity = TestAffinity(150, 45);
  ThreadPool pool(1);
  const auto a = GreedyInit(affinity, InitFor(16, 5, &pool)).ValueOrDie();
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
      GreedyInit(affinity, InitFor(16, 10, &pool)).ValueOrDie();
  const double scale = f.FrobeniusNorm();
  EXPECT_LT(serial.sf.FrobeniusNorm() / scale, 1e-8);
  EXPECT_LT(parallel.sf.FrobeniusNorm() / scale, 1e-8);
}

void ExpectSameBytes(const DenseMatrix& want, const DenseMatrix& got,
                     const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const size_t bytes =
      static_cast<size_t>(want.rows() * want.cols()) * sizeof(double);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0) << what;
}

TEST(SmGreedyInitTest, WaveSizeNeverChangesTheAnswer) {
  // max_inflight_blocks only schedules Algorithm 7's block SVDs: every wave
  // size, in RAM or spilled, gives the bytes of the uncapped in-RAM run.
  const AffinitySlabs source = TestAffinity();
  const DenseMatrix forward = source.forward.ToDense().ValueOrDie();
  const DenseMatrix backward = source.backward.ToDense().ValueOrDie();
  ThreadPool pool(4);
  const EmbeddingState want =
      GreedyInit(source, InitFor(32, 6, &pool)).ValueOrDie();
  const DenseMatrix want_sf = want.sf.ToDense().ValueOrDie();
  const DenseMatrix want_sb = want.sb.ToDense().ValueOrDie();
  for (const bool spilled : {false, true}) {
    for (const int64_t cap : {0, 1, 2, 3}) {
      const std::string where = std::string(spilled ? "spilled" : "in RAM") +
                                " cap=" + std::to_string(cap);
      const int64_t spill = spilled ? kSpillChunkRows : 0;
      AffinitySlabs affinity;
      affinity.forward = FactorSlab::FromDense(forward, spill).ValueOrDie();
      affinity.backward = FactorSlab::FromDense(backward, spill).ValueOrDie();
      InitOptions options = InitFor(32, 6, &pool);
      options.max_inflight_blocks = cap;
      const EmbeddingState got =
          GreedyInit(std::move(affinity), options).ValueOrDie();
      ExpectSameBytes(want.xf, got.xf, where + " xf");
      ExpectSameBytes(want.xb, got.xb, where + " xb");
      ExpectSameBytes(want.y, got.y, where + " y");
      ExpectSameBytes(want_sf, got.sf.ToDense().ValueOrDie(), where + " sf");
      ExpectSameBytes(want_sb, got.sb.ToDense().ValueOrDie(), where + " sb");
    }
  }
}

// --- In-place residuals ---------------------------------------------------

// Each init returns the slabs it was given as Sf / Sb: the same buffer when
// in RAM, the same spill file and mapping when spilled, with
// every byte equal to the testing::Residual(x, y, F') oracle.
using InitFn = std::function<Result<EmbeddingState>(AffinitySlabs)>;

void ExpectResidualsInPlace(const AffinitySlabs& source, const InitFn& init,
                            const std::string& what) {
  const DenseMatrix forward = source.forward.ToDense().ValueOrDie();
  const DenseMatrix backward = source.backward.ToDense().ValueOrDie();
  for (const bool spilled : {false, true}) {
    const std::string where = what + (spilled ? " spilled" : " in RAM");
    const int64_t spill = spilled ? kSpillChunkRows : 0;
    AffinitySlabs affinity;
    affinity.forward = FactorSlab::FromDense(forward, spill).ValueOrDie();
    affinity.backward = FactorSlab::FromDense(backward, spill).ValueOrDie();
    const double* forward_data = affinity.forward.data();
    const double* backward_data = affinity.backward.data();
    const std::string forward_path = affinity.forward.spill_path();
    const std::string backward_path = affinity.backward.spill_path();

    const EmbeddingState state = init(std::move(affinity)).ValueOrDie();
    EXPECT_EQ(state.sf.data(), forward_data) << where;
    EXPECT_EQ(state.sb.data(), backward_data) << where;
    EXPECT_EQ(state.sf.spilled(), spilled) << where;
    EXPECT_EQ(state.sf.spill_path(), forward_path) << where;
    EXPECT_EQ(state.sb.spill_path(), backward_path) << where;

    const DenseMatrix sf_want = testing::Residual(state.xf, state.y, forward);
    const DenseMatrix sb_want = testing::Residual(state.xb, state.y, backward);
    const DenseMatrix sf = state.sf.ToDense().ValueOrDie();
    const DenseMatrix sb = state.sb.ToDense().ValueOrDie();
    const size_t bytes = static_cast<size_t>(sf_want.rows() * sf_want.cols()) *
                         sizeof(double);
    EXPECT_EQ(std::memcmp(sf.data(), sf_want.data(), bytes), 0) << where;
    EXPECT_EQ(std::memcmp(sb.data(), sb_want.data(), bytes), 0) << where;
  }
}

TEST(InPlaceResidualTest, GreedyInit) {
  ExpectResidualsInPlace(TestAffinity(), [](AffinitySlabs a) {
    return GreedyInit(std::move(a), InitFor(32, 6));
  }, "GreedyInit");
}

TEST(InPlaceResidualTest, SmGreedyInit) {
  const AffinitySlabs affinity = TestAffinity();
  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    ExpectResidualsInPlace(affinity, [&](AffinitySlabs a) {
      return GreedyInit(std::move(a), InitFor(32, 6, &pool));
    }, "SmGreedyInit threads=" + std::to_string(threads));
  }
}

TEST(InPlaceResidualTest, RandomInit) {
  ThreadPool pool(3);
  ExpectResidualsInPlace(TestAffinity(), [&](AffinitySlabs a) {
    return RandomInit(std::move(a), InitFor(32, 5, &pool, /*seed=*/7));
  }, "RandomInit");
}

TEST(InPlaceResidualTest, WarmInit) {
  const AffinitySlabs affinity = TestAffinity();
  const EmbeddingState seed = GreedyInit(affinity, InitFor(32, 6)).ValueOrDie();
  PaneEmbedding previous;  // the first 200 of 300 nodes: 100 projected rows
  previous.xf = seed.xf.RowBlock(0, 200);
  previous.xb = seed.xb.RowBlock(0, 200);
  previous.y = seed.y;
  ThreadPool pool(3);
  ExpectResidualsInPlace(affinity, [&](AffinitySlabs a) {
    return WarmInit(std::move(a), previous, InitFor(32, 6, &pool));
  }, "WarmInit");
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
