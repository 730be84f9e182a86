// Tests for the CCD refinement (Algorithms 4 and 8): monotone objective
// descent, incremental-residual correctness (Equations 18-20 vs full
// recomputation), serial/parallel agreement, and bitwise equality with the
// per-row Dot / Axpy sweep the row-group kernels replaced.
#include "src/core/ccd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/greedy_init.h"
#include "src/matrix/gemm.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"
#include "src/store/buffer_pool.h"
#include "test_util.h"

namespace pane {
namespace {

using testing::InitFor;

AffinitySlabs TestAffinity(int64_t n = 250, uint64_t seed = 51) {
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

TEST(CcdTest, ObjectiveNonIncreasingFromRandomInit) {
  const AffinitySlabs affinity = TestAffinity();
  auto state =
      RandomInit(affinity, InitFor(16, 5, nullptr, /*seed=*/5)).ValueOrDie();
  std::vector<double> trace;
  trace.push_back(Objective(state));
  CcdOptions options;
  options.iterations = 8;
  options.objective_trace = &trace;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  ASSERT_EQ(trace.size(), 9u);
  for (size_t i = 1; i < trace.size(); ++i) {
    // Exact coordinate minimization can never increase the objective.
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-12)) << "iteration " << i;
  }
  EXPECT_LT(trace.back(), 0.9 * trace.front());
}

TEST(CcdTest, ObjectiveNonIncreasingFromGreedyInit) {
  const AffinitySlabs affinity = TestAffinity();
  auto state = GreedyInit(affinity, InitFor(16, 6)).ValueOrDie();
  std::vector<double> trace;
  trace.push_back(Objective(state));
  CcdOptions options;
  options.iterations = 5;
  options.objective_trace = &trace;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-12));
  }
}

TEST(CcdTest, IncrementalResidualsMatchRecomputation) {
  // The dynamic maintenance of Equations (18)-(20) must leave Sf, Sb equal
  // to a from-scratch Xf Y^T - F' at every exit point.
  const AffinitySlabs affinity = TestAffinity();
  auto state = GreedyInit(affinity, InitFor(24, 6)).ValueOrDie();
  CcdOptions options;
  options.iterations = 3;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  EXPECT_LT(ResidualConsistencyError(state, affinity), 1e-8);
}

TEST(CcdTest, ParallelMatchesSerialQuality) {
  const AffinitySlabs affinity = TestAffinity();
  auto serial_state = GreedyInit(affinity, InitFor(16, 6)).ValueOrDie();
  auto parallel_state = serial_state;  // identical starting point

  CcdOptions serial_options;
  serial_options.iterations = 4;
  ASSERT_TRUE(CcdRefine(&serial_state, serial_options).ok());

  ThreadPool pool(4);
  CcdOptions parallel_options;
  parallel_options.iterations = 4;
  parallel_options.pool = &pool;
  ASSERT_TRUE(CcdRefine(&parallel_state, parallel_options).ok());

  // Block-parallel CCD visits coordinates in a different order, so results
  // differ numerically but converge to the same quality (Section 4.2).
  const double serial_obj = Objective(serial_state);
  const double parallel_obj = Objective(parallel_state);
  EXPECT_NEAR(parallel_obj, serial_obj, 0.05 * serial_obj);
  EXPECT_LT(ResidualConsistencyError(parallel_state, affinity), 1e-8);
}

TEST(CcdTest, ZeroIterationsIsNoop) {
  const AffinitySlabs affinity = TestAffinity(120, 52);
  auto state = GreedyInit(affinity, InitFor(8, 4)).ValueOrDie();
  const DenseMatrix xf_before = state.xf;
  CcdOptions options;
  options.iterations = 0;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  EXPECT_EQ(state.xf.MaxAbsDiff(xf_before), 0.0);
}

TEST(CcdTest, HandlesRankDeficientYColumns) {
  // k/2 > d forces zero Y columns; updates on those coordinates must be
  // skipped rather than divide by zero.
  Rng rng(53);
  DenseMatrix forward(40, 3), backward(40, 3);
  forward.FillUniform(&rng, 0.0, 1.0);
  backward.FillUniform(&rng, 0.0, 1.0);
  AffinitySlabs affinity;
  affinity.forward = std::move(forward);
  affinity.backward = std::move(backward);
  // k/2 = 8 > d = 3.
  auto state = GreedyInit(affinity, InitFor(16, 4)).ValueOrDie();
  CcdOptions options;
  options.iterations = 3;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  for (int64_t i = 0; i < state.xf.rows(); ++i) {
    for (int64_t j = 0; j < state.xf.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(state.xf(i, j)));
    }
  }
}

TEST(CcdTest, RejectsInconsistentShapes) {
  EmbeddingState state;
  state.xf.Resize(10, 4);
  state.xb.Resize(10, 4);
  state.y.Resize(5, 4);
  state.sf.Resize(10, 5);
  state.sb.Resize(9, 5);  // wrong
  CcdOptions options;
  EXPECT_FALSE(CcdRefine(&state, options).ok());
}

// --- Bitwise oracle -------------------------------------------------------

// The per-row sweep CcdRefine ran before its row-group kernels: one Dot and
// one Axpy per row and coordinate, Equations (13)-(20) in the order of
// Algorithm 4, each residual column of phase 2 staged in its own buffer.
// CcdRefine must reproduce it byte for byte for every thread count, strip
// width, in RAM and spilled.
struct OracleFactors {
  DenseMatrix xf, xb, y, sf, sb;
};

void ReferenceCcd(OracleFactors* f, int iterations) {
  constexpr double kFloor = 1e-300;  // CcdRefine's kDenominatorFloor
  const int64_t n = f->xf.rows();
  const int64_t d = f->y.rows();
  const int64_t h = f->xf.cols();
  for (int iter = 0; iter < iterations; ++iter) {
    const DenseMatrix yt = f->y.Transposed();
    for (int64_t vi = 0; vi < n; ++vi) {
      for (int64_t l = 0; l < h; ++l) {
        const double denom = SquaredNorm(yt.Row(l), d);
        if (denom < kFloor) continue;
        const double mu_f = Dot(f->sf.Row(vi), yt.Row(l), d) / denom;
        const double mu_b = Dot(f->sb.Row(vi), yt.Row(l), d) / denom;
        f->xf(vi, l) -= mu_f;
        f->xb(vi, l) -= mu_b;
        Axpy(-mu_f, yt.Row(l), f->sf.Row(vi), d);
        Axpy(-mu_b, yt.Row(l), f->sb.Row(vi), d);
      }
    }
    const DenseMatrix xft = f->xf.Transposed();
    const DenseMatrix xbt = f->xb.Transposed();
    std::vector<double> sf_col(static_cast<size_t>(n));
    std::vector<double> sb_col(static_cast<size_t>(n));
    for (int64_t r = 0; r < d; ++r) {
      for (int64_t i = 0; i < n; ++i) {
        sf_col[static_cast<size_t>(i)] = f->sf(i, r);
        sb_col[static_cast<size_t>(i)] = f->sb(i, r);
      }
      for (int64_t l = 0; l < h; ++l) {
        const double denom =
            SquaredNorm(xft.Row(l), n) + SquaredNorm(xbt.Row(l), n);
        if (denom < kFloor) continue;
        const double mu_y = (Dot(xft.Row(l), sf_col.data(), n) +
                             Dot(xbt.Row(l), sb_col.data(), n)) /
                            denom;
        f->y(r, l) -= mu_y;
        Axpy(-mu_y, xft.Row(l), sf_col.data(), n);
        Axpy(-mu_y, xbt.Row(l), sb_col.data(), n);
      }
      for (int64_t i = 0; i < n; ++i) {
        f->sf(i, r) = sf_col[static_cast<size_t>(i)];
        f->sb(i, r) = sb_col[static_cast<size_t>(i)];
      }
    }
  }
}

// Gaussian factors and residuals whose first, middle and last coordinates
// are zero in Y, Xf and Xb, so both phases skip them.
OracleFactors RandomFactors(int64_t n, int64_t d, int64_t h, uint64_t seed) {
  Rng rng(seed);
  OracleFactors f{DenseMatrix(n, h), DenseMatrix(n, h), DenseMatrix(d, h),
                  DenseMatrix(n, d), DenseMatrix(n, d)};
  for (DenseMatrix* m : {&f.xf, &f.xb, &f.y, &f.sf, &f.sb}) {
    m->FillGaussian(&rng);
  }
  for (const int64_t l : {int64_t{0}, h / 2, h - 1}) {
    for (int64_t i = 0; i < n; ++i) f.xf(i, l) = f.xb(i, l) = 0.0;
    for (int64_t r = 0; r < d; ++r) f.y(r, l) = 0.0;
  }
  return f;
}

void ExpectSameBytes(const double* want, const double* got, int64_t count,
                     const std::string& what) {
  ASSERT_EQ(std::memcmp(want, got, static_cast<size_t>(count) * sizeof(double)),
            0)
      << what;
}

// Runs CcdRefine on a copy of `start` with `strip_width`-column strips for
// every thread count, in RAM and spilled, and holds each result against
// `want`.
void ExpectCcdMatchesOracle(const OracleFactors& start,
                            const OracleFactors& want, int iterations,
                            int64_t strip_width, const std::string& what) {
  const int64_t n = start.xf.rows();
  const int64_t d = start.y.rows();
  for (const int threads : {1, 2, 3}) {
    for (const bool pooled : {false, true}) {
      store::BufferPool::Options pool_options;
      pool_options.budget_bytes = 64 * 1024;  // forces evictions
      pool_options.page_bytes = 4096;
      store::BufferPool buffer_pool(pool_options);
      store::BufferPool* spill = pooled ? &buffer_pool : nullptr;
      EmbeddingState state;
      state.xf = start.xf;
      state.xb = start.xb;
      state.y = start.y;
      state.sf = FactorSlab::FromDense(start.sf, spill).ValueOrDie();
      state.sb = FactorSlab::FromDense(start.sb, spill).ValueOrDie();
      ThreadPool thread_pool(threads);
      CcdStats stats;
      CcdOptions options;
      options.iterations = iterations;
      options.pool = threads > 1 ? &thread_pool : nullptr;
      options.strip_width = strip_width;
      options.stats = &stats;
      ASSERT_TRUE(CcdRefine(&state, options).ok());
      const std::string where = what + " threads=" + std::to_string(threads) +
                                (pooled ? " pooled" : " in-RAM");
      EXPECT_EQ(stats.strip_width, strip_width) << where;
      EXPECT_EQ(stats.scratch_bytes,
                2 * strip_width * n * static_cast<int64_t>(sizeof(double)))
          << where;
      ExpectSameBytes(want.xf.data(), state.xf.data(), n * want.xf.cols(),
                      where + " xf");
      ExpectSameBytes(want.xb.data(), state.xb.data(), n * want.xb.cols(),
                      where + " xb");
      ExpectSameBytes(want.y.data(), state.y.data(), d * want.y.cols(),
                      where + " y");
      ExpectSameBytes(want.sf.data(), state.sf.data(), n * d, where + " sf");
      ExpectSameBytes(want.sb.data(), state.sb.data(), n * d, where + " sb");
    }
  }
}

TEST(CcdOracleTest, MatchesPerRowSweepAtFullStrips) {
  constexpr int kIterations = 2;
  for (const int64_t n : {1, 37, 101}) {
    for (const int64_t d : {1, 5, 103}) {
      for (const int64_t h : {5, 7}) {
        const OracleFactors start = RandomFactors(n, d, h, 100 + n + d + h);
        OracleFactors want = start;
        ReferenceCcd(&want, kIterations);
        ExpectCcdMatchesOracle(start, want, kIterations, /*strip_width=*/d,
                               "n=" + std::to_string(n) + " d=" +
                                   std::to_string(d) + " h=" +
                                   std::to_string(h));
      }
    }
  }
}

TEST(CcdOracleTest, MatchesPerRowSweepAtNarrowStrips) {
  // Width 1 at n = 40000 and width 3 (strips 3, 3, 1) at n = 20000: the
  // strips a 1 MiB budget gives these shapes (memory_plan_test.cc).
  constexpr int kIterations = 2;
  constexpr int64_t kD = 7;
  for (const auto& [n, width] : {std::pair<int64_t, int64_t>{40000, 1},
                                 std::pair<int64_t, int64_t>{20000, 3}}) {
    const OracleFactors start = RandomFactors(n, kD, 5, 7 + n);
    OracleFactors want = start;
    ReferenceCcd(&want, kIterations);
    ExpectCcdMatchesOracle(start, want, kIterations, width,
                           "n=" + std::to_string(n));
  }
}

TEST(CcdOracleTest, UnboundedStripsCappedAndMatchWholeStrips) {
  // n = 8000, d = 40: strips 32, 8 (the unbounded cap's width at this
  // shape) and one strip of all 40 (a 5 MiB budget's) both match the
  // per-row oracle, hence each other, byte for byte.
  constexpr int kIterations = 2;
  constexpr int64_t kN = 8000;
  constexpr int64_t kD = 40;
  const OracleFactors start = RandomFactors(kN, kD, 5, 8040);
  OracleFactors want = start;
  ReferenceCcd(&want, kIterations);
  ExpectCcdMatchesOracle(start, want, kIterations, /*strip_width=*/32,
                         "unbounded");
  ExpectCcdMatchesOracle(start, want, kIterations, /*strip_width=*/kD,
                         "whole strip");
}

TEST(CcdTest, GreedyBeatsRandomAtEqualIterations) {
  // The Section 5.7 ablation in miniature: same CCD budget, greedy seeding
  // lands at a lower objective.
  const AffinitySlabs affinity = TestAffinity();
  auto greedy = GreedyInit(affinity, InitFor(16, 6)).ValueOrDie();
  auto random =
      RandomInit(affinity, InitFor(16, 5, nullptr, /*seed=*/5)).ValueOrDie();
  CcdOptions options;
  options.iterations = 2;
  ASSERT_TRUE(CcdRefine(&greedy, options).ok());
  ASSERT_TRUE(CcdRefine(&random, options).ok());
  EXPECT_LT(Objective(greedy), Objective(random));
}

}  // namespace
}  // namespace pane
