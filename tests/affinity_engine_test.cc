// Tests for the panel-streamed affinity engine: every panel decomposition
// (width 1, width > d, non-divisible widths, budget-derived widths), thread
// count (Lemma 4.1: PAPMI's block-parallel run equals serial APMI) and
// spilled or in-RAM output must reproduce the unfused serial reference
// (ApmiProbabilities + SpmiFromProbabilities) bitwise, and the engine's
// reported scratch allocation must respect the memory budget.
#include "src/core/affinity_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/sync.h"
#include "src/core/affinity.h"
#include "src/core/apmi.h"
#include "src/parallel/thread_pool.h"
#include "src/store/buffer_pool.h"
#include "test_util.h"

namespace pane {
namespace {

struct GraphInputs {
  CsrMatrix p;
  CsrMatrix pt;
  const CsrMatrix* r;
};

GraphInputs MakeInputs(const AttributedGraph& g) {
  GraphInputs in;
  in.p = g.RandomWalkMatrix();
  in.pt = in.p.Transposed();
  in.r = &g.attributes();
  return in;
}

// The historical unfused path: dense probability matrices, then the SPMI
// transform as a separate pass. The engine must match it bitwise.
AffinityMatrices ReferenceAffinity(const GraphInputs& in, double alpha,
                                   int t) {
  ApmiInputs inputs;
  inputs.p = &in.p;
  inputs.p_transposed = &in.pt;
  inputs.r = in.r;
  inputs.alpha = alpha;
  inputs.t = t;
  return SpmiFromProbabilities(ApmiProbabilities(inputs).ValueOrDie());
}

AffinitySlabs RunEngine(const GraphInputs& in,
                        const AffinityEngineOptions& options,
                        AffinityEngineStats* stats = nullptr) {
  return ComputeAffinitySlabs(in.p, in.pt, *in.r, options, stats)
      .ValueOrDie();
}

void ExpectBitwiseEqual(const AffinityMatrices& want, const AffinitySlabs& got,
                        const std::string& label) {
  EXPECT_EQ(got.forward.MaxAbsDiff(want.forward), 0.0) << label;
  EXPECT_EQ(got.backward.MaxAbsDiff(want.backward), 0.0) << label;
}

// A pool small enough that the spilled engine runs evict pages.
store::BufferPool::Options TightPool() {
  store::BufferPool::Options options;
  options.budget_bytes = 64 * 1024;
  options.page_bytes = 4096;
  return options;
}

// ---------------------------------------------------------------------------
// Panel-width sweep: width 1, small widths, a width that does not divide d,
// exactly d, and wider than d, serial and pooled — all bitwise equal to the
// unfused reference.

class PanelWidthSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(PanelWidthSweep, BitwiseEqualToUnfusedReferenceSerial) {
  const AttributedGraph g = testing::SmallSbm(41, 250);  // d = 80
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 5);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 5;
  options.panel_width = GetParam();
  AffinityEngineStats stats;
  const AffinitySlabs got = RunEngine(in, options, &stats);
  ExpectBitwiseEqual(reference, got,
                     "panel_width=" + std::to_string(GetParam()));
  // Widths beyond d are clamped to d.
  EXPECT_LE(stats.panel_width, in.r->cols());
  EXPECT_EQ(stats.num_panels,
            (in.r->cols() + stats.panel_width - 1) / stats.panel_width);
}

TEST_P(PanelWidthSweep, BitwiseEqualToUnfusedReferencePooled) {
  const AttributedGraph g = testing::SmallSbm(42, 250);
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.3, 4);
  ThreadPool pool(4);
  AffinityEngineOptions options;
  options.alpha = 0.3;
  options.t = 4;
  options.pool = &pool;
  options.panel_width = GetParam();
  const AffinitySlabs got = RunEngine(in, options);
  ExpectBitwiseEqual(reference, got,
                     "pooled panel_width=" + std::to_string(GetParam()));
}

// d = 80: 1 and 7 exercise narrow / non-divisible panels (80 % 7 != 0),
// 33 a non-divisible mid width, 80 the single-panel case, 200 > d clamping.
INSTANTIATE_TEST_SUITE_P(WidthGrid, PanelWidthSweep,
                         ::testing::Values<int64_t>(1, 7, 33, 80, 200));

TEST(AffinityEngineTest, Figure1GraphAllWidths) {
  // 3 attributes with degenerate walks (nodes without attributes).
  const AttributedGraph g = testing::Figure1Graph();
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 3);
  for (int64_t width = 1; width <= 4; ++width) {
    AffinityEngineOptions options;
    options.alpha = 0.5;
    options.t = 3;
    options.panel_width = width;
    ExpectBitwiseEqual(reference, RunEngine(in, options),
                       "figure1 width=" + std::to_string(width));
  }
}

// ---------------------------------------------------------------------------
// Budget-derived widths.

TEST(AffinityEngineTest, BudgetDerivesWidthAndRespectsIt) {
  const AttributedGraph g = testing::SmallSbm(43, 400);  // n=400, d=80
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 5);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 5;
  // 1 MiB budget, serial: width = 2^20 / (2 * 8 * 400) = 163 -> clamped to
  // d = 80 here; shrink the budget until the width is genuinely partial.
  options.memory_budget_mb = 1;
  AffinityEngineStats stats;
  const AffinitySlabs got = RunEngine(in, options, &stats);
  ExpectBitwiseEqual(reference, got, "budget=1MiB");
  EXPECT_FALSE(stats.budget_clamped);
  // Regression: the reported scratch allocation never exceeds the budget
  // when the budget admits at least one width-1 panel.
  EXPECT_LE(stats.scratch_bytes, options.memory_budget_mb << 20);
}

TEST(AffinityEngineTest, PooledBudgetSequentialPanelsGetWholeBudget) {
  // n=500, 8 workers, 1 MiB: a single full-width panel fits the budget, so
  // the engine runs panels in sequence (row-parallel inside) rather than
  // slicing the budget across in-flight panels it will never have.
  const AttributedGraph g = testing::SmallSbm(44, 500);
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 5);
  ThreadPool pool(8);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 5;
  options.pool = &pool;
  options.memory_budget_mb = 1;
  AffinityEngineStats stats;
  const AffinitySlabs got = RunEngine(in, options, &stats);
  ExpectBitwiseEqual(reference, got, "pooled budget=1MiB sequential");
  EXPECT_FALSE(stats.budget_clamped);
  EXPECT_FALSE(stats.panel_parallel);
  EXPECT_EQ(stats.panel_width, in.r->cols());  // whole budget, one panel
  EXPECT_LE(stats.scratch_bytes, options.memory_budget_mb << 20);
}

TEST(AffinityEngineTest, PooledBudgetRespectedAcrossInFlightPanels) {
  // n=4000, 4 workers, 1 MiB: the budget-wide panel already splits into
  // enough panels to occupy the pool, so the engine goes panel-parallel and
  // re-divides the budget across the up-to-5 (workers + draining caller)
  // panels in flight.
  const AttributedGraph g = testing::SmallSbm(44, 4000);
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 5);
  ThreadPool pool(4);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 5;
  options.pool = &pool;
  options.memory_budget_mb = 1;
  AffinityEngineStats stats;
  const AffinitySlabs got = RunEngine(in, options, &stats);
  ExpectBitwiseEqual(reference, got, "pooled budget=1MiB panel-parallel");
  EXPECT_FALSE(stats.budget_clamped);
  EXPECT_TRUE(stats.panel_parallel);
  // 4 workers sharing 1 MiB across in-flight panels must shrink the width
  // well below the whole-budget derivation.
  EXPECT_LT(stats.panel_width, in.r->cols());
  EXPECT_LE(stats.scratch_bytes, options.memory_budget_mb << 20);
}

TEST(AffinityEngineTest, BudgetBelowPanelParallelFallsBackToSequential) {
  // n=9000, 8 workers, 1 MiB: one panel per in-flight worker would need
  // width < 1, but sequential width-7 panels (2^20 / (2*8*9000) = 7) fit.
  // The engine must prefer the budget-respecting sequential decomposition
  // over clamping into a budget-violating panel-parallel one.
  const AttributedGraph g = testing::SmallSbm(45, 9000);
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(8);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 2;
  options.pool = &pool;
  options.memory_budget_mb = 1;
  AffinityEngineStats stats;
  const AffinitySlabs got = RunEngine(in, options, &stats);
  EXPECT_FALSE(stats.budget_clamped);
  EXPECT_FALSE(stats.panel_parallel);
  EXPECT_EQ(stats.panel_width, 7);
  EXPECT_LE(stats.scratch_bytes, options.memory_budget_mb << 20);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 2);
  ExpectBitwiseEqual(reference, got, "sequential fallback panels");
}

TEST(AffinityEngineTest, BudgetSmallerThanOnePanelClampsWithWarningFlag) {
  // Even a single sequential width-1 panel exceeds the budget:
  // 2 * 8 * n = 1,120,000 bytes > 1 MiB for n=70000. The engine clamps to
  // one width-1 panel at a time (the smallest possible overshoot) and says
  // so via budget_clamped.
  const AttributedGraph g = testing::SmallSbm(46, 70000);
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(4);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 2;
  options.pool = &pool;
  options.memory_budget_mb = 1;
  AffinityEngineStats stats;
  const AffinitySlabs got = RunEngine(in, options, &stats);
  EXPECT_TRUE(stats.budget_clamped);
  EXPECT_FALSE(stats.panel_parallel);
  EXPECT_EQ(stats.panel_width, 1);
  EXPECT_EQ(stats.num_panels, in.r->cols());
  // Overshoot is bounded by one panel's scratch, not max_in_flight of them.
  EXPECT_EQ(stats.scratch_bytes,
            2 * static_cast<int64_t>(sizeof(double)) * in.r->rows());
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 2);
  ExpectBitwiseEqual(reference, got, "clamped width-1 panels");
}

TEST(AffinityEngineTest, UnboundedDefaultsReproduceHistoricalShapes) {
  const AttributedGraph g = testing::SmallSbm(46, 200);  // d = 80
  const GraphInputs in = MakeInputs(g);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 3;
  AffinityEngineStats stats;
  RunEngine(in, options, &stats);
  // Serial, unbounded: one panel spanning the whole attribute set (APMI).
  EXPECT_EQ(stats.panel_width, 80);
  EXPECT_EQ(stats.num_panels, 1);

  ThreadPool pool(5);
  options.pool = &pool;
  RunEngine(in, options, &stats);
  // Pooled, unbounded: ceil(d / nb) columns per worker (PAPMI).
  EXPECT_EQ(stats.panel_width, 16);
  EXPECT_EQ(stats.num_panels, 5);
  EXPECT_TRUE(stats.panel_parallel);
}

TEST(AffinityEngineTest, UnboundedScratchCappedAndBitwiseEqualToHistorical) {
  // n = 4000, d = 80: the historical shapes would hold 80 x 64000 B = 5.1 MB
  // of scratch serially and 3 in-flight x 40 x 64000 B = 7.7 MB with two
  // workers, both over the unbounded cap; the capped widths must fit it and
  // reproduce the historical widths' bytes.
  const AttributedGraph g = testing::SmallSbm(47, 4000);
  const GraphInputs in = MakeInputs(g);
  const int64_t n = in.r->rows();
  const int64_t d = in.r->cols();
  for (const int threads : {1, 2}) {
    ThreadPool pool(threads);
    AffinityEngineOptions options;
    options.alpha = 0.5;
    options.t = 3;
    options.pool = &pool;
    const int64_t historical = (d + threads - 1) / threads;
    const std::string what = "threads=" + std::to_string(threads);
    AffinityEngineStats capped_stats, historical_stats;
    const AffinitySlabs capped = RunEngine(in, options, &capped_stats);
    options.panel_width = historical;
    const AffinitySlabs uncapped = RunEngine(in, options, &historical_stats);
    EXPECT_GT(historical_stats.scratch_bytes, kUnboundedScratchBytes) << what;
    EXPECT_LE(capped_stats.scratch_bytes, kUnboundedScratchBytes) << what;
    EXPECT_LT(capped_stats.panel_width, historical) << what;
    const size_t bytes = static_cast<size_t>(n * d) * sizeof(double);
    EXPECT_EQ(std::memcmp(capped.forward.data(), uncapped.forward.data(),
                          bytes), 0) << what;
    EXPECT_EQ(std::memcmp(capped.backward.data(), uncapped.backward.data(),
                          bytes), 0) << what;
  }
}

TEST(AffinityEngineTest, NegativeBackwardRowSumZeroesRowLikeReference) {
  // P = I, so the backward probabilities are a scaled copy of Rc. Column
  // sums of R are +0.5 each, so Rc row 1 normalizes to {-1, -1}: a backward
  // row with nonzero entries and a negative sum. The reference defines B'
  // as all-zero there; the engine's in-place transform must not leak the
  // raw accumulated values.
  const CsrMatrix p =
      CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}}).ValueOrDie();
  const CsrMatrix pt = p.Transposed();
  const CsrMatrix r =
      CsrMatrix::FromTriplets(
          2, 2, {{0, 0, 1.0}, {1, 0, -0.5}, {0, 1, 1.0}, {1, 1, -0.5}})
          .ValueOrDie();
  ApmiInputs ref_inputs;
  ref_inputs.p = &p;
  ref_inputs.p_transposed = &pt;
  ref_inputs.r = &r;
  ref_inputs.alpha = 0.5;
  ref_inputs.t = 3;
  const AffinityMatrices reference =
      SpmiFromProbabilities(ApmiProbabilities(ref_inputs).ValueOrDie());
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 3;
  options.panel_width = 1;
  const AffinitySlabs got =
      ComputeAffinitySlabs(p, pt, r, options).ValueOrDie();
  ExpectBitwiseEqual(reference, got, "negative backward row sum");
  EXPECT_EQ(got.backward.Row(1)[0], 0.0);
  EXPECT_EQ(got.backward.Row(1)[1], 0.0);
}

// ---------------------------------------------------------------------------
// Lemma 4.1: PAPMI's block-parallel decomposition (the unbounded pooled
// default, ceil(d / nb) columns per worker) returns *the same* F', B' as
// single-thread APMI, bitwise.

class Lemma41ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(Lemma41ThreadSweep, PooledIdenticalToSerialReference) {
  const int nb = GetParam();
  const AttributedGraph g = testing::SmallSbm(31, 300);
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(nb);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 5;
  options.pool = &pool;
  ExpectBitwiseEqual(ReferenceAffinity(in, 0.5, 5), RunEngine(in, options),
                     "nb=" + std::to_string(nb));
}

INSTANTIATE_TEST_SUITE_P(ThreadGrid, Lemma41ThreadSweep,
                         ::testing::Values(2, 3, 5, 8));

TEST(AffinityEngineTest, Lemma41MoreBlocksThanAttributes) {
  // d = 3 attributes split across 8 workers: most blocks are empty.
  const AttributedGraph g = testing::Figure1Graph();
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(8);
  AffinityEngineOptions options;
  options.alpha = 0.3;
  options.t = 4;
  options.pool = &pool;
  ExpectBitwiseEqual(ReferenceAffinity(in, 0.3, 4), RunEngine(in, options),
                     "figure1 nb=8");
}

TEST(AffinityEngineTest, Lemma41DifferentAlphaAndT) {
  const AttributedGraph g = testing::SmallSbm(33, 200);
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(4);
  for (const double alpha : {0.15, 0.7}) {
    for (const int t : {1, 6}) {
      AffinityEngineOptions options;
      options.alpha = alpha;
      options.t = t;
      options.pool = &pool;
      ExpectBitwiseEqual(ReferenceAffinity(in, alpha, t),
                         RunEngine(in, options),
                         "alpha=" + std::to_string(alpha) +
                             " t=" + std::to_string(t));
    }
  }
}

// ---------------------------------------------------------------------------
// Graph-level entry.

TEST(AffinityEngineTest, GraphEntryAcceptsPoolAndBudget) {
  const AttributedGraph g = testing::SmallSbm(47, 300);
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(4);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = ComputeIterationCount(0.015, 0.5);
  options.pool = &pool;
  options.memory_budget_mb = 2;
  AffinityEngineStats stats;
  AffinitySlabs got;
  got.forward = FactorSlab::Create(g.num_nodes(), g.num_attributes())
                    .ValueOrDie();
  got.backward = FactorSlab::Create(g.num_nodes(), g.num_attributes())
                     .ValueOrDie();
  ASSERT_TRUE(ComputeGraphAffinityIntoSlabs(g, options, &got, &stats).ok());
  ExpectBitwiseEqual(ReferenceAffinity(in, 0.5, options.t), got,
                     "graph entry pool+budget");
  EXPECT_LE(stats.scratch_bytes, int64_t{2} << 20);
}

TEST(AffinityEngineTest, EmptyMatricesReturnEmptyOutputs) {
  // n = 0 with a budget used to divide by zero deriving the panel width.
  const CsrMatrix p = CsrMatrix::FromTriplets(0, 0, {}).ValueOrDie();
  const CsrMatrix r = CsrMatrix::FromTriplets(0, 3, {}).ValueOrDie();
  AffinityEngineOptions options;
  options.memory_budget_mb = 1;
  const auto out = ComputeAffinitySlabs(p, p, r, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->forward.rows(), 0);
  EXPECT_EQ(out->forward.cols(), 3);
  EXPECT_EQ(out->backward.rows(), 0);
}

// ---------------------------------------------------------------------------
// Spilled outputs and the panel consumer.

TEST(AffinityEngineTest, SpilledSlabsBitwiseEqualToReference) {
  // Spilled through an evicting pool, serial and pooled, budgeted and
  // unbounded: always the reference's bytes.
  const AttributedGraph g = testing::SmallSbm(48, 250);
  const GraphInputs in = MakeInputs(g);
  const AffinityMatrices reference = ReferenceAffinity(in, 0.5, 4);
  ThreadPool pool(4);
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const int64_t budget_mb : {0, 1}) {
      store::BufferPool buffer_pool(TightPool());
      AffinityEngineOptions options;
      options.alpha = 0.5;
      options.t = 4;
      options.pool = threads;
      options.memory_budget_mb = budget_mb;
      const int64_t n = in.r->rows();
      const int64_t d = in.r->cols();
      AffinitySlabs got;
      got.forward = FactorSlab::Create(n, d, &buffer_pool).ValueOrDie();
      got.backward = FactorSlab::Create(n, d, &buffer_pool).ValueOrDie();
      AffinityEngineStats stats;
      ASSERT_TRUE(
          ComputeAffinityIntoSlabs(in.p, in.pt, *in.r, options, &got, &stats)
              .ok());
      const std::string label =
          std::string(threads == nullptr ? "serial" : "pooled") +
          " budget=" + std::to_string(budget_mb);
      ASSERT_TRUE(got.forward.spilled()) << label;
      EXPECT_TRUE(stats.spilled) << label;
      EXPECT_FALSE(stats.panel_parallel) << label;  // spill runs in sequence
      EXPECT_GT(buffer_pool.stats().evicted_pages, 0) << label;
      ExpectBitwiseEqual(reference, got, label);
    }
  }
}

TEST(AffinityEngineTest, PanelConsumerSeesEveryPanelOnce) {
  const AttributedGraph g = testing::SmallSbm(50, 200);  // d = 80
  const GraphInputs in = MakeInputs(g);
  ThreadPool pool(4);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 3;
  options.panel_width = 16;  // 5 panels per direction
  options.pool = &pool;
  Mutex mutex;
  int64_t forward_events = 0;
  int64_t backward_events = 0;
  int64_t forward_complete_events = 0;
  int64_t cols_seen = 0;
  options.panel_consumer = [&](const AffinityPanelEvent& event) {
    MutexLock lock(&mutex);
    (event.forward ? forward_events : backward_events) += 1;
    if (event.forward_complete) {
      ++forward_complete_events;
      EXPECT_EQ(event.panels_done, event.num_panels);
    }
    if (event.forward) cols_seen += event.col_end - event.col_begin;
  };
  AffinityEngineStats stats;
  ComputeAffinitySlabs(in.p, in.pt, *in.r, options, &stats).ValueOrDie();
  EXPECT_EQ(forward_events, stats.num_panels);
  EXPECT_EQ(backward_events, stats.num_panels);
  EXPECT_EQ(forward_complete_events, 1);
  EXPECT_EQ(cols_seen, in.r->cols());
}

TEST(AffinityEngineTest, IntoSlabsRejectsMisshapenSlabs) {
  const AttributedGraph g = testing::Figure1Graph();
  const GraphInputs in = MakeInputs(g);
  AffinityEngineOptions options;
  options.t = 2;
  AffinitySlabs out;
  out.forward = DenseMatrix(2, 2);  // wrong shape, non-empty
  EXPECT_FALSE(
      ComputeAffinityIntoSlabs(in.p, in.pt, *in.r, options, &out).ok());
}

TEST(AffinityEngineTest, IntoSlabsRejectsEmptySlabs) {
  // The engine never creates its outputs: the caller owns where they live.
  const AttributedGraph g = testing::Figure1Graph();
  const GraphInputs in = MakeInputs(g);
  AffinityEngineOptions options;
  options.t = 2;
  AffinitySlabs out;  // both 0 x 0
  const Status status =
      ComputeAffinityIntoSlabs(in.p, in.pt, *in.r, options, &out);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(out.forward.empty());
  EXPECT_TRUE(out.backward.empty());
}

TEST(AffinityEngineTest, InputValidation) {
  const AttributedGraph g = testing::Figure1Graph();
  const GraphInputs in = MakeInputs(g);
  AffinityEngineOptions options;
  options.alpha = 0.0;  // out of range
  EXPECT_FALSE(ComputeAffinitySlabs(in.p, in.pt, *in.r, options).ok());
  options.alpha = 0.5;
  options.t = 0;  // out of range
  EXPECT_FALSE(ComputeAffinitySlabs(in.p, in.pt, *in.r, options).ok());
  options.t = 3;
  options.memory_budget_mb = -1;
  EXPECT_FALSE(ComputeAffinitySlabs(in.p, in.pt, *in.r, options).ok());
  // A budget whose byte count overflows int64_t.
  options.memory_budget_mb = (std::numeric_limits<int64_t>::max() >> 20) + 1;
  EXPECT_FALSE(ComputeAffinitySlabs(in.p, in.pt, *in.r, options).ok());
  options.memory_budget_mb = 0;
  options.panel_width = -2;
  EXPECT_FALSE(ComputeAffinitySlabs(in.p, in.pt, *in.r, options).ok());
  options.panel_width = 0;
  // P^T shape mismatch.
  EXPECT_FALSE(ComputeAffinitySlabs(in.p, *in.r, *in.r, options).ok());
}

}  // namespace
}  // namespace pane
