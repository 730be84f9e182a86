// Tests for the warm-start refresh (time-varying graph extension): shape
// validation, quality after small update batches, and the warm-vs-cold
// advantage that justifies the module.
#include "src/core/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/random.h"
#include "src/tasks/link_prediction.h"
#include "test_util.h"

namespace pane {
namespace {

// Rebuilds `g` with `extra_edges` new random edges appended (and optionally
// `extra_nodes` fresh nodes wired into the graph).
AttributedGraph Perturb(const AttributedGraph& g, int64_t extra_edges,
                        int64_t extra_nodes, uint64_t seed) {
  Rng rng(seed);
  const int64_t n = g.num_nodes() + extra_nodes;
  GraphBuilder builder(n, g.num_attributes());
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    const CsrMatrix::RowView row = g.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) builder.AddEdge(u, row.cols[p]);
  }
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const CsrMatrix::RowView row = g.attributes().Row(v);
    for (int64_t p = 0; p < row.length; ++p) {
      builder.AddNodeAttribute(v, row.cols[p], row.vals[p]);
    }
  }
  for (int64_t e = 0; e < extra_edges; ++e) {
    builder.AddEdge(
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n))),
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n))));
  }
  for (int64_t v = g.num_nodes(); v < n; ++v) {
    builder.AddEdge(v, static_cast<int64_t>(
                           rng.UniformInt(static_cast<uint64_t>(g.num_nodes()))));
    builder.AddNodeAttribute(
        v,
        static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(g.num_attributes()))),
        1.0);
  }
  return builder.Build(false).ValueOrDie();
}

TEST(RefreshTest, ValidatesInputs) {
  const AttributedGraph g = testing::SmallSbm(141, 200);
  PaneOptions options;
  options.k = 16;
  const auto base = Pane(options).Train(g).ValueOrDie();

  // Attribute count change rejected.
  GraphBuilder builder(10, g.num_attributes() + 1);
  builder.AddEdge(0, 1);
  builder.AddNodeAttribute(0, 0, 1.0);
  const AttributedGraph wrong_d = builder.Build(false).ValueOrDie();
  EXPECT_FALSE(RefreshEmbedding(wrong_d, base, RefreshOptions{}).ok());

  // Node shrinkage rejected.
  GraphBuilder small(10, g.num_attributes());
  small.AddEdge(0, 1);
  small.AddNodeAttribute(0, 0, 1.0);
  EXPECT_FALSE(
      RefreshEmbedding(small.Build(false).ValueOrDie(), base, RefreshOptions{})
          .ok());

  // The budget's byte count (mb << 20) must fit in int64_t: the largest
  // such budget refreshes, one more MiB is rejected instead of wrapping.
  RefreshOptions budget;
  budget.ccd_iterations = 1;
  budget.memory_budget_mb = std::numeric_limits<int64_t>::max() >> 20;
  EXPECT_TRUE(RefreshEmbedding(g, base, budget).ok());
  budget.memory_budget_mb += 1;
  EXPECT_TRUE(
      RefreshEmbedding(g, base, budget).status().IsInvalidArgument());
  budget.memory_budget_mb = -1;
  EXPECT_TRUE(
      RefreshEmbedding(g, base, budget).status().IsInvalidArgument());
}

TEST(RefreshTest, SmallUpdateKeepsQuality) {
  const AttributedGraph g = testing::SmallSbm(142, 400);
  PaneOptions options;
  options.k = 32;
  const auto base = Pane(options).Train(g).ValueOrDie();

  const AttributedGraph updated = Perturb(g, /*extra_edges=*/60,
                                          /*extra_nodes=*/0, 1);
  RefreshStats stats;
  const auto refreshed =
      RefreshEmbedding(updated, base, RefreshOptions{}, &stats).ValueOrDie();

  // Full retrain objective as the reference.
  PaneStats full_stats;
  (void)Pane(options).Train(updated, &full_stats).ValueOrDie();
  // Two CCD sweeps from the warm seed reach within 10% of full retrain.
  EXPECT_LT(stats.objective_final, 1.1 * full_stats.objective_final);
  EXPECT_EQ(refreshed.xf.rows(), updated.num_nodes());
}

TEST(RefreshTest, WarmStartBeatsColdAtEqualBudget) {
  const AttributedGraph g = testing::SmallSbm(143, 400);
  PaneOptions options;
  options.k = 32;
  const auto base = Pane(options).Train(g).ValueOrDie();
  const AttributedGraph updated = Perturb(g, 80, 0, 2);

  RefreshStats warm_stats;
  (void)RefreshEmbedding(updated, base, RefreshOptions{}, &warm_stats)
      .ValueOrDie();

  // Cold start with the same 2-iteration budget but random init.
  PaneOptions cold = options;
  cold.greedy_init = false;
  cold.ccd_iterations = 2;
  PaneStats cold_stats;
  (void)Pane(cold).Train(updated, &cold_stats).ValueOrDie();

  EXPECT_LT(warm_stats.objective_final, cold_stats.objective_final);
}

TEST(RefreshTest, HandlesNewNodes) {
  const AttributedGraph g = testing::SmallSbm(144, 300);
  PaneOptions options;
  options.k = 16;
  const auto base = Pane(options).Train(g).ValueOrDie();
  const AttributedGraph updated = Perturb(g, 20, /*extra_nodes=*/30, 3);
  const auto refreshed =
      RefreshEmbedding(updated, base, RefreshOptions{}).ValueOrDie();
  EXPECT_EQ(refreshed.xf.rows(), 330);
  // New-node rows are live (finite, not all zero).
  double tail_norm = 0.0;
  for (int64_t v = 300; v < 330; ++v) {
    for (int64_t j = 0; j < refreshed.xf.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(refreshed.xf(v, j)));
      tail_norm += std::abs(refreshed.xf(v, j));
    }
  }
  EXPECT_GT(tail_norm, 0.0);
}

TEST(RefreshTest, ParallelRefreshMatchesSerialQuality) {
  const AttributedGraph g = testing::SmallSbm(145, 300);
  PaneOptions options;
  options.k = 16;
  const auto base = Pane(options).Train(g).ValueOrDie();
  const AttributedGraph updated = Perturb(g, 50, 0, 4);

  RefreshOptions serial;
  RefreshStats serial_stats;
  (void)RefreshEmbedding(updated, base, serial, &serial_stats).ValueOrDie();

  RefreshOptions parallel;
  parallel.num_threads = 4;
  RefreshStats parallel_stats;
  (void)RefreshEmbedding(updated, base, parallel, &parallel_stats)
      .ValueOrDie();

  EXPECT_NEAR(parallel_stats.objective_final, serial_stats.objective_final,
              0.05 * serial_stats.objective_final);
}

}  // namespace
}  // namespace pane
