// Tests for the warm start of Pane::Train (the time-varying graph
// extension): validation of the options and of the previous embedding,
// quality after small update batches, and the warm-vs-cold advantage that
// justifies seeding from the previous embedding.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/common/random.h"
#include "src/core/pane.h"
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

// The options the base embeddings below train with.
PaneOptions TrainOptions(int k) {
  PaneOptions options;
  options.k = k;
  return options;
}

// The options every warm start below refreshes with: the training options
// plus two CCD sweeps on top of the warm seed.
PaneOptions WarmOptions(int k, int threads = 1) {
  PaneOptions options = TrainOptions(k);
  options.num_threads = threads;
  options.ccd_iterations = 2;
  return options;
}

Result<PaneEmbedding> WarmTrain(const PaneOptions& options,
                                const AttributedGraph& g,
                                const PaneEmbedding& previous,
                                PaneStats* stats = nullptr) {
  return Pane(options).Train(g, stats, &previous);
}

void ExpectInvalid(const Result<PaneEmbedding>& result,
                   const std::string& needle) {
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find(needle), std::string::npos)
      << result.status().ToString();
}

TEST(WarmStartTest, ValidatesInputs) {
  const AttributedGraph g = testing::SmallSbm(141, 200);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();

  // Attribute count change rejected.
  GraphBuilder builder(10, g.num_attributes() + 1);
  builder.AddEdge(0, 1);
  builder.AddNodeAttribute(0, 0, 1.0);
  const AttributedGraph wrong_d = builder.Build(false).ValueOrDie();
  ExpectInvalid(WarmTrain(WarmOptions(16), wrong_d, base), "warm start y");

  // Node shrinkage rejected.
  GraphBuilder small(10, g.num_attributes());
  small.AddEdge(0, 1);
  small.AddNodeAttribute(0, 0, 1.0);
  ExpectInvalid(
      WarmTrain(WarmOptions(16), small.Build(false).ValueOrDie(), base),
      "warm start xf");

  // The budget's byte count (mb << 20) must fit in int64_t: the largest
  // such budget refreshes, one more MiB is rejected instead of wrapping.
  PaneOptions budget = WarmOptions(16);
  budget.ccd_iterations = 1;
  budget.memory_budget_mb = std::numeric_limits<int64_t>::max() >> 20;
  EXPECT_TRUE(WarmTrain(budget, g, base).ok());
  budget.memory_budget_mb += 1;
  EXPECT_TRUE(WarmTrain(budget, g, base).status().IsInvalidArgument());
  budget.memory_budget_mb = -1;
  EXPECT_TRUE(WarmTrain(budget, g, base).status().IsInvalidArgument());
}

TEST(WarmStartTest, RejectsOutOfRangeAlphaAndEpsilon) {
  const AttributedGraph g = testing::SmallSbm(146, 200);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  for (const double bad : {0.0, 1.0, 1.5, -0.5}) {
    PaneOptions options = WarmOptions(16);
    options.alpha = bad;
    ExpectInvalid(WarmTrain(options, g, base), "alpha");
    options = WarmOptions(16);
    options.epsilon = bad;
    ExpectInvalid(WarmTrain(options, g, base), "epsilon");
  }
}

TEST(WarmStartTest, RejectsXbWithMissingRows) {
  const AttributedGraph g = testing::SmallSbm(147, 200);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  PaneEmbedding half = base;
  half.xb = DenseMatrix(base.xb.rows() / 2, base.xb.cols());
  ExpectInvalid(WarmTrain(WarmOptions(16), g, half), "warm start xb");
}

TEST(WarmStartTest, RejectsXbWithExtraColumn) {
  const AttributedGraph g = testing::SmallSbm(148, 200);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  PaneEmbedding wide = base;
  wide.xb = DenseMatrix(base.xb.rows(), base.xb.cols() + 1);
  ExpectInvalid(WarmTrain(WarmOptions(16), g, wide), "warm start xb");
}

TEST(WarmStartTest, RejectsYWithMissingColumn) {
  const AttributedGraph g = testing::SmallSbm(149, 200);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  PaneEmbedding narrow = base;
  narrow.y = DenseMatrix(base.y.rows(), base.y.cols() - 1);
  ExpectInvalid(WarmTrain(WarmOptions(16), g, narrow), "warm start y");
}

TEST(WarmStartTest, RejectsShapesThatDisagreeWithK) {
  const AttributedGraph g = testing::SmallSbm(150, 200);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  // A k = 16 embedding cannot seed a k = 32 run.
  ExpectInvalid(WarmTrain(WarmOptions(32), g, base), "warm start y");
  // Nor can one without node rows seed anything.
  PaneEmbedding empty;
  empty.xf = DenseMatrix(0, base.xf.cols());
  empty.xb = DenseMatrix(0, base.xb.cols());
  empty.y = base.y;
  ExpectInvalid(WarmTrain(WarmOptions(16), g, empty), "warm start xf");
}

TEST(WarmStartTest, SmallUpdateKeepsQuality) {
  const AttributedGraph g = testing::SmallSbm(142, 400);
  PaneOptions options;
  options.k = 32;
  const auto base = Pane(options).Train(g).ValueOrDie();

  const AttributedGraph updated = Perturb(g, /*extra_edges=*/60,
                                          /*extra_nodes=*/0, 1);
  PaneStats stats;
  const auto refreshed =
      WarmTrain(WarmOptions(32), updated, base, &stats).ValueOrDie();

  // Full retrain objective as the reference.
  PaneStats full_stats;
  (void)Pane(options).Train(updated, &full_stats).ValueOrDie();
  // Two CCD sweeps from the warm seed reach within 10% of full retrain.
  EXPECT_LT(stats.objective_final, 1.1 * full_stats.objective_final);
  EXPECT_EQ(refreshed.xf.rows(), updated.num_nodes());
}

TEST(WarmStartTest, WarmStartBeatsColdAtEqualBudget) {
  const AttributedGraph g = testing::SmallSbm(143, 400);
  PaneOptions options;
  options.k = 32;
  const auto base = Pane(options).Train(g).ValueOrDie();
  const AttributedGraph updated = Perturb(g, 80, 0, 2);

  PaneStats warm_stats;
  (void)WarmTrain(WarmOptions(32), updated, base, &warm_stats).ValueOrDie();

  // Cold start with the same 2-iteration budget but random init.
  PaneOptions cold = options;
  cold.greedy_init = false;
  cold.ccd_iterations = 2;
  PaneStats cold_stats;
  (void)Pane(cold).Train(updated, &cold_stats).ValueOrDie();

  EXPECT_LT(warm_stats.objective_final, cold_stats.objective_final);
}

TEST(WarmStartTest, HandlesNewNodes) {
  const AttributedGraph g = testing::SmallSbm(144, 300);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  const AttributedGraph updated = Perturb(g, 20, /*extra_nodes=*/30, 3);
  const auto refreshed =
      WarmTrain(WarmOptions(16), updated, base).ValueOrDie();
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

TEST(WarmStartTest, ParallelRefreshMatchesSerialQuality) {
  const AttributedGraph g = testing::SmallSbm(145, 300);
  const auto base = Pane(TrainOptions(16)).Train(g).ValueOrDie();
  const AttributedGraph updated = Perturb(g, 50, 0, 4);

  PaneStats serial_stats;
  (void)WarmTrain(WarmOptions(16), updated, base, &serial_stats)
      .ValueOrDie();

  PaneStats parallel_stats;
  (void)WarmTrain(WarmOptions(16, /*threads=*/4), updated, base,
                  &parallel_stats)
      .ValueOrDie();

  EXPECT_NEAR(parallel_stats.objective_final, serial_stats.objective_final,
              0.05 * serial_stats.objective_final);
}

}  // namespace
}  // namespace pane
