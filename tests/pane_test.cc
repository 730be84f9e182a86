// End-to-end tests for the Pane driver (Algorithms 1 and 5): output shapes,
// option validation, downstream quality on homophilous graphs, serial vs
// parallel agreement, determinism, and a k-sweep property test.
#include "src/core/pane.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/tasks/attribute_inference.h"
#include "src/tasks/link_prediction.h"
#include "test_util.h"

namespace pane {
namespace {

PaneOptions DefaultOptions(int k = 32, int threads = 1) {
  PaneOptions options;
  options.k = k;
  options.num_threads = threads;
  return options;
}

TEST(PaneTest, OutputShapes) {
  const AttributedGraph g = testing::SmallSbm(61, 300);
  PaneStats stats;
  const auto embedding = Pane(DefaultOptions()).Train(g, &stats).ValueOrDie();
  EXPECT_EQ(embedding.xf.rows(), 300);
  EXPECT_EQ(embedding.xf.cols(), 16);
  EXPECT_EQ(embedding.xb.cols(), 16);
  EXPECT_EQ(embedding.y.rows(), g.num_attributes());
  EXPECT_EQ(embedding.k(), 32);
  EXPECT_EQ(stats.t, 6);  // eps = 0.015, alpha = 0.5
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_LE(stats.objective_final, stats.objective_initial * (1.0 + 1e-9));
}

TEST(PaneTest, OptionValidation) {
  const AttributedGraph g = testing::Figure1Graph();
  PaneOptions bad = DefaultOptions();
  bad.k = 7;  // odd
  EXPECT_FALSE(Pane(bad).Train(g).ok());
  bad = DefaultOptions();
  bad.alpha = 1.0;
  EXPECT_FALSE(Pane(bad).Train(g).ok());
  bad = DefaultOptions();
  bad.epsilon = 0.0;
  EXPECT_FALSE(Pane(bad).Train(g).ok());
  bad = DefaultOptions();
  bad.num_threads = 0;
  EXPECT_FALSE(Pane(bad).Train(g).ok());
}

TEST(PaneTest, MemoryBudgetByteCountMustFitInt64) {
  // The largest budget whose byte count (mb << 20) fits in int64_t trains;
  // one more MiB would wrap negative and is rejected up front.
  const AttributedGraph g = testing::Figure1Graph();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max() >> 20;
  PaneOptions options = DefaultOptions(4);
  options.memory_budget_mb = kMax;
  EXPECT_TRUE(ValidatePaneOptions(options).ok());
  EXPECT_TRUE(Pane(options).Train(g).ok());
  options.memory_budget_mb = kMax + 1;
  EXPECT_TRUE(ValidatePaneOptions(options).IsInvalidArgument());
  EXPECT_TRUE(Pane(options).Train(g).status().IsInvalidArgument());
  options.memory_budget_mb = -1;
  EXPECT_TRUE(ValidatePaneOptions(options).IsInvalidArgument());
}

TEST(PaneTest, DeterministicForFixedSeed) {
  const AttributedGraph g = testing::SmallSbm(62, 200);
  const auto a = Pane(DefaultOptions()).Train(g).ValueOrDie();
  const auto b = Pane(DefaultOptions()).Train(g).ValueOrDie();
  EXPECT_EQ(a.xf.MaxAbsDiff(b.xf), 0.0);
  EXPECT_EQ(a.xb.MaxAbsDiff(b.xb), 0.0);
  EXPECT_EQ(a.y.MaxAbsDiff(b.y), 0.0);
}

TEST(PaneTest, AttributeInferenceQuality) {
  const AttributedGraph g = testing::SmallSbm(63, 500);
  const auto split = SplitAttributes(g, 0.2, /*seed=*/1).ValueOrDie();
  const auto embedding =
      Pane(DefaultOptions(64)).Train(split.train_graph).ValueOrDie();
  const AucAp result = EvaluateAttributeInference(
      split, [&](int64_t v, int64_t r) { return embedding.AttributeScore(v, r); });
  // Homophilous SBM: held-out attribute entries are predictable well above
  // chance from multi-hop affinity.
  EXPECT_GT(result.auc, 0.78) << "AUC too low";
  EXPECT_GT(result.ap, 0.75) << "AP too low";
}

TEST(PaneTest, LinkPredictionQuality) {
  const AttributedGraph g = testing::SmallSbm(64, 500);
  const auto split = SplitEdges(g, 0.3, /*seed=*/2).ValueOrDie();
  const auto embedding =
      Pane(DefaultOptions(64)).Train(split.residual_graph).ValueOrDie();
  const EdgeScorer scorer(embedding);
  const AucAp result = EvaluateLinkPrediction(
      split, [&](int64_t u, int64_t v) { return scorer.Score(u, v); });
  EXPECT_GT(result.auc, 0.75);
}

TEST(PaneTest, ParallelCloseToSerial) {
  const AttributedGraph g = testing::SmallSbm(65, 400);
  const auto split = SplitAttributes(g, 0.2, /*seed=*/3).ValueOrDie();
  const auto serial =
      Pane(DefaultOptions(32, 1)).Train(split.train_graph).ValueOrDie();
  const auto parallel =
      Pane(DefaultOptions(32, 4)).Train(split.train_graph).ValueOrDie();
  const AucAp serial_auc = EvaluateAttributeInference(
      split, [&](int64_t v, int64_t r) { return serial.AttributeScore(v, r); });
  const AucAp parallel_auc = EvaluateAttributeInference(
      split,
      [&](int64_t v, int64_t r) { return parallel.AttributeScore(v, r); });
  // Section 5.2: parallel PANE degrades utility only marginally.
  EXPECT_NEAR(parallel_auc.auc, serial_auc.auc, 0.03);
}

TEST(PaneTest, GreedyInitBeatsRandomInitAtEqualBudget) {
  const AttributedGraph g = testing::SmallSbm(66, 400);
  PaneOptions greedy = DefaultOptions();
  greedy.ccd_iterations = 2;
  PaneOptions random = greedy;
  random.greedy_init = false;
  PaneStats greedy_stats, random_stats;
  ASSERT_TRUE(Pane(greedy).Train(g, &greedy_stats).ok());
  ASSERT_TRUE(Pane(random).Train(g, &random_stats).ok());
  EXPECT_LT(greedy_stats.objective_final, random_stats.objective_final);
}

TEST(PaneTest, WorksOnUndirectedGraphs) {
  const AttributedGraph g = testing::SmallSbm(67, 300, /*undirected=*/true);
  const auto embedding = Pane(DefaultOptions()).Train(g).ValueOrDie();
  EXPECT_EQ(embedding.xf.rows(), 300);
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < embedding.xf.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(embedding.xf(i, j)));
    }
  }
}

TEST(PaneTest, EmptyGraphRejected) {
  GraphBuilder builder(0, 0);
  const AttributedGraph g = builder.Build(false).ValueOrDie();
  EXPECT_FALSE(Pane(DefaultOptions()).Train(g).ok());
}

TEST(PaneTest, StatsPhaseTimesSumBelowTotal) {
  const AttributedGraph g = testing::SmallSbm(68, 300);
  PaneStats stats;
  ASSERT_TRUE(Pane(DefaultOptions()).Train(g, &stats).ok());
  EXPECT_LE(stats.affinity_seconds + stats.init_seconds + stats.ccd_seconds,
            stats.total_seconds + 1e-6);
}

TEST(PaneTest, CcdPhaseTimesSumBelowCcdSeconds) {
  const AttributedGraph g = testing::SmallSbm(68, 300);
  PaneStats stats;
  ASSERT_TRUE(Pane(DefaultOptions(32, 2)).Train(g, &stats).ok());
  EXPECT_GT(stats.ccd.node_sweep_seconds, 0.0);
  EXPECT_GT(stats.ccd.attribute_sweep_seconds, 0.0);
  EXPECT_GT(stats.ccd.strip_copy_seconds, 0.0);
  EXPECT_LE(stats.ccd.node_sweep_seconds + stats.ccd.attribute_sweep_seconds +
                stats.ccd.strip_copy_seconds,
            stats.ccd_seconds);
}

// Parameterized sweep over the space budget k (Figures 5a / 6a): larger k
// must never produce an invalid embedding, and quality trends upward.
class PaneKSweep : public ::testing::TestWithParam<int> {};

TEST_P(PaneKSweep, TrainsAndScoresFinite) {
  const int k = GetParam();
  const AttributedGraph g = testing::SmallSbm(69, 250);
  const auto embedding = Pane(DefaultOptions(k)).Train(g).ValueOrDie();
  EXPECT_EQ(embedding.k(), k);
  const double score = embedding.AttributeScore(0, 0);
  EXPECT_TRUE(std::isfinite(score));
}

INSTANTIATE_TEST_SUITE_P(KGrid, PaneKSweep, ::testing::Values(8, 16, 32, 64));

}  // namespace
}  // namespace pane
