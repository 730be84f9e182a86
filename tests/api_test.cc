// Tests for the unified Embedder API: EmbedderConfig parsing and the
// FlagSet bridge, EmbedderRegistry error paths, and the full round trip —
// every registered method trains on the running-example / small-SBM
// datasets and its NodeEmbedding feeds all three downstream-task adapters.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/api/adapters.h"
#include "src/api/embedder.h"
#include "src/api/evaluate.h"
#include "src/api/registry.h"
#include "src/common/flags.h"
#include "test_util.h"

namespace pane {
namespace {

EmbedderConfig SmallConfig() {
  // Small k keeps every method fast; method-specific knobs stay at their
  // defaults except where the tiny graphs require otherwise.
  return EmbedderConfig().Set("k", "8").Set("threads", "2");
}

TEST(EmbedderConfigTest, TypedGettersWithDefaults) {
  const EmbedderConfig config =
      EmbedderConfig().Set("k", "64").Set("alpha", "0.25").Set("flag", "true");
  EXPECT_EQ(*config.GetInt("k", 128), 64);
  EXPECT_EQ(*config.GetInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(*config.GetDouble("alpha", 0.5), 0.25);
  EXPECT_TRUE(*config.GetBool("flag", false));
  EXPECT_EQ(config.GetString("absent", "fallback"), "fallback");
}

TEST(EmbedderConfigTest, MalformedValuesAreInvalidArgument) {
  const EmbedderConfig config =
      EmbedderConfig().Set("k", "eight").Set("alpha", "much").Set("b", "?");
  EXPECT_TRUE(config.GetInt("k", 1).status().IsInvalidArgument());
  EXPECT_TRUE(config.GetDouble("alpha", 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(config.GetBool("b", true).status().IsInvalidArgument());
}

TEST(EmbedderConfigTest, BridgesFromFlagSet) {
  FlagSet flags;
  flags.AddInt("k", 32, "budget");
  flags.AddDouble("alpha", 0.4, "stop prob");
  flags.AddString("method", "nrp", "method");
  flags.AddBool("greedy_init", false, "greedy");
  const EmbedderConfig config = EmbedderConfig::FromFlags(flags);
  EXPECT_EQ(*config.GetInt("k", 0), 32);
  EXPECT_DOUBLE_EQ(*config.GetDouble("alpha", 0.0), 0.4);
  EXPECT_EQ(config.GetString("method", ""), "nrp");
  EXPECT_FALSE(*config.GetBool("greedy_init", true));
}

TEST(EmbedderConfigTest, DashedKeysNormalizeToUnderscores) {
  // Every write path normalizes, so the --memory-budget-mb flag bridge
  // and a raw --opt=memory-budget-mb=64 entry both land on the one key
  // embedders read.
  FlagSet flags;
  flags.AddInt("memory-budget-mb", 48, "budget");
  const EmbedderConfig bridged = EmbedderConfig::FromFlags(flags);
  EXPECT_EQ(*bridged.GetInt("memory_budget_mb", 0), 48);
  const EmbedderConfig set =
      EmbedderConfig().Set("memory-budget-mb", "64");
  EXPECT_EQ(*set.GetInt("memory_budget_mb", 0), 64);
  EXPECT_TRUE(set.Has("memory_budget_mb"));
}

TEST(EmbedderRegistryTest, NamesCoverAllSevenMethods) {
  const std::vector<std::string> names = EmbedderRegistry::Names();
  ASSERT_EQ(names.size(), 7u);
  for (const char* expected :
       {"bane", "bla", "lqanr", "nrp", "pane", "pane-seq", "tadw"}) {
    EXPECT_TRUE(EmbedderRegistry::Contains(expected)) << expected;
  }
  EXPECT_TRUE(EmbedderRegistry::Contains("PANE"));  // case-insensitive
  EXPECT_FALSE(EmbedderRegistry::Contains("gcn"));
}

TEST(EmbedderRegistryTest, UnknownNameIsNotFound) {
  const auto r = EmbedderRegistry::Create("deepwalk", EmbedderConfig());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  // The error lists the registered names for discoverability.
  EXPECT_NE(r.status().message().find("pane-seq"), std::string::npos);
}

TEST(EmbedderRegistryTest, MalformedConfigFailsAtCreate) {
  const auto r = EmbedderRegistry::Create(
      "pane", EmbedderConfig().Set("k", "not-a-number"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(EmbedderRegistryTest, InvalidOptionsFailValidationAtCreate) {
  // Odd k for PANE.
  EXPECT_TRUE(EmbedderRegistry::Create("pane", EmbedderConfig().Set("k", "7"))
                  .status()
                  .IsInvalidArgument());
  // alpha outside (0, 1).
  EXPECT_TRUE(EmbedderRegistry::Create(
                  "pane-seq", EmbedderConfig().Set("alpha", "1.5"))
                  .status()
                  .IsInvalidArgument());
  // LQANR bit width outside [1, 8].
  EXPECT_TRUE(EmbedderRegistry::Create(
                  "lqanr", EmbedderConfig().Set("bit_width", "9"))
                  .status()
                  .IsInvalidArgument());
  // BLA decay outside (0, 1].
  EXPECT_TRUE(
      EmbedderRegistry::Create("bla", EmbedderConfig().Set("decay", "1.5"))
          .status()
          .IsInvalidArgument());
  // Zero threads for parallel PANE.
  EXPECT_TRUE(
      EmbedderRegistry::Create("pane", EmbedderConfig().Set("threads", "0"))
          .status()
          .IsInvalidArgument());
}

TEST(EmbedderRegistryTest, EveryMethodTrainsOnTheRunningExample) {
  const AttributedGraph g = testing::Figure1Graph();
  for (const std::string& name : EmbedderRegistry::Names()) {
    SCOPED_TRACE(name);
    const auto embedder =
        EmbedderRegistry::Create(name, EmbedderConfig().Set("k", "4"));
    ASSERT_TRUE(embedder.ok()) << embedder.status();
    EXPECT_EQ(name, (*embedder)->name());
    const auto embedding = (*embedder)->Train(g);
    ASSERT_TRUE(embedding.ok()) << embedding.status();
    EXPECT_TRUE(embedding->Check().ok()) << embedding->Check();
    EXPECT_EQ(embedding->method, name);
    EXPECT_EQ(embedding->num_nodes(), g.num_nodes());
    for (int64_t j = 0; j < embedding->dim(); ++j) {
      EXPECT_TRUE(std::isfinite(embedding->features(0, j)));
    }
  }
}

TEST(EmbedderRegistryTest, EveryArtifactFeedsAllThreeAdapters) {
  const AttributedGraph g = testing::Figure1Graph();
  for (const std::string& name : EmbedderRegistry::Names()) {
    SCOPED_TRACE(name);
    const auto embedder =
        EmbedderRegistry::Create(name, EmbedderConfig().Set("k", "4"));
    ASSERT_TRUE(embedder.ok()) << embedder.status();
    auto trained = (*embedder)->Train(g);
    ASSERT_TRUE(trained.ok()) << trained.status();
    auto artifact =
        std::make_shared<const NodeEmbedding>(trained.MoveValueUnsafe());

    const auto link = MakeLinkScorer(artifact, g.undirected());
    ASSERT_TRUE(link.ok()) << link.status();
    EXPECT_TRUE(std::isfinite((*link)(0, 3)));

    const auto candidates = MakeCandidateLinkScorers(artifact, g.undirected());
    ASSERT_TRUE(candidates.ok()) << candidates.status();
    EXPECT_GE(candidates->size(), 1u);

    const auto attr = MakeAttributeScorer(artifact, g);
    ASSERT_TRUE(attr.ok()) << attr.status();
    EXPECT_TRUE(std::isfinite((*attr)(2, 0)));

    const DenseMatrix features = ClassifierFeatures(*artifact);
    EXPECT_EQ(features.rows(), g.num_nodes());
    EXPECT_GT(features.cols(), 0);
  }
}

TEST(EvaluateTest, AllMethodsRunTheThreeTaskDrivers) {
  const AttributedGraph g = testing::SmallSbm(95, 220);
  NodeClassificationOptions nc;
  nc.train_fraction = 0.5;
  nc.repeats = 1;
  for (const std::string& name : EmbedderRegistry::Names()) {
    SCOPED_TRACE(name);
    const auto embedder = EmbedderRegistry::Create(name, SmallConfig());
    ASSERT_TRUE(embedder.ok()) << embedder.status();

    const auto attr = RunAttributeInference(**embedder, g, 0.2, 5);
    ASSERT_TRUE(attr.ok()) << attr.status();
    EXPECT_GE(attr->auc, 0.0);
    EXPECT_LE(attr->auc, 1.0);

    const auto link = RunLinkPrediction(**embedder, g, 0.3, 5);
    ASSERT_TRUE(link.ok()) << link.status();
    EXPECT_GE(link->auc, 0.0);
    EXPECT_LE(link->auc, 1.0);

    const auto f1 = RunNodeClassification(**embedder, g, nc);
    ASSERT_TRUE(f1.ok()) << f1.status();
    EXPECT_GE(f1->micro, 0.0);
    EXPECT_LE(f1->micro, 1.0);
  }
}

TEST(EvaluateTest, PaneBeatsChanceThroughTheUnifiedSurface) {
  const AttributedGraph g = testing::SmallSbm(96, 300);
  const auto embedder = EmbedderRegistry::Create(
      "pane-seq", EmbedderConfig().Set("k", "16"));
  ASSERT_TRUE(embedder.ok()) << embedder.status();
  const auto link = RunLinkPrediction(**embedder, g, 0.3, 6);
  ASSERT_TRUE(link.ok()) << link.status();
  EXPECT_GT(link->auc, 0.6);
}

TEST(EvaluateTest, TadwDensificationGuardSurfacesAsError) {
  const AttributedGraph g = testing::SmallSbm(97, 150);
  const auto embedder = EmbedderRegistry::Create(
      "tadw", EmbedderConfig().Set("k", "8").Set("max_nodes", "100"));
  ASSERT_TRUE(embedder.ok()) << embedder.status();
  const auto link = RunLinkPrediction(**embedder, g, 0.3, 7);
  ASSERT_FALSE(link.ok());
  EXPECT_TRUE(link.status().IsInvalidArgument());
}

}  // namespace
}  // namespace pane
