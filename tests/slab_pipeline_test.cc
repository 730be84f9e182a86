// Whole-pipeline tests for the FactorSlab storage layer: a spill-forced
// Pane::Train (cold or warm-started) must produce bitwise-identical
// embeddings to the in-RAM and unbounded runs on the same seed, spilled
// runs' scratch must respect the budget, and spill files must vanish on
// success and on error paths.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/core/pane.h"
#include "test_util.h"

namespace pane {
namespace {

namespace fs = std::filesystem;

// Big enough that a 1 MiB budget spills under the kAuto rule:
// 2 n d doubles = 2 * 1000 * 80 * 8 = 1.28 MB > 1 MiB.
constexpr int64_t kNodes = 1000;
constexpr int64_t kBudgetMb = 1;

PaneOptions BudgetedOptions(int threads, int64_t budget_mb,
                            SlabPolicy policy) {
  PaneOptions options;
  options.k = 16;
  options.num_threads = threads;
  options.memory_budget_mb = budget_mb;
  options.slab_policy = policy;
  return options;
}

void ExpectBitwiseEqual(const PaneEmbedding& a, const PaneEmbedding& b,
                        const std::string& what) {
  EXPECT_EQ(a.xf.MaxAbsDiff(b.xf), 0.0) << what << ": xf differs";
  EXPECT_EQ(a.xb.MaxAbsDiff(b.xb), 0.0) << what << ": xb differs";
  EXPECT_EQ(a.y.MaxAbsDiff(b.y), 0.0) << what << ": y differs";
}

TEST(SlabPipelineTest, SpillBitwiseIdenticalToInRamAndUnbounded) {
  const AttributedGraph g = testing::SmallSbm(71, kNodes);
  const auto unbounded =
      Pane(BudgetedOptions(3, 0, SlabPolicy::kAuto)).Train(g).ValueOrDie();
  const auto in_ram =
      Pane(BudgetedOptions(3, kBudgetMb, SlabPolicy::kInRam))
          .Train(g)
          .ValueOrDie();
  PaneStats spill_stats;
  const auto spilled =
      Pane(BudgetedOptions(3, kBudgetMb, SlabPolicy::kAuto))
          .Train(g, &spill_stats)
          .ValueOrDie();
  ASSERT_TRUE(spill_stats.slabs_spilled)
      << "budget " << kBudgetMb << " MiB should spill "
      << spill_stats.slab_bytes << " slab bytes";
  ExpectBitwiseEqual(spilled, in_ram, "spilled vs in-RAM at equal budget");
  ExpectBitwiseEqual(spilled, unbounded, "spilled+budget vs unbounded");
}

TEST(SlabPipelineTest, SerialSpillMatchesSerialUnbounded) {
  const AttributedGraph g = testing::SmallSbm(72, kNodes);
  const auto unbounded =
      Pane(BudgetedOptions(1, 0, SlabPolicy::kAuto)).Train(g).ValueOrDie();
  const auto spilled =
      Pane(BudgetedOptions(1, kBudgetMb, SlabPolicy::kSpill))
          .Train(g)
          .ValueOrDie();
  ExpectBitwiseEqual(spilled, unbounded, "serial spilled vs serial unbounded");
}

TEST(SlabPipelineTest, RandomInitSpillMatches) {
  const AttributedGraph g = testing::SmallSbm(73, kNodes);
  PaneOptions base = BudgetedOptions(3, 0, SlabPolicy::kAuto);
  base.greedy_init = false;
  PaneOptions spill = BudgetedOptions(3, kBudgetMb, SlabPolicy::kSpill);
  spill.greedy_init = false;
  const auto unbounded = Pane(base).Train(g).ValueOrDie();
  const auto spilled = Pane(spill).Train(g).ValueOrDie();
  ExpectBitwiseEqual(spilled, unbounded, "PANE-R spilled vs unbounded");
}

TEST(SlabPipelineTest, SpillScratchStaysUnderBudget) {
  const AttributedGraph g = testing::SmallSbm(74, kNodes);
  PaneStats stats;
  ASSERT_TRUE(Pane(BudgetedOptions(3, kBudgetMb, SlabPolicy::kAuto))
                  .Train(g, &stats)
                  .ok());
  const int64_t budget_bytes = kBudgetMb << 20;
  EXPECT_TRUE(stats.slabs_spilled);
  EXPECT_FALSE(stats.affinity.budget_clamped);
  EXPECT_LE(stats.affinity.scratch_bytes, budget_bytes);
  EXPECT_LE(stats.ccd.scratch_bytes, budget_bytes);
  EXPECT_TRUE(stats.affinity.spilled);
}

TEST(SlabPipelineTest, SpillFilesRemovedAfterTraining) {
  const AttributedGraph g = testing::SmallSbm(75, kNodes);
  const fs::path dir =
      fs::temp_directory_path() / "pane_slab_pipeline_cleanup_test";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directory(dir));
  PaneOptions options = BudgetedOptions(3, kBudgetMb, SlabPolicy::kSpill);
  options.spill_dir = dir.string();
  ASSERT_TRUE(Pane(options).Train(g).ok());
  // Both slabs (F' / B', then Sf / Sb in place) unlinked their spill files
  // on destruction.
  EXPECT_TRUE(fs::is_empty(dir)) << "stray spill files left in " << dir;
  fs::remove_all(dir);
}

TEST(SlabPipelineTest, SlabBytesCountTwoNByDSlabs) {
  const AttributedGraph g = testing::SmallSbm(79, 200);
  PaneStats stats;
  ASSERT_TRUE(
      Pane(BudgetedOptions(2, 0, SlabPolicy::kAuto)).Train(g, &stats).ok());
  EXPECT_EQ(stats.slab_bytes, 2 * g.num_nodes() * g.num_attributes() *
                                  static_cast<int64_t>(sizeof(double)));
  EXPECT_FALSE(stats.slabs_spilled);
}

TEST(SlabPipelineTest, BudgetBetweenTwoAndFourSlabsTrainsInRam) {
  // 2 MiB lies between 2 n d doubles (1.28 MB) and 4 n d doubles
  // (2.56 MB): the run's two slabs fit, so kAuto keeps them in RAM.
  const AttributedGraph g = testing::SmallSbm(80, kNodes);
  const int64_t two_slabs = 2 * g.num_nodes() * g.num_attributes() *
                            static_cast<int64_t>(sizeof(double));
  constexpr int64_t kBetweenMb = 2;
  ASSERT_LT(two_slabs, kBetweenMb << 20);
  ASSERT_GT(2 * two_slabs, kBetweenMb << 20);
  PaneStats auto_stats, spill_stats;
  const auto in_ram = Pane(BudgetedOptions(2, kBetweenMb, SlabPolicy::kAuto))
                          .Train(g, &auto_stats)
                          .ValueOrDie();
  const auto spilled =
      Pane(BudgetedOptions(2, kBetweenMb, SlabPolicy::kSpill))
          .Train(g, &spill_stats)
          .ValueOrDie();
  EXPECT_FALSE(auto_stats.slabs_spilled);
  EXPECT_TRUE(spill_stats.slabs_spilled);
  ExpectBitwiseEqual(in_ram, spilled, "kAuto in RAM vs spilled");
}

TEST(SlabPipelineTest, MissingSpillDirFailsWithoutSideEffects) {
  const AttributedGraph g = testing::SmallSbm(76, 200);
  PaneOptions options = BudgetedOptions(2, kBudgetMb, SlabPolicy::kSpill);
  options.spill_dir = "/nonexistent_pane_spill_dir_for_test";
  const auto result = Pane(options).Train(g);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_FALSE(fs::exists(options.spill_dir));
}

TEST(SlabPipelineTest, WarmStartRunsSpilledAndMatchesInRam) {
  const AttributedGraph g = testing::SmallSbm(78, kNodes);
  const auto base =
      Pane(BudgetedOptions(2, 0, SlabPolicy::kAuto)).Train(g).ValueOrDie();
  PaneOptions in_ram = BudgetedOptions(2, 0, SlabPolicy::kAuto);
  in_ram.ccd_iterations = 2;
  PaneOptions spill = in_ram;
  spill.memory_budget_mb = kBudgetMb;
  spill.slab_policy = SlabPolicy::kSpill;
  PaneStats spill_stats;
  const auto refreshed_ram =
      Pane(in_ram).Train(g, nullptr, &base).ValueOrDie();
  const auto refreshed_spill =
      Pane(spill).Train(g, &spill_stats, &base).ValueOrDie();
  EXPECT_TRUE(spill_stats.slabs_spilled);
  ExpectBitwiseEqual(refreshed_spill, refreshed_ram,
                     "warm start spilled vs in-RAM");
}

}  // namespace
}  // namespace pane
