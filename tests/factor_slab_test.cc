// Tests for the FactorSlab storage layer: in-RAM and spilled slabs hold the
// same bytes, the RowBlock acquire/release protocol keeps content across
// pool evictions, a spilled slab's pool region and spill file live exactly
// as long as the slab (moved with it, released on reassignment, destruction
// and error paths).
#include "src/matrix/factor_slab.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>

#include "src/common/random.h"

namespace pane {
namespace {

namespace fs = std::filesystem;

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  m.FillGaussian(&rng);
  return m;
}

// An unbounded pool: it tracks regions but never evicts on its own.
store::BufferPool::Options Unbounded() { return {}; }

TEST(FactorSlabTest, InRamRoundTrip) {
  auto slab = FactorSlab::Create(5, 3).ValueOrDie();
  EXPECT_EQ(slab.rows(), 5);
  EXPECT_EQ(slab.cols(), 3);
  EXPECT_FALSE(slab.spilled());
  EXPECT_TRUE(slab.spill_path().empty());
  slab.Row(2)[1] = 7.5;
  EXPECT_EQ(slab.Row(2)[1], 7.5);
  const DenseMatrix dense = slab.ToDense().ValueOrDie();
  EXPECT_EQ(dense(2, 1), 7.5);
  EXPECT_EQ(dense(0, 0), 0.0);
}

TEST(FactorSlabTest, DenseMatrixSlabRoundTrip) {
  const DenseMatrix source = RandomMatrix(8, 4, 1);
  const FactorSlab slab(source);
  EXPECT_FALSE(slab.spilled());
  EXPECT_EQ(slab.MaxAbsDiff(source), 0.0);
  EXPECT_EQ(slab.ToDense().ValueOrDie().MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, SpilledCreateRegistersAndCleansUp) {
  store::BufferPool pool(Unbounded());
  std::string path;
  {
    auto slab = FactorSlab::Create(64, 16, &pool).ValueOrDie();
    ASSERT_TRUE(slab.spilled());
    path = slab.spill_path();
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(static_cast<int64_t>(fs::file_size(path)), slab.size_bytes());
    EXPECT_EQ(pool.stats().registered_bytes, slab.size_bytes());
    // Zero-initialized like an in-RAM slab.
    EXPECT_EQ(slab.Row(63)[15], 0.0);
    slab.Row(10)[3] = -2.25;
    EXPECT_EQ(slab.Row(10)[3], -2.25);
  }
  // Destruction unregisters the region and removes the spill file.
  EXPECT_EQ(pool.stats().registered_bytes, 0);
  EXPECT_FALSE(fs::exists(path));
}

TEST(FactorSlabTest, ReleasePreservesContent) {
  // A 64 KiB pool under a 512 KiB slab: releasing a dirty 192 KiB block
  // must evict (with write-back), and the re-acquired rows must still hold
  // the written values (from the page cache / spill file).
  store::BufferPool::Options options;
  options.budget_bytes = 64 * 1024;
  options.page_bytes = 4096;
  store::BufferPool pool(options);
  auto slab = FactorSlab::Create(2048, 32, &pool).ValueOrDie();
  FactorSlab::RowBlock block = slab.AcquireRows(256, 1024);
  for (int64_t i = block.row_begin; i < block.row_end; ++i) {
    block.Row(i)[0] = static_cast<double>(i);
  }
  ASSERT_TRUE(slab.ReleaseRows(block, /*dirty=*/true).ok());
  ASSERT_TRUE(slab.DropResidency().ok());
  EXPECT_GT(pool.stats().evicted_pages, 0);
  EXPECT_GT(pool.stats().writeback_pages, 0);
  FactorSlab::RowBlock again = slab.AcquireRows(256, 1024);
  for (int64_t i = again.row_begin; i < again.row_end; ++i) {
    ASSERT_EQ(again.Row(i)[0], static_cast<double>(i)) << "row " << i;
  }
  ASSERT_TRUE(slab.ReleaseRows(again, /*dirty=*/false).ok());
}

TEST(FactorSlabTest, SpilledMatchesDenseBitwise) {
  store::BufferPool pool(Unbounded());
  const DenseMatrix source = RandomMatrix(40, 12, 2);
  auto slab = FactorSlab::FromDense(source, &pool).ValueOrDie();
  EXPECT_TRUE(slab.spilled());
  EXPECT_EQ(slab.MaxAbsDiff(source), 0.0);
  EXPECT_EQ(slab.FrobeniusNorm(), source.FrobeniusNorm());
  const DenseMatrix round = slab.ToDense().ValueOrDie();
  EXPECT_EQ(round.MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, CopyOfSpilledIsIndependentInRam) {
  store::BufferPool pool(Unbounded());
  const DenseMatrix source = RandomMatrix(20, 6, 3);
  auto original = FactorSlab::FromDense(source, &pool).ValueOrDie();
  const int64_t registered = pool.stats().registered_bytes;
  FactorSlab copy = original;
  EXPECT_FALSE(copy.spilled());
  EXPECT_TRUE(copy.spill_path().empty());
  EXPECT_EQ(copy.MaxAbsDiff(original), 0.0);
  // The copy has no claim on the pool, and writes do not alias.
  EXPECT_EQ(pool.stats().registered_bytes, registered);
  copy.Row(0)[0] += 1.0;
  EXPECT_EQ(original.MaxAbsDiff(source), 0.0);
  // Copy-assignment over an existing slab behaves the same.
  FactorSlab assigned = FactorSlab::Create(3, 3).ValueOrDie();
  assigned = original;
  EXPECT_FALSE(assigned.spilled());
  EXPECT_EQ(assigned.MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, MoveTransfersPoolRegion) {
  store::BufferPool pool(Unbounded());
  auto original = FactorSlab::Create(16, 4, &pool).ValueOrDie();
  const std::string path = original.spill_path();
  const int64_t registered = pool.stats().registered_bytes;
  ASSERT_EQ(registered, original.size_bytes());
  original.Row(3)[2] = 9.0;
  FactorSlab moved = std::move(original);
  EXPECT_TRUE(moved.spilled());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(moved.spill_path(), path);
  EXPECT_EQ(moved.Row(3)[2], 9.0);
  // The region moved with the slab: nothing registered twice or dropped.
  EXPECT_EQ(pool.stats().registered_bytes, registered);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_FALSE(original.spilled());
  EXPECT_TRUE(original.spill_path().empty());
  // Residency calls still reach the pool through the new owner.
  ASSERT_TRUE(moved.DropResidency().ok());
  moved = FactorSlab();
  EXPECT_EQ(pool.stats().registered_bytes, 0);
  EXPECT_FALSE(fs::exists(path));  // destroyed with its last owner
}

TEST(FactorSlabTest, AssignDenseReleasesSpill) {
  store::BufferPool pool(Unbounded());
  auto slab = FactorSlab::Create(16, 4, &pool).ValueOrDie();
  const std::string path = slab.spill_path();
  ASSERT_GT(pool.stats().registered_bytes, 0);
  slab = DenseMatrix({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(pool.stats().registered_bytes, 0);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(slab.spilled());
  EXPECT_EQ(slab.Row(1)[0], 3.0);
}

TEST(FactorSlabTest, CreateFailsCleanlyInMissingDir) {
  store::BufferPool pool(Unbounded());
  const std::string missing = "/nonexistent_pane_spill_dir_for_test";
  ASSERT_FALSE(fs::exists(missing));
  const auto slab = FactorSlab::Create(8, 8, &pool, missing);
  EXPECT_FALSE(slab.ok());
  EXPECT_TRUE(slab.status().IsIOError());
  EXPECT_FALSE(fs::exists(missing));  // nothing left behind
  EXPECT_EQ(pool.stats().registered_bytes, 0);
}

TEST(FactorSlabTest, EmptySlabNeedsNoFile) {
  store::BufferPool pool(Unbounded());
  auto slab = FactorSlab::Create(0, 16, &pool).ValueOrDie();
  EXPECT_TRUE(slab.empty());
  EXPECT_TRUE(slab.spilled());
  EXPECT_TRUE(slab.spill_path().empty());
  EXPECT_EQ(pool.stats().registered_bytes, 0);
  EXPECT_TRUE(slab.DropResidency().ok());
  EXPECT_TRUE(slab.ReleaseRowRange(0, 0, /*dirty=*/true).ok());
}

}  // namespace
}  // namespace pane
