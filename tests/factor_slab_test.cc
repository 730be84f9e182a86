// Tests for the FactorSlab storage layer: in-RAM and spilled slabs hold the
// same bytes, dropped pages keep their content (in the mapping and in the
// spill file), streamed passes keep a spilled slab's mapping small, and a
// spilled slab's mapping and spill file live exactly as long as the slab
// (moved with it, released on reassignment, destruction and error paths).
#include "src/matrix/factor_slab.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "test_util.h"

namespace pane {
namespace {

namespace fs = std::filesystem;

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  m.FillGaussian(&rng);
  return m;
}

// Rows a spilled test slab streams between drops.
constexpr int64_t kChunkRows = 8;

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

TEST(FactorSlabTest, SpilledCreateMapsAndCleansUp) {
  std::string path;
  {
    auto slab = FactorSlab::Create(64, 16, kChunkRows).ValueOrDie();
    ASSERT_TRUE(slab.spilled());
    EXPECT_EQ(slab.stream_chunk_rows(), kChunkRows);
    path = slab.spill_path();
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(static_cast<int64_t>(fs::file_size(path)), slab.size_bytes());
    EXPECT_EQ(testing::MappedRssBytes(slab.data()), 0);
    // Zero-initialized like an in-RAM slab.
    EXPECT_EQ(slab.Row(63)[15], 0.0);
    slab.Row(10)[3] = -2.25;
    EXPECT_EQ(slab.Row(10)[3], -2.25);
  }
  // Destruction removes the spill file.
  EXPECT_FALSE(fs::exists(path));
}

TEST(FactorSlabTest, DroppedRowsKeepTheirBytes) {
  // Write 768 rows of a 512 KiB slab, drop them a page of rows at a time
  // and then the whole slab: the rows refault with the written values, and
  // the spill file itself holds them (the page cache is the only copy).
  const int64_t page = sysconf(_SC_PAGESIZE);
  auto slab = FactorSlab::Create(2048, 32, page / (32 * 8)).ValueOrDie();
  const auto value = [](int64_t i, int64_t j) {
    return static_cast<double>(i) + 0.001 * static_cast<double>(j);
  };
  StreamRows({&slab}, 256, 1024, /*dirty=*/true,
             [&](int64_t begin, int64_t end) {
               for (int64_t i = begin; i < end; ++i) {
                 for (int64_t j = 0; j < 32; ++j) slab.Row(i)[j] = value(i, j);
               }
             });
  slab.DropResidency();
  const SpillStats stats = slab.spill_stats();
  EXPECT_GT(stats.evicted_pages, 0);
  EXPECT_EQ(stats.writeback_pages, 768 * 32 * 8 / page);
  EXPECT_EQ(stats.resident_peak_bytes, page);
  EXPECT_EQ(testing::MappedRssBytes(slab.data()), 0);

  std::vector<double> from_file(static_cast<size_t>(2048 * 32));
  const int fd = open(slab.spill_path().c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  const ssize_t want = static_cast<ssize_t>(from_file.size() * sizeof(double));
  EXPECT_EQ(pread(fd, from_file.data(), static_cast<size_t>(want), 0), want);
  close(fd);
  for (int64_t i = 0; i < 2048; ++i) {
    const bool written = i >= 256 && i < 1024;
    for (int64_t j = 0; j < 32; ++j) {
      const double expected = written ? value(i, j) : 0.0;
      ASSERT_EQ(slab.Row(i)[j], expected) << "row " << i << " col " << j;
      ASSERT_EQ(from_file[static_cast<size_t>(i * 32 + j)], expected)
          << "file row " << i << " col " << j;
    }
  }
}

TEST(FactorSlabTest, FrobeniusNormStreamsASpilledSlab) {
  // 4096 x 64 doubles (2 MiB), streamed 8 rows (one 4 KiB page) at a time:
  // the norm leaves at most a quarter of the slab mapped, and has the
  // in-RAM slab's bits.
  const DenseMatrix source = RandomMatrix(4096, 64, 4);
  auto slab = FactorSlab::FromDense(source, kChunkRows).ValueOrDie();
  slab.DropResidency();
  ASSERT_EQ(testing::MappedRssBytes(slab.data()), 0);
  EXPECT_EQ(slab.FrobeniusNorm(), source.FrobeniusNorm());
  EXPECT_EQ(slab.FrobeniusNorm(), FactorSlab(source).FrobeniusNorm());
  const int64_t rss = testing::MappedRssBytes(slab.data());
  EXPECT_GE(rss, 0);
  EXPECT_LE(rss, slab.size_bytes() / 4);
}

TEST(FactorSlabTest, StreamRowsChunksInOrder) {
  auto spilled = FactorSlab::Create(21, 3, 4).ValueOrDie();
  const FactorSlab in_ram(DenseMatrix(21, 3));
  std::vector<std::pair<int64_t, int64_t>> chunks;
  const auto record = [&](int64_t begin, int64_t end) {
    chunks.emplace_back(begin, end);
  };
  StreamRows({&spilled}, 2, 15, /*dirty=*/false, record);
  EXPECT_EQ(chunks, (std::vector<std::pair<int64_t, int64_t>>{
                        {2, 6}, {6, 10}, {10, 14}, {14, 15}}));
  chunks.clear();
  StreamRows({&in_ram}, 2, 15, /*dirty=*/false, record);
  EXPECT_EQ(chunks, (std::vector<std::pair<int64_t, int64_t>>{{2, 15}}));
  EXPECT_EQ(in_ram.stream_chunk_rows(), 21);
  EXPECT_EQ(in_ram.spill_stats().evicted_pages, 0);
}

TEST(FactorSlabTest, SpilledMatchesDenseBitwise) {
  const DenseMatrix source = RandomMatrix(40, 12, 2);
  auto slab = FactorSlab::FromDense(source, kChunkRows).ValueOrDie();
  EXPECT_TRUE(slab.spilled());
  EXPECT_EQ(slab.MaxAbsDiff(source), 0.0);
  EXPECT_EQ(slab.FrobeniusNorm(), source.FrobeniusNorm());
  const DenseMatrix round = slab.ToDense().ValueOrDie();
  EXPECT_EQ(round.MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, CopyOfSpilledIsIndependentInRam) {
  const DenseMatrix source = RandomMatrix(20, 6, 3);
  auto original = FactorSlab::FromDense(source, kChunkRows).ValueOrDie();
  FactorSlab copy = original;
  EXPECT_FALSE(copy.spilled());
  EXPECT_TRUE(copy.spill_path().empty());
  EXPECT_EQ(copy.MaxAbsDiff(original), 0.0);
  // The copy has no claim on the spill file, and writes do not alias.
  EXPECT_TRUE(fs::exists(original.spill_path()));
  copy.Row(0)[0] += 1.0;
  EXPECT_EQ(original.MaxAbsDiff(source), 0.0);
  // Copy-assignment over an existing slab behaves the same.
  FactorSlab assigned = FactorSlab::Create(3, 3).ValueOrDie();
  assigned = original;
  EXPECT_FALSE(assigned.spilled());
  EXPECT_EQ(assigned.MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, MoveTransfersTheMapping) {
  auto original = FactorSlab::Create(16, 4, kChunkRows).ValueOrDie();
  const std::string path = original.spill_path();
  const double* data = original.data();
  original.Row(3)[2] = 9.0;
  original.DropRows(0, 8, /*dirty=*/true);
  const int64_t dropped = original.spill_stats().evicted_pages;
  ASSERT_GT(dropped, 0);
  FactorSlab moved = std::move(original);
  EXPECT_TRUE(moved.spilled());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(moved.spill_path(), path);
  EXPECT_EQ(moved.data(), data);
  EXPECT_EQ(moved.stream_chunk_rows(), kChunkRows);
  EXPECT_EQ(moved.Row(3)[2], 9.0);
  // The counters moved with the mapping.
  EXPECT_EQ(moved.spill_stats().evicted_pages, dropped);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_FALSE(original.spilled());
  EXPECT_TRUE(original.spill_path().empty());
  EXPECT_EQ(original.spill_stats().evicted_pages, 0);
  moved.DropResidency();
  moved = FactorSlab();
  EXPECT_FALSE(fs::exists(path));  // destroyed with its last owner
}

TEST(FactorSlabTest, AssignDenseReleasesSpill) {
  auto slab = FactorSlab::Create(16, 4, kChunkRows).ValueOrDie();
  const std::string path = slab.spill_path();
  ASSERT_TRUE(fs::exists(path));
  slab = DenseMatrix({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(slab.spilled());
  EXPECT_EQ(slab.Row(1)[0], 3.0);
}

TEST(FactorSlabTest, CreateFailsCleanlyInMissingDir) {
  const std::string missing = "/nonexistent_pane_spill_dir_for_test";
  ASSERT_FALSE(fs::exists(missing));
  const auto slab = FactorSlab::Create(8, 8, kChunkRows, missing);
  EXPECT_FALSE(slab.ok());
  EXPECT_TRUE(slab.status().IsIOError());
  EXPECT_FALSE(fs::exists(missing));  // nothing left behind
  EXPECT_TRUE(FactorSlab::Create(8, 8, -1).status().IsInvalidArgument());
}

TEST(FactorSlabTest, EmptySlabNeedsNoFile) {
  auto slab = FactorSlab::Create(0, 16, kChunkRows).ValueOrDie();
  EXPECT_TRUE(slab.empty());
  EXPECT_TRUE(slab.spilled());
  EXPECT_TRUE(slab.spill_path().empty());
  slab.DropResidency();
  slab.DropRows(0, 0, /*dirty=*/true);
  EXPECT_EQ(slab.spill_stats().evicted_pages, 0);
  EXPECT_EQ(slab.FrobeniusNorm(), 0.0);
}

}  // namespace
}  // namespace pane
