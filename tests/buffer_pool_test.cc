// Tests for the pinning buffer pool: residency accounting, budget-driven
// clock eviction, dirty write-back through MAP_SHARED spill files, behavior
// under thread contention, and the end-to-end guarantee the pool exists for
// — training with pooled spill is bitwise identical to flat spill and to the
// all-in-RAM path.
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pane.h"
#include "src/matrix/factor_slab.h"
#include "src/parallel/thread_pool.h"
#include "src/store/buffer_pool.h"
#include "tests/test_util.h"

namespace pane {
namespace store {
namespace {

/// A MAP_SHARED file mapping the tests register with the pool — the same
/// backing FactorSlab spill files use.
class SharedMapping {
 public:
  explicit SharedMapping(int64_t bytes) : bytes_(bytes) {
    char tmpl[] = "/tmp/pane_pool_test.XXXXXX";
    fd_ = mkstemp(tmpl);
    EXPECT_GE(fd_, 0);
    path_ = tmpl;
    EXPECT_EQ(ftruncate(fd_, bytes), 0);
    base_ = static_cast<char*>(mmap(nullptr, static_cast<size_t>(bytes),
                                    PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                                    0));
    EXPECT_NE(base_, MAP_FAILED);
  }

  ~SharedMapping() {
    munmap(base_, static_cast<size_t>(bytes_));
    close(fd_);
    unlink(path_.c_str());
  }

  char* base() const { return base_; }
  int64_t bytes() const { return bytes_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string path_;
  char* base_ = nullptr;
  int64_t bytes_ = 0;
};

TEST(BufferPoolTest, RegisterRejectsUnalignedBase) {
  BufferPool pool(BufferPool::Options{});
  SharedMapping map(1 << 20);
  EXPECT_FALSE(pool.Register(map.base() + 1, map.bytes() - 1).ok());
  auto region = pool.Register(map.base(), map.bytes());
  ASSERT_TRUE(region.ok()) << region.status();
  pool.Unregister(*region);
}

TEST(BufferPoolTest, ResidencyAccountingFollowsPinUnpin) {
  BufferPool::Options options;
  options.budget_bytes = 0;  // track-only
  options.page_bytes = 64 * 1024;
  BufferPool pool(options);
  const int64_t page = pool.page_bytes();
  SharedMapping map(8 * page);
  auto region = pool.Register(map.base(), map.bytes());
  ASSERT_TRUE(region.ok()) << region.status();

  ASSERT_TRUE(pool.Pin(*region, 0, 2 * page).ok());
  EXPECT_EQ(pool.stats().resident_bytes, 2 * page);
  // Unpin of a range never pinned still marks it resident (the accounting
  // point for kernels that write through flat pointers).
  ASSERT_TRUE(pool.Unpin(*region, 4 * page, 6 * page, /*dirty=*/true).ok());
  EXPECT_EQ(pool.stats().resident_bytes, 4 * page);
  EXPECT_EQ(pool.stats().registered_bytes, 8 * page);

  ASSERT_TRUE(pool.EvictRegion(*region).ok());
  // The pinned pages survive a region evict; the unpinned dirty ones are
  // written back and dropped.
  EXPECT_EQ(pool.stats().resident_bytes, 2 * page);
  EXPECT_EQ(pool.stats().writeback_pages, 2);
  EXPECT_EQ(pool.stats().evicted_pages, 2);

  ASSERT_TRUE(pool.Unpin(*region, 0, 2 * page, /*dirty=*/false).ok());
  ASSERT_TRUE(pool.EvictRegion(*region).ok());
  EXPECT_EQ(pool.stats().resident_bytes, 0);
  pool.Unregister(*region);
  EXPECT_EQ(pool.stats().registered_bytes, 0);
}

TEST(BufferPoolTest, BudgetTriggersEvictionOfUnpinnedPages) {
  BufferPool::Options options;
  options.page_bytes = 64 * 1024;
  options.budget_bytes = 3 * options.page_bytes;
  BufferPool pool(options);
  const int64_t page = pool.page_bytes();
  SharedMapping map(16 * page);
  auto region = pool.Register(map.base(), map.bytes());
  ASSERT_TRUE(region.ok()) << region.status();

  // Two pages stay pinned; ten more become unpinned-resident, far past the
  // three-page budget — the clock must sweep the excess away.
  ASSERT_TRUE(pool.Pin(*region, 0, 2 * page).ok());
  for (int64_t p = 2; p < 12; ++p) {
    ASSERT_TRUE(pool.Unpin(*region, p * page, (p + 1) * page, true).ok());
  }
  const BufferPool::Stats stats = pool.stats();
  EXPECT_LE(stats.resident_bytes, options.budget_bytes + 2 * page)
      << "unpinned residency must be driven toward the budget";
  EXPECT_GE(stats.resident_bytes, 2 * page) << "pinned pages may not go";
  EXPECT_GT(stats.evicted_pages, 0);
  EXPECT_GT(stats.resident_peak_bytes, 0);
  ASSERT_TRUE(pool.Unpin(*region, 0, 2 * page, false).ok());
  pool.Unregister(*region);
}

TEST(BufferPoolTest, DirtyWritebackReachesTheFile) {
  BufferPool::Options options;
  options.page_bytes = 64 * 1024;
  BufferPool pool(options);
  const int64_t page = pool.page_bytes();
  SharedMapping map(4 * page);
  auto region = pool.Register(map.base(), map.bytes());
  ASSERT_TRUE(region.ok()) << region.status();

  for (int64_t i = 0; i < map.bytes(); ++i) {
    map.base()[i] = static_cast<char>((i * 31 + 7) & 0xFF);
  }
  ASSERT_TRUE(pool.Unpin(*region, 0, map.bytes(), /*dirty=*/true).ok());
  ASSERT_TRUE(pool.EvictRegion(*region).ok());

  // After MADV_DONTNEED, reads through the mapping refault the page-cache
  // truth — the written pattern, not zeros.
  for (int64_t i = 0; i < map.bytes(); i += 4097) {
    ASSERT_EQ(map.base()[i], static_cast<char>((i * 31 + 7) & 0xFF))
        << "byte " << i << " lost across eviction";
  }
  // And the bytes are durable in the file itself.
  std::vector<char> from_file(static_cast<size_t>(map.bytes()));
  ASSERT_EQ(pread(map.fd(), from_file.data(), from_file.size(), 0),
            static_cast<ssize_t>(from_file.size()));
  for (int64_t i = 0; i < map.bytes(); ++i) {
    ASSERT_EQ(from_file[static_cast<size_t>(i)],
              static_cast<char>((i * 31 + 7) & 0xFF))
        << "file byte " << i;
  }
  pool.Unregister(*region);
}

TEST(BufferPoolTest, ContendedPinUnpinKeepsDataIntact) {
  BufferPool::Options options;
  options.page_bytes = 64 * 1024;
  options.budget_bytes = 2 * options.page_bytes;  // constant pressure
  BufferPool pool(options);
  const int64_t page = pool.page_bytes();
  const int64_t kRegions = 4;
  const int64_t kPagesPerRegion = 6;

  std::vector<std::unique_ptr<SharedMapping>> maps;
  std::vector<BufferPool::RegionId> regions;
  for (int64_t r = 0; r < kRegions; ++r) {
    maps.push_back(std::make_unique<SharedMapping>(kPagesPerRegion * page));
    auto region = pool.Register(maps.back()->base(), maps.back()->bytes());
    ASSERT_TRUE(region.ok()) << region.status();
    regions.push_back(*region);
  }

  // Deterministic per-(region, offset) byte so any cross-thread corruption
  // or lost write-back is detectable afterwards.
  const auto expected = [](int64_t r, int64_t i) {
    return static_cast<char>((r * 131 + i * 17 + 3) & 0xFF);
  };
  ThreadPool workers(static_cast<int>(kRegions));
  ParallelFor(&workers, 0, kRegions, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      char* base = maps[static_cast<size_t>(r)]->base();
      for (int round = 0; round < 3; ++round) {
        for (int64_t p = 0; p < kPagesPerRegion; ++p) {
          ASSERT_TRUE(pool.Pin(regions[static_cast<size_t>(r)], p * page,
                               (p + 1) * page)
                          .ok());
          // First multiple of 13 inside the page, so the write positions
          // line up with the continuous stride the verifier walks.
          for (int64_t i = (p * page + 12) / 13 * 13; i < (p + 1) * page;
               i += 13) {
            base[i] = expected(r, i);
          }
          ASSERT_TRUE(pool.Unpin(regions[static_cast<size_t>(r)], p * page,
                                 (p + 1) * page, /*dirty=*/true)
                          .ok());
        }
      }
    }
  });
  for (int64_t r = 0; r < kRegions; ++r) {
    ASSERT_TRUE(pool.EvictRegion(regions[static_cast<size_t>(r)]).ok());
    const char* base = maps[static_cast<size_t>(r)]->base();
    for (int64_t i = 0; i < kPagesPerRegion * page; i += 13) {
      ASSERT_EQ(base[i], expected(r, i)) << "region " << r << " byte " << i;
    }
    pool.Unregister(regions[static_cast<size_t>(r)]);
  }
}

/// The acceptance bar for spilling: at a budget that forces it, Train
/// through the buffer pool returns bitwise the same factors as the
/// unbounded in-RAM run.
TEST(BufferPoolTest, PooledSpillTrainsBitwiseIdentical) {
  // n = 500: the two n x d slabs (2 x 500 x 80 x 8 B = 640 kB) outgrow the
  // half-MiB pool a 1 MiB budget gives, so the pool must evict.
  const AttributedGraph graph = testing::SmallSbm(/*seed=*/77, /*n=*/500);
  const auto train = [&graph](SlabPolicy policy, int64_t budget_mb,
                              PaneStats* stats) {
    PaneOptions options;
    options.k = 32;
    options.num_threads = 3;
    options.ccd_iterations = 2;
    options.memory_budget_mb = budget_mb;
    options.slab_policy = policy;
    auto result = Pane(options).Train(graph, stats);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.MoveValueUnsafe();
  };

  PaneStats ram_stats, pooled_stats;
  const PaneEmbedding in_ram = train(SlabPolicy::kInRam, 0, &ram_stats);
  const PaneEmbedding pooled = train(SlabPolicy::kSpill, 1, &pooled_stats);

  EXPECT_FALSE(ram_stats.slabs_spilled);
  EXPECT_TRUE(pooled_stats.slabs_spilled);
  // The spilled run actually exercised the pool: Sf / Sb are registered
  // when the stats are taken, and the half-MiB pool had to evict.
  EXPECT_GT(pooled_stats.pool.registered_bytes, 0);
  EXPECT_GT(pooled_stats.pool.evicted_pages, 0);

  const auto bitwise_equal = [](const DenseMatrix& a, const DenseMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.size()) * sizeof(double)),
              0);
  };
  bitwise_equal(in_ram.xf, pooled.xf);
  bitwise_equal(in_ram.xb, pooled.xb);
  bitwise_equal(in_ram.y, pooled.y);
}

}  // namespace
}  // namespace store
}  // namespace pane
