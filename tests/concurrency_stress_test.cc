// Concurrency stress suite, designed to run under the TSan tier
// (cmake --preset tsan): ≥8 threads write a spilled slab while dropping its
// pages, and hammer the ThreadPool RunBlocks barrier with randomized
// interleavings, plus a burst through the logger's single guarded write
// path. Assertions check the invariants that survive any interleaving
// (conserved counts, byte integrity through drops); ThreadSanitizer checks
// everything else.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/sync.h"
#include "src/matrix/factor_slab.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

constexpr int kStressThreads = 8;

// ---------------------------------------------------------------------------
// Spilled FactorSlab: 8 threads write their own rows, interleaved so that
// every system page holds rows of all of them, while random chunk drops
// (StreamRows), range drops and whole-slab drops run from the same threads.
// A drop is MADV_DONTNEED over a MAP_SHARED mapping, which leaves the page
// cache holding the bytes, so every row must end with its owner's last
// write whatever the drop schedule.
TEST(ConcurrencyStressTest, SpilledSlabDropsKeepConcurrentWrites) {
  constexpr int64_t kRows = 2048;
  constexpr int64_t kCols = 64;  // 512-byte rows: 8 owners per 4 KiB page
  constexpr int kItersPerThread = 400;
  auto slab = FactorSlab::Create(kRows, kCols, /*spill_chunk_rows=*/5)
                  .ValueOrDie();
  ASSERT_TRUE(slab.spilled());
  const auto value = [](int64_t row, int iter) {
    return static_cast<double>(row * 1000 + iter);
  };

  std::vector<std::vector<int>> last_write(
      kStressThreads, std::vector<int>(kRows / kStressThreads, -1));
  std::atomic<int64_t> ops{0};
  std::vector<std::thread> threads;
  threads.reserve(kStressThreads);
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(0x5eed + static_cast<uint64_t>(t));
      std::vector<int>& mine = last_write[static_cast<size_t>(t)];
      for (int i = 0; i < kItersPerThread; ++i) {
        // Rewrite one of this thread's rows (row = slot * 8 + t).
        const int64_t slot = static_cast<int64_t>(rng() % mine.size());
        double* row = slab.Row(slot * kStressThreads + t);
        for (int64_t j = 0; j < kCols; ++j) {
          row[j] = value(slot * kStressThreads + t, i);
        }
        mine[static_cast<size_t>(slot)] = i;

        // Drop pages under everyone's feet.
        const int64_t begin = static_cast<int64_t>(rng() % kRows);
        const int64_t end = std::min<int64_t>(
            kRows, begin + 1 + static_cast<int64_t>(rng() % 64));
        switch (rng() % 3) {
          case 0:
            StreamRows({&slab}, begin, end, /*dirty=*/false,
                       [](int64_t, int64_t) {});
            break;
          case 1:
            slab.DropRows(begin, end, /*dirty=*/true);
            break;
          default:
            slab.DropResidency();
            break;
        }
        ops.fetch_add(1, std::memory_order_relaxed);
        if (rng() % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ops.load(), kStressThreads * kItersPerThread);

  slab.DropResidency();
  for (int t = 0; t < kStressThreads; ++t) {
    const std::vector<int>& mine = last_write[static_cast<size_t>(t)];
    for (size_t slot = 0; slot < mine.size(); ++slot) {
      const int64_t r = static_cast<int64_t>(slot) * kStressThreads + t;
      const double want = mine[slot] < 0 ? 0.0 : value(r, mine[slot]);
      for (int64_t j = 0; j < kCols; ++j) {
        ASSERT_EQ(slab.Row(r)[j], want) << "row " << r << " col " << j;
      }
    }
  }
  EXPECT_GT(slab.spill_stats().evicted_pages, 0);
  EXPECT_GT(slab.spill_stats().writeback_pages, 0);
}

// ---------------------------------------------------------------------------
// ThreadPool: concurrent RunBlocks barriers from several caller threads on
// one shared pool. Each caller owns a disjoint result vector (the claim
// counter is per-call), so any cross-talk between barriers is a bug TSan or
// the sums will catch.
TEST(ConcurrencyStressTest, ConcurrentRunBlocksBarriers) {
  ThreadPool pool(kStressThreads);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr int kBlocks = 64;

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  std::atomic<int64_t> grand_total{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<int64_t> slots(kBlocks, 0);
        pool.RunBlocks(kBlocks, [&](int b) {
          // Vary block timing so completion order differs per round; the
          // blocks run on several workers at once, so derive the jitter
          // from (c, round, b) instead of sharing an RNG across them.
          if ((b * 31 + round * 7 + c) % 4 == 0) std::this_thread::yield();
          slots[static_cast<size_t>(b)] += b + 1;
        });
        int64_t sum = 0;
        for (const int64_t v : slots) sum += v;
        // The barrier published every block exactly once.
        ASSERT_EQ(sum, static_cast<int64_t>(kBlocks) * (kBlocks + 1) / 2);
        grand_total.fetch_add(sum, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(grand_total.load(),
            static_cast<int64_t>(kCallers) * kRounds * kBlocks *
                (kBlocks + 1) / 2);
}

// ParallelFor built on the same barrier: every element of the range is
// visited exactly once even when ranges land on different workers.
TEST(ConcurrencyStressTest, ParallelForPartitionsExactlyOnce) {
  ThreadPool pool(kStressThreads);
  constexpr int64_t kN = 1 << 16;
  std::vector<std::atomic<uint8_t>> touched(kN);
  for (auto& t : touched) t.store(0);
  ParallelFor(&pool, 0, kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ASSERT_EQ(touched[static_cast<size_t>(i)].fetch_add(1), 0)
          << "element visited twice";
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[static_cast<size_t>(i)].load(), 1);
  }
}

// Submit/future traffic racing pool destruction-time shutdown: futures all
// resolve, and the queue drains before workers exit.
TEST(ConcurrencyStressTest, SubmitDrainsOnShutdown) {
  std::atomic<int64_t> executed{0};
  constexpr int kTasks = 2000;
  {
    ThreadPool pool(kStressThreads);
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(executed.load(), kTasks);
}

// ---------------------------------------------------------------------------
// Logging: concurrent writers through the single guarded write path. The
// lock is exercised only when records actually emit, so log at a level
// above the threshold; TSan asserts the path is race-free.
TEST(ConcurrencyStressTest, LoggerSingleWritePath) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep test output quiet: WARN discarded
  std::vector<std::thread> threads;
  threads.reserve(kStressThreads);
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        // Discarded before the sink (below threshold) — still exercises the
        // level load — plus one emitted record per thread through the lock.
        PANE_LOG(WARNING) << "discarded " << t << ":" << i;
      }
      PANE_LOG(ERROR) << "stress thread " << t << " done";
    });
  }
  for (auto& t : threads) t.join();
  SetLogLevel(saved);
}

}  // namespace
}  // namespace pane
