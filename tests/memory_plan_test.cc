// Tests for the training memory plan (PlanMemory, src/core/pane.h), the one
// place a memory budget becomes sizes: it keeps the benchmark's two shapes,
// spills with a quarter of the budget streamed exactly when the slabs and
// their width-1 scratch floor outgrow it, holds each phase's scratch to its
// share and a bounded run's slabs or stream share plus its scratch to the
// budget over a grid of shapes, and hands the affinity engine widths whose
// output is the unfused reference's bytes.
#include "src/core/pane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/core/affinity_engine.h"
#include "src/core/apmi.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

namespace pane {
namespace {

constexpr int64_t kMiB = int64_t{1} << 20;

// F' / B' of `g` through the unfused reference path (ApmiProbabilities +
// SpmiFromProbabilities), which the engine must match bitwise.
AffinityMatrices ReferenceAffinity(const AttributedGraph& g, int t) {
  const CsrMatrix p = g.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  ApmiInputs inputs;
  inputs.p = &p;
  inputs.p_transposed = &pt;
  inputs.r = &g.attributes();
  inputs.alpha = 0.5;
  inputs.t = t;
  return SpmiFromProbabilities(ApmiProbabilities(inputs).ValueOrDie());
}

// Two n-double buffers per panel or strip column.
int64_t ColumnBytes(int64_t n) { return 2 * 8 * n; }

// Runs the affinity engine on `g` as Pane::Train would at this budget — the
// plan's panel width, the slabs spilled in the plan's chunks when it says
// so — and checks the output against the unfused reference.
AffinityEngineStats RunPlannedAffinity(const AttributedGraph& g, int threads,
                                       int64_t budget_mb, int t) {
  const int64_t n = g.num_nodes();
  const int64_t d = g.num_attributes();
  const MemoryPlan plan = PlanMemory(n, d, threads, budget_mb);
  const int64_t spill_chunk_rows =
      plan.stream_bytes > 0 ? plan.stream_chunk_rows : 0;
  ThreadPool pool(threads);
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = t;
  options.pool = &pool;
  options.panel_width = plan.panel_width;
  AffinitySlabs got;
  got.forward = FactorSlab::Create(n, d, spill_chunk_rows).ValueOrDie();
  got.backward = FactorSlab::Create(n, d, spill_chunk_rows).ValueOrDie();
  AffinityEngineStats stats;
  EXPECT_TRUE(ComputeGraphAffinityIntoSlabs(g, options, &got, &stats).ok());
  const std::string what = "threads=" + std::to_string(threads) +
                           " budget=" + std::to_string(budget_mb);
  EXPECT_EQ(stats.spilled, plan.stream_bytes > 0) << what;
  EXPECT_EQ(stats.panel_width, plan.panel_width) << what;
  const AffinityMatrices reference = ReferenceAffinity(g, t);
  EXPECT_EQ(got.forward.MaxAbsDiff(reference.forward), 0.0) << what;
  EXPECT_EQ(got.backward.MaxAbsDiff(reference.backward), 0.0) << what;
  return stats;
}

TEST(MemoryPlanTest, BenchmarkPointsKeepTheirShapes) {
  // ram_exact trains unbounded and spill_routed at 8 MiB, both at 2
  // threads on the 3000 x 300 graph. The unbounded shapes are the ones the
  // benchmark has always reported; the spilled run splits its 8 MiB into a
  // 2 MiB stream share and 6 MiB of scratch, 131 columns of 48000 bytes.
  // The share holds 2 threads x 2 slabs x 218 rows of 300 doubles.
  const MemoryPlan unbounded = PlanMemory(3000, 300, 2, 0);
  EXPECT_EQ(unbounded.stream_bytes, 0);
  EXPECT_EQ(unbounded.stream_chunk_rows, 3000);
  EXPECT_EQ(unbounded.scratch_bytes, kUnboundedScratchBytes);
  EXPECT_EQ(unbounded.panel_width, 29);
  EXPECT_EQ(unbounded.strip_width, 87);
  EXPECT_EQ(unbounded.max_inflight_blocks, 0);
  EXPECT_FALSE(unbounded.clamped);
  const MemoryPlan spilled = PlanMemory(3000, 300, 2, 8);
  EXPECT_EQ(spilled.stream_bytes, 2 * kMiB);
  EXPECT_EQ(spilled.stream_chunk_rows, 218);
  EXPECT_EQ(spilled.scratch_bytes, 6 * kMiB);
  EXPECT_EQ(spilled.panel_width, 131);
  EXPECT_EQ(spilled.strip_width, 131);
  EXPECT_EQ(spilled.max_inflight_blocks, 2);
  EXPECT_FALSE(spilled.clamped);

  // The same shapes reach the phases through Pane::Train, which reports
  // its plan.
  const AttributedGraph g = testing::BenchmarkShapedGraph();
  PaneOptions options;
  options.k = 16;
  options.num_threads = 2;
  options.ccd_iterations = 1;
  PaneStats stats;
  ASSERT_TRUE(Pane(options).Train(g, &stats).ok());
  EXPECT_FALSE(stats.slabs_spilled);
  EXPECT_EQ(stats.affinity.panel_width, 29);
  EXPECT_EQ(stats.affinity.scratch_bytes, 4176000);
  EXPECT_EQ(stats.ccd.strip_width, 87);
  EXPECT_EQ(stats.ccd.scratch_bytes, 4176000);
  EXPECT_EQ(stats.plan.scratch_bytes, kUnboundedScratchBytes);
  EXPECT_EQ(stats.plan.stream_chunk_rows, 3000);
  options.memory_budget_mb = 8;
  ASSERT_TRUE(Pane(options).Train(g, &stats).ok());
  EXPECT_TRUE(stats.slabs_spilled);
  EXPECT_EQ(stats.affinity.panel_width, 131);
  EXPECT_EQ(stats.affinity.scratch_bytes, 6288000);
  EXPECT_EQ(stats.ccd.strip_width, 131);
  EXPECT_EQ(stats.ccd.scratch_bytes, 6288000);
  EXPECT_EQ(stats.plan.stream_bytes, 2 * kMiB);
  EXPECT_EQ(stats.plan.scratch_bytes, 6 * kMiB);
  EXPECT_EQ(stats.plan.stream_chunk_rows, 218);
}

TEST(MemoryPlanTest, BoundedInRamSlabsLeaveTheScratchTheRestOfTheBudget) {
  // At 16 MiB and 2 threads the benchmark graph's slabs (14.4 MB) stay in
  // RAM, and the panels and strips fit the 2377216 bytes they leave: three
  // panels of 16 columns of 48000 bytes, one strip of 49 columns.
  const MemoryPlan plan = PlanMemory(3000, 300, 2, 16);
  EXPECT_EQ(plan.stream_bytes, 0);
  EXPECT_EQ(plan.scratch_bytes, 16 * kMiB - 14400000);
  EXPECT_EQ(plan.panel_width, 16);
  EXPECT_EQ(plan.strip_width, 49);
  EXPECT_FALSE(plan.clamped);
}

TEST(MemoryPlanTest, SharesHoldOverAGrid) {
  for (const int64_t n : {1, 250, 3000, 70000}) {
    for (const int64_t d : {1, 7, 80, 300, 1000}) {
      for (const int64_t budget_mb : {0, 1, 8, 64}) {
        for (const int threads : {1, 2, 4, 8}) {
          const MemoryPlan plan = PlanMemory(n, d, threads, budget_mb);
          const std::string what =
              "n=" + std::to_string(n) + " d=" + std::to_string(d) +
              " budget=" + std::to_string(budget_mb) +
              " threads=" + std::to_string(threads);
          const int64_t budget = budget_mb * kMiB;
          const int64_t slab_bytes = 2 * n * d * 8;
          const int64_t ram_floor = (threads > 1 ? threads + 1 : 1) *
                                    ColumnBytes(n);
          const bool spill = budget > 0 && slab_bytes + ram_floor > budget;
          EXPECT_EQ(plan.stream_bytes, spill ? budget / 4 : 0) << what;
          const int64_t share = budget == 0 ? kUnboundedScratchBytes
                                : spill     ? budget - plan.stream_bytes
                                            : budget - slab_bytes;
          EXPECT_EQ(plan.scratch_bytes, share) << what;

          // Chunks: every row in RAM; spilled, the most rows whose one
          // chunk per thread and slab fits the stream share, at least 1.
          const int64_t chunk = plan.stream_chunk_rows;
          if (!spill) {
            EXPECT_EQ(chunk, n) << what;
          } else {
            EXPECT_GE(chunk, 1) << what;
            EXPECT_LE(chunk, n) << what;
            const int64_t in_flight_row_bytes = threads * 2 * d * 8;
            if (chunk > 1) {
              EXPECT_LE(chunk * in_flight_row_bytes, plan.stream_bytes)
                  << what;
            }
            if (chunk < n) {
              EXPECT_GT((chunk + 1) * in_flight_row_bytes, plan.stream_bytes)
                  << what;
            }
          }

          // Panels: pooled in-RAM runs hold up to threads + 1 at once (the
          // workers and the draining caller), serial and spilled runs one.
          const bool pooled = threads > 1 && !spill;
          const int64_t in_flight = pooled ? threads + 1 : 1;
          const int64_t historical = pooled ? (d + threads - 1) / threads : d;
          const int64_t panel = plan.panel_width;
          EXPECT_GE(panel, 1) << what;
          EXPECT_LE(panel, historical) << what;
          if (in_flight * ColumnBytes(n) * panel > share) {
            // Only the floor may overshoot the share.
            if (budget == 0) {
              EXPECT_LE(panel, kUnboundedScratchMinColumns) << what;
            } else {
              EXPECT_TRUE(plan.clamped) << what;
              EXPECT_EQ(panel, 1) << what;
            }
          } else if (panel < historical) {
            // Narrowed no further than the share requires.
            EXPECT_GT(in_flight * ColumnBytes(n) * (panel + 1), share)
                << what;
          }

          // Strips: one at a time, every column unless the share says no.
          const int64_t strip = plan.strip_width;
          EXPECT_GE(strip, 1) << what;
          EXPECT_LE(strip, d) << what;
          if (ColumnBytes(n) * strip > share) {
            if (budget == 0) {
              EXPECT_LE(strip, kUnboundedScratchMinColumns) << what;
            } else {
              EXPECT_TRUE(plan.clamped) << what;
              EXPECT_EQ(strip, 1) << what;
            }
          } else if (strip < d) {
            EXPECT_GT(ColumnBytes(n) * (strip + 1), share) << what;
          }

          // A spilled run above the clamp floor keeps its stream share
          // and whatever panels or strip it has in flight within the
          // budget.
          if (spill && !plan.clamped) {
            EXPECT_LE(plan.stream_bytes + in_flight * ColumnBytes(n) * panel,
                      budget)
                << what;
            EXPECT_LE(plan.stream_bytes + ColumnBytes(n) * strip, budget)
                << what;
          }

          // A bounded run that keeps its slabs in RAM holds them and its
          // scratch, and so its panels or strip in flight, within the
          // budget.
          if (budget > 0 && !spill) {
            EXPECT_LE(slab_bytes + plan.scratch_bytes, budget) << what;
            EXPECT_LE(slab_bytes + in_flight * ColumnBytes(n) * panel, budget)
                << what;
            EXPECT_LE(slab_bytes + ColumnBytes(n) * strip, budget) << what;
            EXPECT_FALSE(plan.clamped) << what;
          }

          // Init: only a spilled pooled run caps its in-flight F' blocks.
          if (spill && threads > 1) {
            const int64_t block_bytes = (n + threads - 1) / threads * d * 8;
            EXPECT_GE(plan.max_inflight_blocks, 1) << what;
            EXPECT_LE(plan.max_inflight_blocks, threads) << what;
            if (plan.max_inflight_blocks > 1) {
              EXPECT_LE(plan.max_inflight_blocks * block_bytes, budget)
                  << what;
            }
          } else {
            EXPECT_EQ(plan.max_inflight_blocks, 0) << what;
          }
        }
      }
    }
  }
}

TEST(MemoryPlanTest, SpillsIntoAQuarterOfTheBudgetWhenTheSlabsOutgrowIt) {
  // 2048 x 1024 doubles, twice: 32 MiB of slabs.
  // No budget => always RAM, however large the slabs.
  EXPECT_EQ(
      PlanMemory(int64_t{1} << 20, int64_t{1} << 16, 4, 0).stream_bytes, 0);
  // Budget covers the slabs and five width-1 panels beside them => RAM,
  // and the scratch has what the slabs leave. A budget the slabs alone
  // fill, or smaller => a stream share of a quarter of the budget and the
  // scratch the rest.
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 64).stream_bytes, 0);
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 64).scratch_bytes, 32 * kMiB);
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 32).stream_bytes, 8 * kMiB);
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 32).scratch_bytes, 24 * kMiB);
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 16).stream_bytes, 4 * kMiB);
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 16).scratch_bytes, 12 * kMiB);
  // 4 MiB over 4 threads x 2 slabs x 8 KiB rows: 64-row chunks.
  EXPECT_EQ(PlanMemory(2048, 1024, 4, 16).stream_chunk_rows, 64);
}

TEST(MemoryPlanTest, SerialBudgetFitsTheWholeSetInOnePanel) {
  // n = 400, d = 80, 1 MiB, serial: the slabs (512 kB) stay in RAM, and
  // one panel of all 80 columns (512 kB of scratch) fits beside them.
  const AttributedGraph g = testing::SmallSbm(43, 400);
  const MemoryPlan plan = PlanMemory(400, 80, 1, 1);
  EXPECT_EQ(plan.stream_bytes, 0);
  EXPECT_EQ(plan.panel_width, 80);
  EXPECT_FALSE(plan.clamped);
  const AffinityEngineStats stats = RunPlannedAffinity(g, 1, 1, 5);
  EXPECT_EQ(stats.num_panels, 1);
  EXPECT_LE(2 * 400 * 80 * 8 + stats.scratch_bytes, kMiB);
}

TEST(MemoryPlanTest, PooledInRamBudgetKeepsPapmiPanels) {
  // n = 500, 8 workers, 2 MiB: the slabs (640 kB) stay in RAM, and nine
  // in-flight panels of ceil(80 / 8) = 10 columns (720 kB) fit beside them.
  const AttributedGraph g = testing::SmallSbm(44, 500);
  const MemoryPlan plan = PlanMemory(500, 80, 8, 2);
  EXPECT_EQ(plan.stream_bytes, 0);
  EXPECT_EQ(plan.panel_width, 10);
  EXPECT_FALSE(plan.clamped);
  const AffinityEngineStats stats = RunPlannedAffinity(g, 8, 2, 5);
  EXPECT_TRUE(stats.panel_parallel);
  EXPECT_LE(2 * 500 * 80 * 8 + stats.scratch_bytes, 2 * kMiB);
}

TEST(MemoryPlanTest, PooledInRamBudgetNarrowsThePanelsInFlight) {
  // n = 4000, 4 workers, 10 MiB: the slabs (5.12 MB) stay in RAM and leave
  // 5.37 MB of scratch, but five in-flight panels of ceil(80 / 4) = 20
  // columns (6.4 MB) would not fit, so the panels narrow to 16 columns and
  // still run in parallel.
  const AttributedGraph g = testing::SmallSbm(44, 4000);
  const MemoryPlan plan = PlanMemory(4000, 80, 4, 10);
  EXPECT_EQ(plan.stream_bytes, 0);
  EXPECT_EQ(plan.panel_width, 16);
  EXPECT_FALSE(plan.clamped);
  const AffinityEngineStats stats = RunPlannedAffinity(g, 4, 10, 5);
  EXPECT_TRUE(stats.panel_parallel);
  EXPECT_LT(stats.panel_width, g.num_attributes());
  EXPECT_LE(2 * 4000 * 80 * 8 + stats.scratch_bytes, 10 * kMiB);
}

TEST(MemoryPlanTest, SpilledBudgetRunsWholeSharePanelsInSequence) {
  // n = 9000, 8 workers, 1 MiB: the slabs (11.5 MB) spill with a 256 KiB
  // stream share, and spilled panels run one at a time, so one panel gets
  // the whole scratch share: (3 / 4) 2^20 / (2 * 8 * 9000) = 5 columns.
  const AttributedGraph g = testing::SmallSbm(45, 9000);
  const MemoryPlan plan = PlanMemory(9000, 80, 8, 1);
  EXPECT_EQ(plan.stream_bytes, kMiB / 4);
  EXPECT_EQ(plan.panel_width, 5);
  EXPECT_FALSE(plan.clamped);
  const AffinityEngineStats stats = RunPlannedAffinity(g, 8, 1, 2);
  EXPECT_FALSE(stats.panel_parallel);
  EXPECT_LE(stats.scratch_bytes, kMiB);
}

TEST(MemoryPlanTest, BudgetBelowOneColumnClampsToWidthOne) {
  // n = 70000: one column of panel or strip scratch is 2 * 8 * n =
  // 1,120,000 bytes > 1 MiB. The plan runs width-1 panels and strips, the
  // smallest overshoot (a spilled run holds one panel at a time), and says
  // so.
  const MemoryPlan plan = PlanMemory(70000, 80, 4, 1);
  EXPECT_GT(plan.stream_bytes, 0);
  EXPECT_TRUE(plan.clamped);
  EXPECT_EQ(plan.panel_width, 1);
  EXPECT_EQ(plan.strip_width, 1);
  EXPECT_EQ(plan.max_inflight_blocks, 1);
}

TEST(MemoryPlanTest, UnboundedKeepsTheHistoricalShapes) {
  const AttributedGraph g = testing::SmallSbm(46, 200);  // d = 80
  // Serial: one panel spanning the whole attribute set (APMI).
  EXPECT_EQ(PlanMemory(200, 80, 1, 0).panel_width, 80);
  AffinityEngineStats stats = RunPlannedAffinity(g, 1, 0, 3);
  EXPECT_EQ(stats.num_panels, 1);
  // Pooled: ceil(d / nb) columns per worker (PAPMI).
  EXPECT_EQ(PlanMemory(200, 80, 5, 0).panel_width, 16);
  stats = RunPlannedAffinity(g, 5, 0, 3);
  EXPECT_EQ(stats.num_panels, 5);
  EXPECT_TRUE(stats.panel_parallel);
}

TEST(MemoryPlanTest, StripsFollowTheBudget) {
  // A spilled 1 MiB budget leaves 3/4 MiB of scratch, 49152 / n residual
  // columns (two n-double strips per column): width 1 at n = 40000 and 4
  // at n = 10000.
  EXPECT_EQ(PlanMemory(40000, 7, 2, 1).strip_width, 1);
  EXPECT_EQ(PlanMemory(10000, 7, 2, 1).strip_width, 4);
  // n = 8000: a column costs 128000 B, so the unbounded cap holds 32 of 40
  // columns, while the 5.37 MB a 10 MiB budget leaves beside the slabs
  // (5.12 MB) holds all of them.
  EXPECT_EQ(PlanMemory(8000, 40, 2, 0).strip_width, 32);
  EXPECT_LE(ColumnBytes(8000) * 32, kUnboundedScratchBytes);
  EXPECT_EQ(PlanMemory(8000, 40, 2, 10).stream_bytes, 0);
  EXPECT_EQ(PlanMemory(8000, 40, 2, 10).strip_width, 40);
}

}  // namespace
}  // namespace pane
