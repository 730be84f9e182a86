// Figure 4 reproduction: PANE efficiency with varying parameters on the two
// large social-network datasets (Google+- and TWeibo-like):
//   4a. parallel speedup vs number of threads nb in {1, 2, 5, 10, 20}
//   4b. running time vs space budget k in {16, 32, 64, 128, 256}
//   4c. running time vs error threshold eps in {0.001 ... 0.25}
// Expected shape: 4a near-linear until the physical core count saturates;
// 4b flat-ish slow growth; 4c time dropping ~10x from eps=0.001 to 0.25.
//   4d (extension): peak RSS and throughput under --memory-budget-mb —
//       first the affinity phase alone across budgets, then the whole
//       pipeline (affinity + init + CCD) comparing spilled factor slabs
//       under a tight budget, in-RAM slabs under one that holds them, and
//       the unbounded run. Tight
//       budgets must hold the process high-water mark below the unbounded
//       run at equal threads; spilled slabs must hold it near budget + the
//       output-slab floor.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/core/affinity_engine.h"
#include "src/core/pane.h"
#include "src/datasets/registry.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// Affinity phase only, budgets tightest-first (VmHWM is monotone: each row's
// peak-RSS increase is attributable to that row's larger scratch; the
// unbounded run goes last so a budget violation is visible as the final
// jump).
// Whole-pipeline rows for the 4d extension: affinity + init + CCD at a
// budget below the two n x d slabs, which spills them (smallest footprint
// first; VmHWM is monotone), then at the smallest budget that holds them in
// RAM, then unbounded last. The spill row's delta is the bounded-memory
// claim: scratch + streaming floors instead of the 2 n d factor set.
void RunWholePipelineBudgetSection(const AttributedGraph& g,
                                   int64_t budget_mb) {
  bench::PrintHeader(
      "Figure 4d (extension): whole pipeline vs --memory-budget-mb",
      "full Train (affinity + init + CCD), k=64, nb=10; spilled below the "
      "slabs, in RAM at them, unbounded last (VmHWM monotone)");
  struct Config {
    const char* name;
    int64_t budget_mb;
  };
  const int64_t slab_bytes = 2 * static_cast<int64_t>(sizeof(double)) *
                             g.num_nodes() * g.num_attributes();
  const Config configs[] = {
      {"spill @budget", budget_mb},
      {"in-RAM @slabs", (slab_bytes + (int64_t{1} << 20) - 1) >> 20},
      {"unbounded", 0},
  };
  bench::PrintRow("config", {"width", "panels", "scratch", "slabs",
                             "peak RSS", "dRSS", "time"});
  for (const Config& config : configs) {
    const int64_t rss_before = bench::PeakRssBytes();
    const auto run = bench::TrainPaneOrDie(g, /*k=*/64, /*num_threads=*/10,
                                           0.5, 0.015, /*greedy_init=*/true,
                                           /*ccd_iterations=*/0,
                                           config.budget_mb);
    const int64_t rss_after = bench::PeakRssBytes();
    bench::PrintRow(
        config.name,
        {StrFormat("%lld", static_cast<long long>(
                               run.stats.affinity.panel_width)),
         StrFormat("%lld",
                   static_cast<long long>(run.stats.affinity.num_panels)),
         bench::MegabyteCell(
             static_cast<double>(run.stats.affinity.scratch_bytes +
                                 run.stats.ccd.scratch_bytes)),
         run.stats.slabs_spilled ? "spill" : "RAM",
         bench::MegabyteCell(static_cast<double>(rss_after)),
         rss_before < 0 || rss_after < 0
             ? "-"
             : bench::MegabyteCell(
                   static_cast<double>(rss_after - rss_before)),
         bench::TimeCell(run.stats.total_seconds)});
  }
}

void RunMemoryBudgetSection(double scale) {
  bench::PrintHeader(
      "Figure 4d (extension): affinity phase vs --memory-budget-mb",
      "panel-streamed engine; peak RSS is the process high-water mark "
      "(monotone), throughput counts streamed series cells");
  // Default shape follows the google+ stand-in at bench scale; the
  // acceptance-scale run (n >= 100k, d >= 1k) is reachable directly with
  // PANE_BENCH_AFFINITY_N=100000 PANE_BENCH_AFFINITY_D=1000 without also
  // inflating the earlier figure sections.
  const int64_t env_n =
      static_cast<int64_t>(EnvDoubleOr("PANE_BENCH_AFFINITY_N", 0.0));
  const int64_t env_d =
      static_cast<int64_t>(EnvDoubleOr("PANE_BENCH_AFFINITY_D", 1000.0));
  AttributedGraph g;
  if (env_n > 0) {
    SbmParams params;
    params.num_nodes = env_n;
    params.num_edges = 10 * env_n;
    params.num_attributes = env_d;
    params.num_attr_entries = 10 * env_n;
    params.num_communities = 20;
    params.seed = 4242;
    g = GenerateAttributedSbm(params);
  } else {
    g = *MakeDatasetByName("google+", scale);
  }
  const int64_t n = g.num_nodes();
  const int64_t d = g.num_attributes();
  const int nb = 10;
  ThreadPool pool(nb);
  const int t = ComputeIterationCount(0.015, 0.5);
  // The unbounded pooled path keeps ~2 n d doubles of panel scratch in
  // flight; sweep budgets at fractions of that, tightest first.
  const int64_t unbounded_mb =
      (2 * static_cast<int64_t>(sizeof(double)) * n * d) >> 20;
  std::printf("%s: n=%lld d=%lld t=%d nb=%d, output slabs %s, unbounded "
              "scratch ~%lldMB\n",
              env_n > 0 ? "generated sbm" : "google+ at bench scale",
              static_cast<long long>(n), static_cast<long long>(d), t, nb,
              bench::MegabyteCell(16.0 * n * d).c_str(),
              static_cast<long long>(unbounded_mb));
  // Fractions of the unbounded scratch, deduplicated (at tiny bench scales
  // they all collapse to the 1 MiB floor), unbounded last.
  std::vector<int64_t> budgets_mb;
  for (const int64_t divisor : {8, 4, 2}) {
    const int64_t budget = std::max<int64_t>(1, unbounded_mb / divisor);
    if (budgets_mb.empty() || budgets_mb.back() != budget) {
      budgets_mb.push_back(budget);
    }
  }
  budgets_mb.push_back(0);
  bench::PrintRow("budget", {"width", "panels", "scratch", "peak RSS",
                             "dRSS", "time", "Mcell/s"});
  for (const int64_t budget : budgets_mb) {
    // VmHWM is process-lifetime monotone (and already includes the earlier
    // figure sections), so the per-row delta is what attributes growth to
    // this row's scratch; rows that fit under the existing high-water mark
    // report a 0 delta.
    const int64_t rss_before = bench::PeakRssBytes();
    WallTimer timer;
    // The sizes and slab backing Pane::Train would use at this budget.
    const MemoryPlan plan = PlanMemory(n, d, nb, budget);
    const int64_t spill_chunk_rows =
        plan.stream_bytes > 0 ? plan.stream_chunk_rows : 0;
    AffinityEngineOptions options;
    options.t = t;
    options.pool = &pool;
    options.panel_width = plan.panel_width;
    AffinityEngineStats stats;
    AffinitySlabs affinity;
    affinity.forward = FactorSlab::Create(n, d, spill_chunk_rows).ValueOrDie();
    affinity.backward =
        FactorSlab::Create(n, d, spill_chunk_rows).ValueOrDie();
    PANE_CHECK_OK(ComputeGraphAffinityIntoSlabs(g, options, &affinity, &stats));
    const double seconds = timer.ElapsedSeconds();
    const int64_t rss_after = bench::PeakRssBytes();
    const double cells = 2.0 * n * d * (t + 1);
    constexpr double kMinMeasurable = 1e-6;
    bench::PrintRow(
        budget == 0 ? "unbounded" : StrFormat("%lldMiB",
                                              static_cast<long long>(budget)),
        {StrFormat("%lld", static_cast<long long>(stats.panel_width)),
         StrFormat("%lld", static_cast<long long>(stats.num_panels)),
         bench::MegabyteCell(static_cast<double>(stats.scratch_bytes)),
         bench::MegabyteCell(static_cast<double>(rss_after)),
         rss_before < 0 || rss_after < 0
             ? "-"
             : bench::MegabyteCell(static_cast<double>(rss_after - rss_before)),
         bench::TimeCell(seconds),
         seconds < kMinMeasurable ? "n/a"
                                  : bench::Cell(cells / seconds / 1e6)});
  }

  RunWholePipelineBudgetSection(g, std::max<int64_t>(1, unbounded_mb / 4));
}

void Run() {
  const double scale = bench::BenchScale();
  const std::vector<std::string> dataset_names = {"google+", "tweibo"};

  bench::PrintHeader("Figure 4a: parallel speedup vs nb",
                     "speedup = time(nb=1) / time(nb); hardware threads "
                     "here: " + std::to_string(std::thread::hardware_concurrency()));
  bench::PrintRow("dataset", {"nb=1", "nb=2", "nb=5", "nb=10", "nb=20"});
  for (const std::string& name : dataset_names) {
    const AttributedGraph g = *MakeDatasetByName(name, scale);
    double base = 0.0;
    std::vector<std::string> cells;
    for (const int nb : {1, 2, 5, 10, 20}) {
      const auto run = bench::TrainPaneOrDie(g, 128, nb);
      if (nb == 1) base = run.stats.total_seconds;
      // At small bench scale a run can finish in ~0s; a ratio against that
      // prints inf/nan, so emit n/a instead.
      constexpr double kMinMeasurable = 1e-6;
      double speedup = std::numeric_limits<double>::quiet_NaN();
      if (base >= kMinMeasurable && run.stats.total_seconds >= kMinMeasurable) {
        speedup = base / run.stats.total_seconds;
      }
      cells.push_back(std::isnan(speedup) ? "n/a" : bench::Cell(speedup));
    }
    bench::PrintRow(name, cells);
  }

  bench::PrintHeader("Figure 4b: running time (s) vs space budget k",
                     "paper shape: slow growth in k");
  bench::PrintRow("dataset", {"k=16", "k=32", "k=64", "k=128", "k=256"});
  for (const std::string& name : dataset_names) {
    const AttributedGraph g = *MakeDatasetByName(name, scale);
    std::vector<std::string> cells;
    for (const int k : {16, 32, 64, 128, 256}) {
      const auto run = bench::TrainPaneOrDie(g, k, 10);
      cells.push_back(bench::TimeCell(run.stats.total_seconds));
    }
    bench::PrintRow(name, cells);
  }

  bench::PrintHeader("Figure 4c: running time (s) vs error threshold eps",
                     "paper shape: ~10x drop from eps=0.001 to eps=0.25 "
                     "(time linear in log(1/eps))");
  bench::PrintRow("dataset",
                  {"0.001", "0.005", "0.015", "0.05", "0.25"});
  for (const std::string& name : dataset_names) {
    const AttributedGraph g = *MakeDatasetByName(name, scale);
    std::vector<std::string> cells;
    for (const double eps : {0.001, 0.005, 0.015, 0.05, 0.25}) {
      const auto run = bench::TrainPaneOrDie(g, 128, 10, 0.5, eps);
      cells.push_back(bench::TimeCell(run.stats.total_seconds));
    }
    bench::PrintRow(name, cells);
  }

  RunMemoryBudgetSection(scale);
}

}  // namespace
}  // namespace pane

int main(int argc, char** argv) {
  pane::FlagSet flags;
  PANE_CHECK_OK(flags.Parse(argc, argv));
  pane::Run();
  return 0;
}
