// Scaling walkthrough (the paper's TWeibo/MAG story): generate a larger
// attributed graph, train single-thread vs parallel PANE, report the phase
// breakdown and speedup, and persist the embeddings to disk for reuse —
// the workflow for embedding a graph too large to re-train casually.
//
//   ./examples/scale_parallel [--scale=1.0] [--threads=4] [--out=emb.ctn]
//                             [--memory-budget-mb=256]
#include <cstdio>

#include "src/api/node_embedding.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/pane.h"
#include "src/datasets/registry.h"

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddDouble("scale", 1.0, "dataset scale factor");
  flags.AddInt("threads", 4, "worker threads for the parallel run");
  flags.AddInt("memory-budget-mb", 0,
               "whole-pipeline memory budget in MiB (0 = unbounded)");
  flags.AddString("out", "/tmp/pane_tweibo_embedding.ctn",
                  "path to save the trained embedding container");
  PANE_CHECK_OK(flags.Parse(argc, argv));

  const pane::AttributedGraph graph =
      *pane::MakeDatasetByName("tweibo", flags.GetDouble("scale"));
  std::printf("graph: %s\n\n", graph.Summary().c_str());

  auto train = [&](int threads) {
    pane::PaneOptions options;
    options.k = 128;
    options.num_threads = threads;
    options.memory_budget_mb = flags.GetInt("memory-budget-mb");
    pane::PaneStats stats;
    auto embedding = pane::Pane(options).Train(graph, &stats).ValueOrDie();
    std::printf(
        "nb=%-3d total %6.2fs  (affinity %6.2fs | init %6.2fs | ccd %6.2fs)"
        "  objective %.3e\n",
        threads, stats.total_seconds, stats.affinity_seconds,
        stats.init_seconds, stats.ccd_seconds, stats.objective_final);
    std::printf(
        "       engine: width=%lld panels=%lld scratch=%.1fMB slabs=%s "
        "(%.1fMB) ccd-strip=%lld\n",
        static_cast<long long>(stats.affinity.panel_width),
        static_cast<long long>(stats.affinity.num_panels),
        stats.affinity.scratch_bytes / 1048576.0,
        stats.slabs_spilled ? "mmap-spill" : "in-RAM",
        stats.slab_bytes / 1048576.0,
        static_cast<long long>(stats.ccd.strip_width));
    return std::make_pair(std::move(embedding), stats);
  };

  auto [single, single_stats] = train(1);
  auto [parallel, parallel_stats] =
      train(static_cast<int>(flags.GetInt("threads")));
  std::printf("\nspeedup: %.2fx\n", single_stats.total_seconds /
                                        parallel_stats.total_seconds);

  // Persist and reload — downstream services score without re-training.
  const std::string path = flags.GetString("out");
  PANE_CHECK_OK(pane::NodeEmbedding::FromPane(parallel).SaveContainer(path));
  pane::WallTimer load_timer;
  const auto artifact = pane::NodeEmbedding::Load(path).ValueOrDie();
  const pane::PaneEmbedding loaded{artifact.xf, artifact.xb, artifact.y};
  std::printf("saved + reloaded embeddings (%lld x %lld twice + %lld x %lld) "
              "from %s in %.0fms\n",
              static_cast<long long>(loaded.xf.rows()),
              static_cast<long long>(loaded.xf.cols()),
              static_cast<long long>(loaded.y.rows()),
              static_cast<long long>(loaded.y.cols()), path.c_str(),
              load_timer.ElapsedMillis());

  // Spot check: reloaded scores match the in-memory embedding bitwise.
  PANE_CHECK(loaded.AttributeScore(0, 0) == parallel.AttributeScore(0, 0));
  std::printf("reloaded scores verified.\n");
  return 0;
}
