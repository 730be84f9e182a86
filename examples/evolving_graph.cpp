// Evolving-graph scenario (the "time-varying graphs" extension from the
// paper's conclusion): maintain embeddings over a stream of edge batches.
// Each round adds new follows to a TWeibo-like graph and refreshes the
// embedding warm-started from the previous one — a couple of CCD sweeps —
// instead of retraining from scratch, comparing cost and quality.
//
//   ./examples/evolving_graph [--scale=0.5] [--rounds=3]
//                             [--memory-budget-mb=64]
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/pane.h"
#include "src/datasets/registry.h"

namespace {

pane::AttributedGraph AddEdgeBatch(const pane::AttributedGraph& g,
                                   int64_t batch, uint64_t seed) {
  pane::Rng rng(seed);
  pane::GraphBuilder builder(g.num_nodes(), g.num_attributes());
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    const auto row = g.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) builder.AddEdge(u, row.cols[p]);
    const auto attrs = g.attributes().Row(u);
    for (int64_t p = 0; p < attrs.length; ++p) {
      builder.AddNodeAttribute(u, attrs.cols[p], attrs.vals[p]);
    }
  }
  const uint64_t n = static_cast<uint64_t>(g.num_nodes());
  for (int64_t e = 0; e < batch; ++e) {
    builder.AddEdge(static_cast<int64_t>(rng.UniformInt(n)),
                    static_cast<int64_t>(rng.UniformInt(n)));
  }
  return builder.Build(false).ValueOrDie();
}

}  // namespace

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddDouble("scale", 0.5, "dataset scale factor");
  flags.AddInt("rounds", 3, "number of update rounds");
  flags.AddInt("memory-budget-mb", 0,
               "whole-pipeline memory budget in MiB for training and every "
               "refresh (0 = unbounded)");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  const int64_t budget_mb = flags.GetInt("memory-budget-mb");

  pane::AttributedGraph graph =
      *pane::MakeDatasetByName("tweibo", flags.GetDouble("scale"));
  std::printf("initial graph: %s\n", graph.Summary().c_str());

  pane::PaneOptions options;
  options.k = 64;
  options.num_threads = 2;
  options.memory_budget_mb = budget_mb;
  pane::PaneStats train_stats;
  pane::PaneEmbedding embedding =
      pane::Pane(options).Train(graph, &train_stats).ValueOrDie();
  std::printf(
      "initial full training: %.2fs (objective %.3e; engine width=%lld "
      "panels=%lld scratch=%.1fMB, slabs %s)\n\n",
      train_stats.total_seconds, train_stats.objective_final,
      static_cast<long long>(train_stats.affinity.panel_width),
      static_cast<long long>(train_stats.affinity.num_panels),
      train_stats.affinity.scratch_bytes / 1048576.0,
      train_stats.slabs_spilled ? "mmap-spill" : "in-RAM");

  const int64_t batch = graph.num_edges() / 50;  // ~2% new edges per round
  for (int round = 1; round <= flags.GetInt("rounds"); ++round) {
    graph = AddEdgeBatch(graph, batch, 1000 + static_cast<uint64_t>(round));

    // Warm-start refresh: the training options (same memory budget) with
    // two CCD sweeps on top of the previous embedding.
    pane::PaneOptions refresh_options = options;
    refresh_options.ccd_iterations = 2;
    pane::PaneStats refresh_stats;
    embedding = pane::Pane(refresh_options)
                    .Train(graph, &refresh_stats, &embedding)
                    .ValueOrDie();

    // Full retrain, for the cost/quality comparison.
    pane::PaneStats full_stats;
    const auto full = pane::Pane(options).Train(graph, &full_stats).ValueOrDie();

    std::printf(
        "round %d (+%lld edges): refresh %.2fs (affinity %.2fs, init %.2fs, "
        "ccd %.2fs) vs retrain %.2fs (%.1fx faster); objective %.3e vs %.3e "
        "(%.1f%% gap); refresh engine width=%lld scratch=%.1fMB slabs=%s\n",
        round, static_cast<long long>(batch), refresh_stats.total_seconds,
        refresh_stats.affinity_seconds, refresh_stats.init_seconds,
        refresh_stats.ccd_seconds, full_stats.total_seconds,
        full_stats.total_seconds / refresh_stats.total_seconds,
        refresh_stats.objective_final, full_stats.objective_final,
        100.0 * (refresh_stats.objective_final - full_stats.objective_final) /
            full_stats.objective_final,
        static_cast<long long>(refresh_stats.affinity.panel_width),
        refresh_stats.affinity.scratch_bytes / 1048576.0,
        refresh_stats.slabs_spilled ? "mmap-spill" : "in-RAM");
  }
  std::printf("\nembeddings stay serviceable at a fraction of retrain cost.\n");
  return 0;
}
