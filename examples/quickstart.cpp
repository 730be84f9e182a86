// Quickstart: build a small attributed graph by hand, train PANE, and use
// the three things an embedding gives you — node-attribute affinity scores,
// directed-edge scores, and feature vectors.
//
//   ./examples/quickstart
#include <cstdio>

#include "src/core/pane.h"
#include "src/datasets/running_example.h"

int main() {
  // The paper's Figure 1 running example: 6 nodes, 3 attributes. Build your
  // own graphs the same way with GraphBuilder (AddEdge / AddNodeAttribute /
  // AddLabel), or load one with LoadGraphText / LoadGraphContainer.
  const pane::AttributedGraph graph = pane::MakeFigure1Example();
  std::printf("input: %s\n\n", graph.Summary().c_str());

  // Train. k is the total space budget per node (k/2 forward + k/2
  // backward); alpha the random-walk stopping probability; epsilon the
  // affinity approximation error.
  pane::PaneOptions options;
  options.k = 6;
  options.alpha = 0.15;
  options.num_threads = 2;
  pane::PaneStats stats;
  const auto result = pane::Pane(options).Train(graph, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const pane::PaneEmbedding& embedding = *result;
  std::printf("trained in %.3fs (affinity %.3fs, init %.3fs, ccd %.3fs)\n",
              stats.total_seconds, stats.affinity_seconds, stats.init_seconds,
              stats.ccd_seconds);
  std::printf("objective (Eq. 4): %.4f -> %.4f\n\n", stats.objective_initial,
              stats.objective_final);

  // 1. Node-attribute affinity (Equation 21): which attributes does each
  // node relate to, counting multi-hop connections?
  std::printf("attribute scores p(v, r) = Xf[v].Y[r] + Xb[v].Y[r]:\n");
  std::printf("        r1      r2      r3\n");
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    std::printf("v%lld ", static_cast<long long>(v + 1));
    for (int64_t r = 0; r < graph.num_attributes(); ++r) {
      std::printf(" %7.3f", embedding.AttributeScore(v, r));
    }
    std::printf("\n");
  }

  // 2. Directed-edge scores (Equation 22) via the precomputed scorer.
  const pane::EdgeScorer scorer(embedding);
  std::printf("\nedge scores p(u -> w):\n");
  std::printf("  v1 -> v3 (edge):     %7.3f\n", scorer.Score(0, 2));
  std::printf("  v1 -> v6 (2 hops):   %7.3f\n", scorer.Score(0, 5));
  std::printf("  v2 -> v6 (far):      %7.3f\n", scorer.Score(1, 5));

  // 3. Raw vectors for downstream models.
  std::printf("\nforward embedding of v1: [");
  for (int64_t j = 0; j < embedding.xf.cols(); ++j) {
    std::printf("%s%.3f", j > 0 ? ", " : "", embedding.xf(0, j));
  }
  std::printf("]\n");
  return 0;
}
