// Thin single-query wrappers over the serving engine's exact mode: one
// code path scores offline calls and served batches, so both return the
// same indices and bitwise the same scores under the deterministic
// (score desc, index asc) order of src/common/topk.h.
#include "src/tasks/ranking.h"

#include "src/common/logging.h"
#include "src/serve/query_engine.h"

namespace pane {

Ranking TopKAttributes(const PaneEmbedding& embedding, int64_t v, int64_t k,
                       const AttributedGraph* exclude) {
  PANE_CHECK(v >= 0 && v < embedding.num_nodes());
  PANE_CHECK(k > 0);
  serve::QueryEngineOptions options;
  options.precompute_link_gram = false;  // attribute-only: Z is not needed
  auto engine = serve::QueryEngine::Create(
      embedding.xf.View(), embedding.xb.View(), embedding.y.View(), options);
  PANE_CHECK(engine.ok()) << engine.status();
  return engine->TopKAttributes({{v, k}}, exclude)[0];
}

Ranking TopKTargets(const PaneEmbedding& embedding, int64_t u, int64_t k,
                    const AttributedGraph* exclude) {
  PANE_CHECK(u >= 0 && u < embedding.num_nodes());
  PANE_CHECK(k > 0);
  // The engine derives G = Y^T Y, so its scores are EdgeScorer::Score's.
  auto engine = serve::QueryEngine::Create(
      embedding.xf.View(), embedding.xb.View(), embedding.y.View(),
      serve::QueryEngineOptions());
  PANE_CHECK(engine.ok()) << engine.status();
  return engine->TopKTargets({{u, k}}, exclude)[0];
}

}  // namespace pane
