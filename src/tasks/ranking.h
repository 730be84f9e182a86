// Top-k retrieval over trained embeddings — the serving-side API for the
// two prediction tasks: "which attributes does node v most likely have?"
// (attribute recommendation) and "which edges from u are most likely?"
// (link recommendation).
#pragma once

#include <cstdint>

#include "src/common/topk.h"
#include "src/core/embedding.h"
#include "src/graph/graph.h"

namespace pane {

// Ranking (and the deterministic score-desc / index-asc order these helpers
// rank by) lives in src/common/topk.h, shared with the serving engine.
// Both functions below are thin single-query wrappers over
// serve::QueryEngine's exact mode, so an offline call and a served batch
// return identical results — same indices, same bitwise scores,
// reproducible across thread counts.

/// \brief Top-k attributes for node v by the Eq. 21 score. If `exclude` is
/// non-null, attributes already associated with v in that graph are
/// skipped (recommendation mode).
Ranking TopKAttributes(const PaneEmbedding& embedding, int64_t v, int64_t k,
                       const AttributedGraph* exclude = nullptr);

/// \brief Top-k target nodes for source u by the Eq. 22 edge score. If
/// `exclude` is non-null, existing out-neighbors of u (and u itself) are
/// skipped.
Ranking TopKTargets(const PaneEmbedding& embedding, int64_t u, int64_t k,
                    const AttributedGraph* exclude = nullptr);

}  // namespace pane
