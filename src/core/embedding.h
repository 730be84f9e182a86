// The PANE output: forward / backward node embeddings and attribute
// embeddings, with the scoring functions the paper's downstream tasks use
// (attribute inference, Equation 21; link prediction, Equation 22). To
// persist one, wrap it in a NodeEmbedding (src/api/node_embedding.h) and
// write the checksummed container.
#pragma once

#include "src/matrix/dense_matrix.h"
#include "src/matrix/vector_ops.h"

namespace pane {

/// \brief Trained embeddings. xf / xb are n x k/2, y is d x k/2.
struct PaneEmbedding {
  DenseMatrix xf;
  DenseMatrix xb;
  DenseMatrix y;

  int64_t num_nodes() const { return xf.rows(); }
  int64_t num_attributes() const { return y.rows(); }
  /// Total space budget k (= 2 * per-side dimension).
  int64_t k() const { return 2 * xf.cols(); }

  /// Attribute-inference score p(v, r) = Xf[v].Y[r] + Xb[v].Y[r]
  /// ~= F[v, r] + B[v, r] (Equation 21).
  double AttributeScore(int64_t v, int64_t r) const {
    const double* yr = y.Row(r);
    return Dot(xf.Row(v), yr, xf.cols()) + Dot(xb.Row(v), yr, xb.cols());
  }
};

/// \brief Link-prediction scorer (Equation 22):
///   p(u, w) = sum_r (Xf[u].Y[r]) (Xb[w].Y[r]) = Xf[u] (Y^T Y) Xb[w]^T.
///
/// Precomputes Z = Xb (Y^T Y) once so each pair costs one k/2-dot:
/// p(u, w) = Xf[u] . Z[w]. For undirected graphs use ScoreUndirected.
///
/// Owns copies of the data it scores with, so the scorer stays valid after
/// the source embedding is destroyed.
class EdgeScorer {
 public:
  explicit EdgeScorer(const PaneEmbedding& embedding);

  /// Builds the scorer directly from factor matrices (xf, xb: n x k/2,
  /// y: d x k/2) — the api-layer NodeEmbedding path.
  EdgeScorer(const DenseMatrix& xf, const DenseMatrix& xb,
             const DenseMatrix& y);

  /// Directed-edge score p(u -> w).
  double Score(int64_t u, int64_t w) const {
    return Dot(xf_.Row(u), xb_gram_.Row(w), xf_.cols());
  }

  /// p(u, w) + p(w, u), the paper's undirected-edge score.
  double ScoreUndirected(int64_t u, int64_t w) const {
    return Score(u, w) + Score(w, u);
  }

 private:
  DenseMatrix xf_;       // copy of the forward factor, n x k/2
  DenseMatrix xb_gram_;  // Xb (Y^T Y), n x k/2
};

}  // namespace pane
