#include "src/core/embedding.h"

#include "src/matrix/gemm.h"

namespace pane {

EdgeScorer::EdgeScorer(const PaneEmbedding& embedding)
    : EdgeScorer(embedding.xf, embedding.xb, embedding.y) {}

EdgeScorer::EdgeScorer(const DenseMatrix& xf, const DenseMatrix& xb,
                       const DenseMatrix& y)
    : xf_(xf) {
  // Gram = Y^T Y (k/2 x k/2), then Z = Xb Gram.
  DenseMatrix gram;
  GemmTransA(y, y, &gram);
  Gemm(xb, gram, &xb_gram_);
}

}  // namespace pane
