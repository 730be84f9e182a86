#include "src/baselines/tadw.h"

#include <algorithm>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/matrix/gemm.h"
#include "src/matrix/rand_svd.h"
#include "src/matrix/spmm.h"
#include "src/matrix/svd.h"

namespace pane {

Result<TadwEmbedding> TrainTadw(const AttributedGraph& graph,
                                const TadwOptions& options) {
  if (options.k < 2 || options.k % 2 != 0) {
    return Status::InvalidArgument("TADW k must be even and >= 2");
  }
  if (options.als_iterations < 1) {
    return Status::InvalidArgument("TADW needs at least one ALS iteration");
  }
  const int64_t n = graph.num_nodes();
  if (n > options.max_nodes) {
    return Status::InvalidArgument(StrFormat(
        "TADW materializes an n x n proximity matrix; n=%lld exceeds the "
        "%lld-node guard (this is the scalability wall Table 5 reports)",
        static_cast<long long>(n), static_cast<long long>(options.max_nodes)));
  }
  const int h = options.k / 2;
  Rng rng(options.seed);

  // M = (P + P^2) / 2, densified.
  const CsrMatrix p = graph.RandomWalkMatrix();
  DenseMatrix m = p.ToDense();
  {
    DenseMatrix p2;
    SpMM(p, m, &p2);
    m.Add(p2);
    m.Scale(0.5);
  }

  // Reduced text features T (text_dim x n): top singular directions of R.
  DenseMatrix t;
  {
    const int text_dim = static_cast<int>(
        std::min<int64_t>(options.text_dim,
                          std::min(n, graph.num_attributes())));
    const CsrMatrix& r = graph.attributes();
    const CsrMatrix rt = r.Transposed();
    RandSvdOptions svd_options;
    svd_options.power_iters = 4;
    svd_options.seed = options.seed;
    DenseMatrix ur, vr;
    std::vector<double> sigma;
    PANE_RETURN_NOT_OK(
        RandSvdSparse(r, rt, text_dim, svd_options, &ur, &sigma, &vr));
    for (int64_t i = 0; i < n; ++i) {
      double* row = ur.Row(i);
      for (int j = 0; j < text_dim; ++j) row[j] *= sigma[static_cast<size_t>(j)];
    }
    t = ur.Transposed();  // text_dim x n
  }

  // Alternating ridge regression on ||M - W^T H T||^2 + ridge (||W||^2 +
  // ||H||^2). Both subproblems are linear least squares with closed forms.
  DenseMatrix w(h, n);
  w.FillGaussian(&rng, 0.0, 0.1);
  DenseMatrix ht(h, t.rows());
  ht.FillGaussian(&rng, 0.0, 0.1);

  DenseMatrix z;        // H T, h x n
  DenseMatrix wt;       // W^T, n x h
  for (int iter = 0; iter < options.als_iterations; ++iter) {
    // W step: W^T = M Z^T (Z Z^T + ridge I)^-1.
    Gemm(ht, t, &z);
    DenseMatrix gram, gram_inv;
    GemmTransB(z, z, &gram);
    PANE_RETURN_NOT_OK(InvertSymmetricPsd(gram, options.ridge, &gram_inv));
    DenseMatrix mzt;
    GemmTransB(m, z, &mzt);  // n x h
    Gemm(mzt, gram_inv, &wt);
    w = wt.Transposed();

    // H step: H = (W W^T + ridge I)^-1 (W M T^T) (T T^T + ridge I)^-1.
    DenseMatrix wgram, wgram_inv;
    GemmTransB(w, w, &wgram);
    PANE_RETURN_NOT_OK(InvertSymmetricPsd(wgram, options.ridge, &wgram_inv));
    DenseMatrix wm;
    Gemm(w, m, &wm);  // h x n
    DenseMatrix wmtt;
    GemmTransB(wm, t, &wmtt);  // h x text_dim
    DenseMatrix tgram, tgram_inv;
    GemmTransB(t, t, &tgram);
    PANE_RETURN_NOT_OK(InvertSymmetricPsd(tgram, options.ridge, &tgram_inv));
    DenseMatrix left;
    Gemm(wgram_inv, wmtt, &left);
    Gemm(left, tgram_inv, &ht);
  }

  // Final features: [W^T ; (H T)^T] rows.
  Gemm(ht, t, &z);
  const DenseMatrix zt = z.Transposed();  // n x h
  TadwEmbedding embedding;
  embedding.features.Resize(n, 2 * static_cast<int64_t>(h));
  embedding.features.SetBlock(0, 0, wt);
  embedding.features.SetBlock(0, h, zt);
  return embedding;
}

}  // namespace pane
