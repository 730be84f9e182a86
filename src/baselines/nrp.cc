#include "src/baselines/nrp.h"

#include <algorithm>
#include <cmath>

#include "src/matrix/rand_svd.h"
#include "src/matrix/spmm.h"
#include "src/matrix/vector_ops.h"

namespace pane {

double NrpEmbedding::Score(int64_t u, int64_t v) const {
  return Dot(xf.Row(u), xb.Row(v), xf.cols());
}

Result<NrpEmbedding> TrainNrp(const AttributedGraph& graph,
                              const NrpOptions& options) {
  if (options.k < 2 || options.k % 2 != 0) {
    return Status::InvalidArgument("NRP k must be even and >= 2");
  }
  const int h = options.k / 2;
  const int64_t n = graph.num_nodes();
  const CsrMatrix p = graph.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();

  // Step 1: P ~= U diag(sigma) V^T.
  RandSvdOptions svd_options;
  svd_options.power_iters = 4;
  svd_options.seed = options.seed;
  DenseMatrix u_factor, v_factor;
  std::vector<double> sigma;
  PANE_RETURN_NOT_OK(
      RandSvdSparse(p, pt, h, svd_options, &u_factor, &sigma, &v_factor));
  // Fold singular values into the left factor: P ~= (U Sigma) V^T.
  for (int64_t i = 0; i < n; ++i) {
    double* row = u_factor.Row(i);
    for (int j = 0; j < h; ++j) row[j] *= sigma[static_cast<size_t>(j)];
  }

  // Step 2: PPR series (skipping the l = 0 self-loop term):
  //   Pi ~= alpha * sum_{l>=1} (1-alpha)^l P^l
  //      ~= [alpha * sum_{l>=1} (1-alpha)^l P^(l-1) (U Sigma)] V^T.
  NrpEmbedding embedding;
  {
    DenseMatrix term = u_factor;  // (1-alpha)^l P^(l-1) (U Sigma), l = 1
    term.Scale(1.0 - options.alpha);
    embedding.xf.Resize(n, h);
    embedding.xf.Axpy(options.alpha, term);
    DenseMatrix next;
    for (int l = 2; l <= options.ppr_iterations; ++l) {
      SpMMAddScaled(p, term, 1.0 - options.alpha, term, 0.0, &next);
      std::swap(term, next);
      embedding.xf.Axpy(options.alpha, term);
    }
  }
  embedding.xb = v_factor;

  // Step 3: degree reweighting. With row sums
  //   s_b = sum_v w_b(v) Xb[v],  c_u = Xf[u] . s_b,
  // minimizing (w_f(u) c_u - dout(u))^2 + ridge * w_f(u)^2 gives
  //   w_f(u) = max(0, dout(u) c_u / (c_u^2 + ridge)), and symmetrically for
  // w_b with in-degrees. Alternate a few rounds, then bake the scales in.
  const std::vector<int64_t> out_deg = graph.OutDegrees();
  const std::vector<int64_t> in_deg = graph.InDegrees();
  std::vector<double> wf(static_cast<size_t>(n), 1.0);
  std::vector<double> wb(static_cast<size_t>(n), 1.0);
  std::vector<double> sum_b(static_cast<size_t>(h));
  std::vector<double> sum_f(static_cast<size_t>(h));
  for (int round = 0; round < options.reweight_rounds; ++round) {
    std::fill(sum_b.begin(), sum_b.end(), 0.0);
    for (int64_t v = 0; v < n; ++v) {
      Axpy(wb[static_cast<size_t>(v)], embedding.xb.Row(v), sum_b.data(), h);
    }
    for (int64_t u = 0; u < n; ++u) {
      const double c = Dot(embedding.xf.Row(u), sum_b.data(), h);
      wf[static_cast<size_t>(u)] = std::max(
          0.0, static_cast<double>(out_deg[static_cast<size_t>(u)]) * c /
                   (c * c + options.reweight_ridge));
    }
    std::fill(sum_f.begin(), sum_f.end(), 0.0);
    for (int64_t u = 0; u < n; ++u) {
      Axpy(wf[static_cast<size_t>(u)], embedding.xf.Row(u), sum_f.data(), h);
    }
    for (int64_t v = 0; v < n; ++v) {
      const double c = Dot(embedding.xb.Row(v), sum_f.data(), h);
      wb[static_cast<size_t>(v)] = std::max(
          0.0, static_cast<double>(in_deg[static_cast<size_t>(v)]) * c /
                   (c * c + options.reweight_ridge));
    }
  }
  for (int64_t u = 0; u < n; ++u) {
    // sqrt keeps the reconstructed proximity scale while avoiding zeroing
    // rows whose fitted weight collapsed.
    const double sf = std::sqrt(std::max(wf[static_cast<size_t>(u)], 1e-6));
    const double sb = std::sqrt(std::max(wb[static_cast<size_t>(u)], 1e-6));
    Scal(sf, embedding.xf.Row(u), h);
    Scal(sb, embedding.xb.Row(u), h);
  }
  return embedding;
}

}  // namespace pane
