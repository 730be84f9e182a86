#include "src/matrix/rand_svd.h"

#include <algorithm>
#include <functional>

#include "src/common/random.h"
#include "src/matrix/csr_matrix.h"
#include "src/matrix/gemm.h"
#include "src/matrix/qr.h"
#include "src/matrix/spmm.h"
#include "src/matrix/svd.h"

namespace pane {
namespace {

// out = A * x or out = A^T * x for a thin dense panel x.
using Product = std::function<void(const DenseMatrix& x, DenseMatrix* out)>;

// The subspace iteration over an n x d operator given by its two products.
Status SubspaceIteration(int64_t n, int64_t d, const Product& times,
                         const Product& times_transposed, int k,
                         const RandSvdOptions& options, DenseMatrix* u,
                         std::vector<double>* sigma, DenseMatrix* v) {
  if (k <= 0) return Status::InvalidArgument("RandSvd requires k > 0");
  if (n == 0 || d == 0) {
    return Status::InvalidArgument("RandSvd on an empty matrix");
  }

  const int64_t max_rank = std::min(n, d);
  const int64_t r =
      std::min<int64_t>(static_cast<int64_t>(k) + options.oversample, max_rank);
  Rng rng(options.seed);

  // Sketch: Y = A * Omega, Omega Gaussian d x r.
  DenseMatrix omega(d, r);
  omega.FillGaussian(&rng);
  DenseMatrix y;
  times(omega, &y);
  DenseMatrix q;
  PANE_RETURN_NOT_OK(ThinQr(y, &q, /*r=*/nullptr, &rng));

  // Subspace (power) iteration with QR re-orthonormalization each half-step.
  DenseMatrix z, qz;
  for (int iter = 0; iter < options.power_iters; ++iter) {
    times_transposed(q, &z);  // z = A^T q, d x r
    PANE_RETURN_NOT_OK(ThinQr(z, &qz, nullptr, &rng));
    times(qz, &y);  // y = A qz, n x r
    PANE_RETURN_NOT_OK(ThinQr(y, &q, nullptr, &rng));
  }

  // Project: B^T = A^T Q (d x r, tall for JacobiSvd); its exact SVD gives
  // the truncated factors.
  DenseMatrix bt;
  times_transposed(q, &bt);
  DenseMatrix w;            // d x r: right singular vectors of A
  std::vector<double> sig;  // r singular values
  DenseMatrix zz;           // r x r: B^T = W Sig ZZ^T
  PANE_RETURN_NOT_OK(JacobiSvd(bt, &w, &sig, &zz));

  // A ~= Q B = Q (ZZ Sig W^T), so left factors are Q * ZZ.
  DenseMatrix u_full;
  Gemm(q, zz, &u_full, options.pool);  // n x r

  const int64_t kept = std::min<int64_t>(k, r);
  u->Resize(n, k);
  v->Resize(d, k);
  sigma->assign(static_cast<size_t>(k), 0.0);
  for (int64_t j = 0; j < kept; ++j) {
    (*sigma)[static_cast<size_t>(j)] = sig[static_cast<size_t>(j)];
    for (int64_t i = 0; i < n; ++i) (*u)(i, j) = u_full(i, j);
    for (int64_t i = 0; i < d; ++i) (*v)(i, j) = w(i, j);
  }
  if (kept < k) {
    // Rank exhausted before k: complete with orthonormal random directions
    // when the ambient dimension allows, otherwise leave zero columns.
    for (int64_t j = kept; j < k; ++j) {
      if (k <= n) {
        for (int64_t i = 0; i < n; ++i) (*u)(i, j) = rng.Gaussian();
      }
      if (k <= d) {
        for (int64_t i = 0; i < d; ++i) (*v)(i, j) = rng.Gaussian();
      }
    }
    if (k <= n) PANE_RETURN_NOT_OK(OrthonormalizeColumns(u, &rng));
    if (k <= d) PANE_RETURN_NOT_OK(OrthonormalizeColumns(v, &rng));
  }
  return Status::OK();
}

}  // namespace

Status RandSvd(ConstMatrixView a, int k, const RandSvdOptions& options,
               DenseMatrix* u, std::vector<double>* sigma, DenseMatrix* v) {
  return SubspaceIteration(
      a.rows(), a.cols(),
      [&](const DenseMatrix& x, DenseMatrix* out) {
        Gemm(a, x, out, options.pool);
      },
      [&](const DenseMatrix& x, DenseMatrix* out) {
        GemmTransA(a, x, out, options.pool);
      },
      k, options, u, sigma, v);
}

Status RandSvdSparse(const CsrMatrix& a, const CsrMatrix& a_transposed, int k,
                     const RandSvdOptions& options, DenseMatrix* u,
                     std::vector<double>* sigma, DenseMatrix* v) {
  if (a_transposed.rows() != a.cols() || a_transposed.cols() != a.rows()) {
    return Status::InvalidArgument("a_transposed shape mismatch");
  }
  return SubspaceIteration(
      a.rows(), a.cols(),
      [&](const DenseMatrix& x, DenseMatrix* out) {
        SpMM(a, x, out, options.pool);
      },
      [&](const DenseMatrix& x, DenseMatrix* out) {
        SpMM(a_transposed, x, out, options.pool);
      },
      k, options, u, sigma, v);
}

}  // namespace pane
