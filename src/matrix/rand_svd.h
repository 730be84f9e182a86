// Randomized truncated SVD (the RandSVD of Algorithm 3 / 7, citing
// Musco & Musco [30]). We implement randomized subspace (simultaneous power)
// iteration with Gaussian sketching and oversampling: for matrices whose
// spectrum decays — which the log-scaled affinity matrices F', B' do — its
// accuracy matches the block-Krylov variant at the iteration counts PANE
// uses, while needing one n x (k+p) panel instead of a q-times-wider one.
//
// The iteration only ever applies A and A^T to thin panels, so it runs
// once, over an operator: RandSvd supplies Gemm / GemmTransA on a dense
// view, RandSvdSparse supplies SpMM on a CSR matrix and its transpose (the
// NRP and TADW baselines, where densifying the n x n input is exactly the
// scalability failure the paper attributes to prior methods). Both reach
// the same sketch, power loop, projection B^T = A^T Q, JacobiSvd and
// rank-padding tail, so the same matrix gives the same bits through
// either.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/matrix/dense_matrix.h"

namespace pane {

class CsrMatrix;
class ThreadPool;

struct RandSvdOptions {
  /// Extra sketch columns beyond the k requested (accuracy buffer).
  int oversample = 8;
  /// Power-iteration count (the paper passes its t here).
  int power_iters = 6;
  /// Sketch seed; fixed default keeps runs reproducible.
  uint64_t seed = 0x7a9e5eedULL;
  /// Optional pool for the products inside the iteration.
  ThreadPool* pool = nullptr;
};

/// \brief Rank-k randomized SVD: a ~= U diag(sigma) V^T.
///
/// U is (a.rows x k) with orthonormal columns, sigma has k non-increasing
/// entries, V is (a.cols x k) with orthonormal columns. If k exceeds
/// min(rows, cols), the surplus columns of U and V are filled with random
/// orthonormal directions and sigma entries are 0 — so downstream consumers
/// (GreedyInit) can rely on U, V always having exactly k orthonormal
/// columns regardless of input rank.
///
/// `a` is only ever streamed row-wise (A Omega, A^T Q), so it may be a
/// FactorSlab view — including a memory-mapped spill slab — and is never
/// materialized or transposed. A DenseMatrix converts to its view.
Status RandSvd(ConstMatrixView a, int k, const RandSvdOptions& options,
               DenseMatrix* u, std::vector<double>* sigma, DenseMatrix* v);

/// \brief RandSvd of sparse `a`, with A^T products run on `a_transposed`
/// (A^T prebuilt by the caller). Same outputs, bitwise, as RandSvd over
/// the dense form of `a`.
Status RandSvdSparse(const CsrMatrix& a, const CsrMatrix& a_transposed, int k,
                     const RandSvdOptions& options, DenseMatrix* u,
                     std::vector<double>* sigma, DenseMatrix* v);

}  // namespace pane
