// Sparse-times-dense kernels. The APMI iteration (Algorithm 2, lines 4-5)
// is Pf <- (1-a) * P * Pf + a * Pf0, i.e. repeated CSR x dense multiplies;
// these kernels are where PANE spends its O(md log(1/eps)) affinity phase.
// SpMM on a CSR matrix and on its transpose are also the two products
// RandSvdSparse hands the subspace iteration (the NRP / TADW baselines).
#pragma once

#include "src/matrix/csr_matrix.h"
#include "src/matrix/dense_matrix.h"

namespace pane {

class ThreadPool;

/// out = A * X. out is resized to (A.rows, X.cols). If pool is non-null the
/// multiply is row-parallel across the pool's workers.
void SpMM(const CsrMatrix& a, const DenseMatrix& x, DenseMatrix* out,
          ThreadPool* pool = nullptr);

/// out = alpha * (A * X) + beta * Y; shapes: A (r x c), X (c x k),
/// Y (r x k). This fused form implements one APMI iteration in a single
/// pass (beta * Y adds the restart term).
void SpMMAddScaled(const CsrMatrix& a, const DenseMatrix& x, double alpha,
                   const DenseMatrix& y, double beta, DenseMatrix* out,
                   ThreadPool* pool = nullptr);

/// Fused panel iteration of the streamed affinity engine: in one pass over
/// each output row,
///   next           = scale * (A * x)                       and
///   slab[:, slab_col .. slab_col + x.cols())  += acc_scale * next.
/// `next` is a panel-width scratch matrix (resized to A.rows x x.cols);
/// the slab is addressed as a raw row-major base pointer with `slab_cols`
/// columns so the engine can accumulate into either FactorSlab backing
/// (RAM or memory-mapped spill) through one kernel — this is what lets the
/// engine keep only O(n x panel_width) scratch instead of a third dense
/// accumulator per panel. Per-element arithmetic is identical to
/// SpMMAddScaled(beta=0) followed by slab.Axpy(acc_scale, next) restricted
/// to the panel columns, so results are bitwise equal to the unfused path;
/// both updates run the dispatched MatrixKernels::axpy, whose lanes round
/// like the scalar loop. Row-parallel across `pool` when non-null.
void SpMMPanelStep(const CsrMatrix& a, const DenseMatrix& x, double scale,
                   DenseMatrix* next, double acc_scale, double* slab,
                   int64_t slab_cols, int64_t slab_col,
                   ThreadPool* pool = nullptr);

}  // namespace pane
