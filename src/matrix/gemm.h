// Dense matrix-multiply kernels used by randomized SVD (A Omega, A^T Q),
// greedy initialization (Xf = U Sigma), the baselines' normal equations
// and the served link Gram G = Y^T Y. One entry point per product; every
// operand is a ConstMatrixView, so a DenseMatrix (through its implicit
// conversion) and a FactorSlab or artifact row range reach the same
// kernel with the same arithmetic. Optionally row-parallel.
#pragma once

#include "src/matrix/dense_matrix.h"

namespace pane {

class ThreadPool;

/// C = A * B. C resized to (A.rows, B.cols). Runs the dispatched i-k-j
/// kernel (MatrixKernels::gemm_rows), row-parallel on `pool`.
void Gemm(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
          ThreadPool* pool = nullptr);

/// C = A^T * B. C resized to (A.cols, B.cols). Streams the rows of A
/// (MatrixKernels::gemm_trans_a_cols) instead of forming the transpose; per
/// output element the additions arrive in ascending row index of A with
/// zero entries of A skipped, so the bits equal Gemm over the explicit
/// transpose. Output rows are split across `pool`.
void GemmTransA(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

/// C = A * B^T. C resized to (A.rows, B.rows); C[i][j] = Dot(A_i, B_j).
/// A residual X Y^T - F is GemmTransB(x, y) followed by Sub(F).
void GemmTransB(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

}  // namespace pane
