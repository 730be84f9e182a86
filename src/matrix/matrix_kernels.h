// The training hot loops behind a runtime ISA dispatch: Dot and Axpy (the
// affinity panels' SpMM and the CCD updates of Equations 16-20, which run
// them a block of rows at a time through dot_rows / axpy_dot_rows) and the
// two GEMM row kernels under randomized SVD and greedy initialization.
// matrix_kernels_impl.h holds one implementation; matrix_kernels.cc
// compiles it at the build's baseline ISA and matrix_kernels_avx2.cc
// compiles it again with AVX2 enabled (x86-64 only). Neither compilation
// may fuse a multiply into an add (no FMA, floating-point contraction
// off), so a vector lane rounds exactly like the scalar iteration it
// replaces and both tables are bitwise identical. GetMatrixKernels()
// picks the widest table the running CPU supports, once, from cpuid alone.
#pragma once

#include <cstdint>

namespace pane {

/// One compilation of the hot kernels. Every matrix operand is row-major
/// with row stride equal to its column count (DenseMatrix,
/// ConstMatrixView and FactorSlab all are), except where an explicit
/// leading dimension is passed.
struct MatrixKernels {
  /// "generic" or "avx2": which compilation this table points into.
  const char* name;
  /// sum_i x[i] * y[i]: four stride-4 partial sums combined as
  /// (s0 + s1) + (s2 + s3), then the n % 4 tail in ascending order.
  double (*dot)(const double* x, const double* y, int64_t n);
  /// y += a * x
  void (*axpy)(double a, const double* x, double* y, int64_t n);
  /// out[j] = dot(rows[j], v, n) for j < r. Each row keeps dot's order
  /// (its own four stride-4 partial sums, the same combine, the same
  /// ascending tail), so out[j] is bitwise dot(rows[j], v, n); blocking
  /// rows only lets their independent sums share each load of v.
  void (*dot_rows)(const double* const* rows, int64_t r, const double* v,
                   int64_t n, double* out);
  /// For j < r: rows[j] += a[j] * x, then, unless next is nullptr,
  /// out[j] = dot(rows[j], next, n) over the updated row. Each row and
  /// result is bitwise axpy(a[j], x, rows[j], n) followed by
  /// dot(rows[j], next, n); the fused pass just reads each row once. With
  /// next == nullptr only the update runs and out is not written. The rows
  /// must not overlap each other, x or next.
  void (*axpy_dot_rows)(double* const* rows, int64_t r, const double* a,
                        const double* x, const double* next, int64_t n,
                        double* out);
  /// c (rows x cols) = a (rows x inner) * b (inner x cols), i-k-j order:
  /// each c row is zeroed, then every nonzero a[i][p] adds a[i][p] * b[p][:]
  /// in ascending p. Zero entries of a are skipped.
  void (*gemm_rows)(const double* a, const double* b, double* c, int64_t rows,
                    int64_t inner, int64_t cols);
  /// c (cols x k) += a^T b without forming a^T, where a is n x cols with
  /// leading dimension lda and b is n x k: row i adds a[i][j] * b[i][:] to
  /// c row j, in ascending i, skipping zero a[i][j]. Per output element
  /// this is the order gemm_rows gives over the explicit transpose.
  void (*gemm_trans_a_cols)(const double* a, int64_t lda, const double* b,
                            double* c, int64_t n, int64_t cols, int64_t k);
};

/// The table for this CPU (resolved once; thread-safe).
const MatrixKernels& GetMatrixKernels();

namespace detail {
/// Both compilations, so tests can hold them against each other whatever
/// CPU they run on. kAvx2Kernels must only be called when the CPU reports
/// AVX2.
extern const MatrixKernels kGenericKernels;
#if defined(__x86_64__)
extern const MatrixKernels kAvx2Kernels;
#endif
}  // namespace detail

}  // namespace pane
