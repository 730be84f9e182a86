// Raw-pointer BLAS-1 kernels used by the Jacobi/QR routines, the task
// models and the offline scorers. Kept free of bounds checks; callers own
// shape correctness. Dot and Axpy run the runtime-dispatched kernel table
// of matrix_kernels.h (whose row-block entries carry the CCD solver,
// Equations 13-20, in the same arithmetic); their results do not depend on
// the ISA.
#pragma once

#include <cstdint>

namespace pane {

/// sum_i x[i] * y[i], in the fixed order MatrixKernels::dot documents.
double Dot(const double* x, const double* y, int64_t n);

/// y += a * x
void Axpy(double a, const double* x, double* y, int64_t n);

/// x *= a
void Scal(double a, double* x, int64_t n);

/// sqrt(sum x_i^2)
double Norm2(const double* x, int64_t n);

/// sum x_i^2
double SquaredNorm(const double* x, int64_t n);

/// dst = src (memcpy semantics)
void Copy(const double* src, double* dst, int64_t n);

/// Normalizes x to unit L2 norm; returns the original norm. A zero vector is
/// left unchanged and 0 is returned.
double NormalizeL2(double* x, int64_t n);

}  // namespace pane
