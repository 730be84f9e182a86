#include "src/matrix/vector_ops.h"

#include <cmath>
#include <cstring>

#include "src/matrix/matrix_kernels.h"

namespace pane {

// Dot and Axpy are the CCD hot loops; they run the dispatched kernel
// table (matrix_kernels.h), bitwise identical on every ISA.
double Dot(const double* x, const double* y, int64_t n) {
  return GetMatrixKernels().dot(x, y, n);
}

void Axpy(double a, const double* x, double* y, int64_t n) {
  GetMatrixKernels().axpy(a, x, y, n);
}

void Scal(double a, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= a;
}

double SquaredNorm(const double* x, int64_t n) { return Dot(x, x, n); }

double Norm2(const double* x, int64_t n) { return std::sqrt(SquaredNorm(x, n)); }

void Copy(const double* src, double* dst, int64_t n) {
  std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(double));
}

double NormalizeL2(double* x, int64_t n) {
  const double norm = Norm2(x, n);
  if (norm > 0.0) Scal(1.0 / norm, x, n);
  return norm;
}

}  // namespace pane
