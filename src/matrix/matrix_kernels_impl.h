// Shared implementation of the dispatched matrix kernels, included by the
// baseline (matrix_kernels.cc) and AVX2 (matrix_kernels_avx2.cc)
// translation units so both compile the same arithmetic under different
// instruction sets. Everything sits in an unnamed namespace, so each
// translation unit keeps its own copy: were these inline functions with
// external linkage, the linker would keep one body for both tables, and
// the baseline table could end up running AVX2 instructions.
//
// Each loop either vectorizes across independent elements (Axpy and the
// GEMM j-loops: one multiply then one add per element, the scalar order)
// or keeps the scalar accumulation order by construction (Dot's four
// stride-4 partial sums are the four lanes of one vector), so the two
// compilations agree bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>

namespace pane {
namespace detail {
namespace {

double DotImpl(const double* x, const double* y, int64_t n) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) s[l] += x[i + l] * y[i + l];
  }
  double sum = (s[0] + s[1]) + (s[2] + s[3]);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void AxpyImpl(double a, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void GemmRowsImpl(const double* a, const double* b, double* c, int64_t rows,
                  int64_t inner, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    double* c_row = c + i * cols;
    std::fill(c_row, c_row + cols, 0.0);
    const double* a_row = a + i * inner;
    for (int64_t p = 0; p < inner; ++p) {
      const double v = a_row[p];
      if (v == 0.0) continue;
      const double* b_row = b + p * cols;
      for (int64_t j = 0; j < cols; ++j) c_row[j] += v * b_row[j];
    }
  }
}

void GemmTransAColsImpl(const double* a, int64_t lda, const double* b,
                        double* c, int64_t n, int64_t cols, int64_t k) {
  for (int64_t i = 0; i < n; ++i) {
    const double* a_row = a + i * lda;
    const double* b_row = b + i * k;
    for (int64_t j = 0; j < cols; ++j) {
      const double v = a_row[j];
      if (v == 0.0) continue;
      double* c_row = c + j * k;
      for (int64_t l = 0; l < k; ++l) c_row[l] += v * b_row[l];
    }
  }
}

}  // namespace
}  // namespace detail
}  // namespace pane
