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
//
// The row-block kernels spell those four lanes out as a GCC vector type,
// one accumulator per row, so a block of rows runs as independent add
// chains against one shared vector instead of one latency-bound chain.
// Every operation on the type is lane-wise IEEE arithmetic, exactly the
// scalar step of the lane it replaces. The type only ever lives in local
// variables (loaded and stored with __builtin_memcpy), never in a function
// signature, whose ABI would differ between the two compilations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

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

// DotImpl's four stride-4 partial sums as one value.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));

// Rows per register block of the row kernels: eight accumulator chains
// hide the add latency. Blocking only decides which rows share a pass over
// the shared vector; each row's arithmetic is the same for any block size.
constexpr int kRowBlock = 8;

// out[j] = DotImpl(rows[j], v, n) for the R rows of one block.
template <int R>
void DotRowsBlock(const double* const* rows, const double* v, int64_t n,
                  double* out) {
  Lanes acc[R];
  for (int j = 0; j < R; ++j) acc[j] = Lanes{0.0, 0.0, 0.0, 0.0};
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Lanes vv;
    __builtin_memcpy(&vv, v + i, sizeof(vv));
    for (int j = 0; j < R; ++j) {
      Lanes row;
      __builtin_memcpy(&row, rows[j] + i, sizeof(row));
      acc[j] += row * vv;
    }
  }
  for (int j = 0; j < R; ++j) {
    double sum = (acc[j][0] + acc[j][1]) + (acc[j][2] + acc[j][3]);
    for (int64_t t = i; t < n; ++t) sum += rows[j][t] * v[t];
    out[j] = sum;
  }
}

// AxpyImpl(a[j], x, rows[j], n), then out[j] = DotImpl(rows[j], next, n),
// for the R rows of one block, reading and writing each row once.
template <int R>
void AxpyDotRowsBlock(double* const* rows, const double* a, const double* x,
                      const double* next, int64_t n, double* out) {
  // Local copies of the row pointers and steps: the compiler can see that
  // the row stores never overwrite them, so they stay out of the loop.
  Lanes acc[R];
  double* row_of[R];
  double step[R];
  for (int j = 0; j < R; ++j) {
    acc[j] = Lanes{0.0, 0.0, 0.0, 0.0};
    row_of[j] = rows[j];
    step[j] = a[j];
  }
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Lanes xv, nv;
    __builtin_memcpy(&xv, x + i, sizeof(xv));
    __builtin_memcpy(&nv, next + i, sizeof(nv));
    for (int j = 0; j < R; ++j) {
      Lanes row;
      __builtin_memcpy(&row, row_of[j] + i, sizeof(row));
      row += step[j] * xv;
      __builtin_memcpy(row_of[j] + i, &row, sizeof(row));
      acc[j] += row * nv;
    }
  }
  for (int j = 0; j < R; ++j) {
    double sum = (acc[j][0] + acc[j][1]) + (acc[j][2] + acc[j][3]);
    for (int64_t t = i; t < n; ++t) {
      row_of[j][t] += step[j] * x[t];
      sum += row_of[j][t] * next[t];
    }
    out[j] = sum;
  }
}

// Runs `block` over full register blocks, then the remainder as 4-, 2- and
// 1-row blocks.
template <typename Block>
void ForRowBlocks(int64_t r, Block block) {
  int64_t j = 0;
  for (; j + kRowBlock <= r; j += kRowBlock) {
    block(j, std::integral_constant<int, kRowBlock>());
  }
  if (r - j >= 4) {
    block(j, std::integral_constant<int, 4>());
    j += 4;
  }
  if (r - j >= 2) {
    block(j, std::integral_constant<int, 2>());
    j += 2;
  }
  if (r - j >= 1) block(j, std::integral_constant<int, 1>());
}

void DotRowsImpl(const double* const* rows, int64_t r, const double* v,
                 int64_t n, double* out) {
  ForRowBlocks(r, [&](int64_t j, auto size) {
    DotRowsBlock<decltype(size)::value>(rows + j, v, n, out + j);
  });
}

void AxpyDotRowsImpl(double* const* rows, int64_t r, const double* a,
                     const double* x, const double* next, int64_t n,
                     double* out) {
  if (next == nullptr) {
    for (int64_t j = 0; j < r; ++j) AxpyImpl(a[j], x, rows[j], n);
    return;
  }
  ForRowBlocks(r, [&](int64_t j, auto size) {
    AxpyDotRowsBlock<decltype(size)::value>(rows + j, a + j, x, next, n,
                                            out + j);
  });
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
