#include "src/matrix/spmm.h"

#include "src/common/logging.h"
#include "src/matrix/matrix_kernels.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// Computes rows [row_begin, row_end) of out = A * X.
void SpMMRows(const CsrMatrix& a, const DenseMatrix& x, DenseMatrix* out,
              int64_t row_begin, int64_t row_end) {
  const int64_t k = x.cols();
  for (int64_t i = row_begin; i < row_end; ++i) {
    double* out_row = out->Row(i);
    std::fill(out_row, out_row + k, 0.0);
    const CsrMatrix::RowView row = a.Row(i);
    for (int64_t p = 0; p < row.length; ++p) {
      const double v = row.vals[p];
      const double* x_row = x.Row(row.cols[p]);
      for (int64_t j = 0; j < k; ++j) out_row[j] += v * x_row[j];
    }
  }
}

// Computes rows [row_begin, row_end) of out = alpha * A * X + beta * Y.
void SpMMAddScaledRows(const CsrMatrix& a, const DenseMatrix& x, double alpha,
                       const DenseMatrix& y, double beta, DenseMatrix* out,
                       int64_t row_begin, int64_t row_end) {
  const int64_t k = x.cols();
  for (int64_t i = row_begin; i < row_end; ++i) {
    double* out_row = out->Row(i);
    const double* y_row = y.Row(i);
    for (int64_t j = 0; j < k; ++j) out_row[j] = beta * y_row[j];
    const CsrMatrix::RowView row = a.Row(i);
    for (int64_t p = 0; p < row.length; ++p) {
      const double v = alpha * row.vals[p];
      const double* x_row = x.Row(row.cols[p]);
      for (int64_t j = 0; j < k; ++j) out_row[j] += v * x_row[j];
    }
  }
}

// Computes rows [row_begin, row_end) of next = scale * (A * X) and
// slab[:, slab_col .. slab_col + k) += acc_scale * next.
void SpMMPanelStepRows(const CsrMatrix& a, const DenseMatrix& x, double scale,
                       DenseMatrix* next, double acc_scale, double* slab,
                       int64_t slab_cols, int64_t slab_col, int64_t row_begin,
                       int64_t row_end) {
  const int64_t k = x.cols();
  const auto axpy = GetMatrixKernels().axpy;
  for (int64_t i = row_begin; i < row_end; ++i) {
    double* next_row = next->Row(i);
    std::fill(next_row, next_row + k, 0.0);
    const CsrMatrix::RowView row = a.Row(i);
    for (int64_t p = 0; p < row.length; ++p) {
      axpy(scale * row.vals[p], x.Row(row.cols[p]), next_row, k);
    }
    axpy(acc_scale, next_row, slab + i * slab_cols + slab_col, k);
  }
}

}  // namespace

void SpMM(const CsrMatrix& a, const DenseMatrix& x, DenseMatrix* out,
          ThreadPool* pool) {
  PANE_CHECK(a.cols() == x.rows())
      << "SpMM shape mismatch: " << a.cols() << " vs " << x.rows();
  PANE_CHECK(out != &x) << "SpMM cannot run in place";
  out->Resize(a.rows(), x.cols());
  if (pool == nullptr || pool->num_threads() == 1) {
    SpMMRows(a, x, out, 0, a.rows());
    return;
  }
  ParallelFor(pool, 0, a.rows(), [&](int64_t begin, int64_t end) {
    SpMMRows(a, x, out, begin, end);
  });
}

void SpMMAddScaled(const CsrMatrix& a, const DenseMatrix& x, double alpha,
                   const DenseMatrix& y, double beta, DenseMatrix* out,
                   ThreadPool* pool) {
  PANE_CHECK(a.cols() == x.rows());
  PANE_CHECK(y.rows() == a.rows() && y.cols() == x.cols());
  PANE_CHECK(out != &x && out != &y) << "SpMMAddScaled cannot run in place";
  out->Resize(a.rows(), x.cols());
  if (pool == nullptr || pool->num_threads() == 1) {
    SpMMAddScaledRows(a, x, alpha, y, beta, out, 0, a.rows());
    return;
  }
  ParallelFor(pool, 0, a.rows(), [&](int64_t begin, int64_t end) {
    SpMMAddScaledRows(a, x, alpha, y, beta, out, begin, end);
  });
}

void SpMMPanelStep(const CsrMatrix& a, const DenseMatrix& x, double scale,
                   DenseMatrix* next, double acc_scale, double* slab,
                   int64_t slab_cols, int64_t slab_col, ThreadPool* pool) {
  PANE_CHECK(a.cols() == x.rows())
      << "SpMMPanelStep shape mismatch: " << a.cols() << " vs " << x.rows();
  PANE_CHECK(next != &x && slab != next->data() && slab != x.data())
      << "SpMMPanelStep cannot run in place";
  PANE_CHECK(slab_col >= 0 && slab_col + x.cols() <= slab_cols)
      << "SpMMPanelStep slab panel out of bounds";
  next->Resize(a.rows(), x.cols());
  if (pool == nullptr || pool->num_threads() == 1) {
    SpMMPanelStepRows(a, x, scale, next, acc_scale, slab, slab_cols, slab_col,
                      0, a.rows());
    return;
  }
  ParallelFor(pool, 0, a.rows(), [&](int64_t begin, int64_t end) {
    SpMMPanelStepRows(a, x, scale, next, acc_scale, slab, slab_cols, slab_col,
                      begin, end);
  });
}

}  // namespace pane
