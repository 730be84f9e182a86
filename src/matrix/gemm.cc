#include "src/matrix/gemm.h"

#include "src/common/logging.h"
#include "src/matrix/matrix_kernels.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// Rows [begin, end) of C = A * B^T via row-row dot products.
void GemmTransBRows(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                    int64_t begin, int64_t end) {
  const int64_t inner = a.cols();
  const int64_t k = b.rows();
  for (int64_t i = begin; i < end; ++i) {
    double* c_row = c->Row(i);
    const double* a_row = a.Row(i);
    for (int64_t j = 0; j < k; ++j) {
      c_row[j] = Dot(a_row, b.Row(j), inner);
    }
  }
}

void GemmTransBAddScaledRows(const DenseMatrix& a, const DenseMatrix& b,
                             double alpha, const DenseMatrix& c0, double beta,
                             DenseMatrix* c, int64_t begin, int64_t end) {
  const int64_t inner = a.cols();
  const int64_t k = b.rows();
  for (int64_t i = begin; i < end; ++i) {
    double* c_row = c->Row(i);
    const double* a_row = a.Row(i);
    const double* c0_row = c0.Row(i);
    for (int64_t j = 0; j < k; ++j) {
      c_row[j] = alpha * Dot(a_row, b.Row(j), inner) + beta * c0_row[j];
    }
  }
}

// Shared resize + serial-vs-row-parallel dispatch for every Gemm operand
// combination: all of them reach the one i-k-j kernel of the dispatched
// table (MatrixKernels::gemm_rows), so the DenseMatrix and view entry
// points share one arithmetic path and one tuning (e.g. the single-row
// cutover), bitwise identical whichever container the bytes live in.
void GemmDispatch(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                  ThreadPool* pool) {
  PANE_CHECK(a.cols() == b.rows()) << "Gemm shape mismatch";
  c->Resize(a.rows(), b.cols());
  const auto gemm_rows = GetMatrixKernels().gemm_rows;
  const auto rows = [&](int64_t begin, int64_t end) {
    gemm_rows(a.Row(begin), b.data(), c->Row(begin), end - begin, a.cols(),
              b.cols());
  };
  if (pool == nullptr || pool->num_threads() == 1 || a.rows() == 1) {
    rows(0, a.rows());
    return;
  }
  ParallelFor(pool, 0, a.rows(), rows);
}

// Shared driver for the streaming (no A^T materialization) forms of
// C = A^T * B. Each row i of A contributes a_row[j] * b_row[:] to C row j,
// so for every output element the additions arrive in ascending i: the
// order the transpose-then-Gemm form produces (at row j, inner index
// p = i ascending), with the same skip-zero guard.
void GemmTransAStreamDispatch(ConstMatrixView a, ConstMatrixView b,
                              DenseMatrix* c, ThreadPool* pool) {
  PANE_CHECK(a.rows() == b.rows()) << "GemmTransA shape mismatch";
  c->Resize(a.cols(), b.cols());  // zero-filled by Resize
  const auto gemm_trans_a_cols = GetMatrixKernels().gemm_trans_a_cols;
  const auto cols = [&](int64_t begin, int64_t end) {
    gemm_trans_a_cols(a.data() + begin, a.cols(), b.data(), c->Row(begin),
                      a.rows(), end - begin, b.cols());
  };
  if (pool == nullptr || pool->num_threads() == 1 || a.cols() == 1) {
    cols(0, a.cols());
    return;
  }
  // Output columns of A (= rows of C) are partitioned across workers; every
  // worker streams all rows of A but writes a disjoint C row range.
  ParallelFor(pool, 0, a.cols(), cols);
}

}  // namespace

void Gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
          ThreadPool* pool) {
  PANE_CHECK(c != &a && c != &b) << "Gemm cannot run in place";
  GemmDispatch(a.View(), b.View(), c, pool);
}

void Gemm(ConstMatrixView a, const DenseMatrix& b, DenseMatrix* c,
          ThreadPool* pool) {
  GemmDispatch(a, b.View(), c, pool);
}

void Gemm(const DenseMatrix& a, ConstMatrixView b, DenseMatrix* c,
          ThreadPool* pool) {
  GemmDispatch(a.View(), b, c, pool);
}

void GemmTransA(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                ThreadPool* pool) {
  PANE_CHECK(a.rows() == b.rows()) << "GemmTransA shape mismatch";
  // A^T is small x large in our call sites (A is tall-skinny); an explicit
  // transpose keeps the kernel at unit stride and costs O(A) extra memory,
  // negligible next to the n x d matrices around it.
  const DenseMatrix at = a.Transposed();
  Gemm(at, b, c, pool);
}

void GemmTransA(ConstMatrixView a, const DenseMatrix& b, DenseMatrix* c,
                ThreadPool* pool) {
  GemmTransAStreamDispatch(a, b.View(), c, pool);
}

void GemmTransA(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool) {
  GemmTransAStreamDispatch(a, b, c, pool);
}

void GemmTransA(const DenseMatrix& a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool) {
  PANE_CHECK(a.rows() == b.rows()) << "GemmTransA shape mismatch";
  const DenseMatrix at = a.Transposed();
  Gemm(at, b, c, pool);
}

void GemmTransB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                ThreadPool* pool) {
  PANE_CHECK(a.cols() == b.cols()) << "GemmTransB shape mismatch";
  PANE_CHECK(c != &a && c != &b) << "GemmTransB cannot run in place";
  c->Resize(a.rows(), b.rows());
  if (pool == nullptr || pool->num_threads() == 1 || a.rows() == 1) {
    GemmTransBRows(a, b, c, 0, a.rows());
    return;
  }
  ParallelFor(pool, 0, a.rows(), [&](int64_t begin, int64_t end) {
    GemmTransBRows(a, b, c, begin, end);
  });
}

void GemmTransBAddScaled(const DenseMatrix& a, const DenseMatrix& b,
                         double alpha, const DenseMatrix& c0, double beta,
                         DenseMatrix* c, ThreadPool* pool) {
  PANE_CHECK(a.cols() == b.cols());
  PANE_CHECK(c0.rows() == a.rows() && c0.cols() == b.rows());
  PANE_CHECK(c != &a && c != &b && c != &c0);
  c->Resize(a.rows(), b.rows());
  if (pool == nullptr || pool->num_threads() == 1 || a.rows() == 1) {
    GemmTransBAddScaledRows(a, b, alpha, c0, beta, c, 0, a.rows());
    return;
  }
  ParallelFor(pool, 0, a.rows(), [&](int64_t begin, int64_t end) {
    GemmTransBAddScaledRows(a, b, alpha, c0, beta, c, begin, end);
  });
}

}  // namespace pane
