#include "src/matrix/gemm.h"

#include <cstdint>
#include <functional>

#include "src/common/logging.h"
#include "src/matrix/matrix_kernels.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// Aborts when `a` or `b` shares bytes with the current storage of `c`:
// resizing or writing C would then clobber an operand the product reads.
void CheckNotInPlace(ConstMatrixView a, ConstMatrixView b,
                     const DenseMatrix& c, const char* name) {
  const auto c_begin = reinterpret_cast<uintptr_t>(c.data());
  const auto c_end = c_begin + sizeof(double) * static_cast<size_t>(c.size());
  for (const ConstMatrixView& x : {a, b}) {
    const auto begin = reinterpret_cast<uintptr_t>(x.data());
    const auto end =
        begin + sizeof(double) * static_cast<size_t>(x.rows() * x.cols());
    PANE_CHECK(!(begin < c_end && c_begin < end))
        << name << " cannot run in place";
  }
}

// Runs body(begin, end) over [0, rows): serially without a pool (or with a
// one-thread pool, or a single row), else split across the pool. Each
// output row is written by one worker in the serial order, so both paths
// give the same bits.
void ForOutputRows(int64_t rows, ThreadPool* pool,
                   const std::function<void(int64_t, int64_t)>& body) {
  if (pool == nullptr || pool->num_threads() == 1 || rows == 1) {
    body(0, rows);
    return;
  }
  ParallelFor(pool, 0, rows, body);
}

}  // namespace

void Gemm(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
          ThreadPool* pool) {
  PANE_CHECK(a.cols() == b.rows()) << "Gemm shape mismatch";
  CheckNotInPlace(a, b, *c, "Gemm");
  c->Resize(a.rows(), b.cols());
  const auto gemm_rows = GetMatrixKernels().gemm_rows;
  ForOutputRows(a.rows(), pool, [&](int64_t begin, int64_t end) {
    gemm_rows(a.Row(begin), b.data(), c->Row(begin), end - begin, a.cols(),
              b.cols());
  });
}

void GemmTransA(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool) {
  PANE_CHECK(a.rows() == b.rows()) << "GemmTransA shape mismatch";
  CheckNotInPlace(a, b, *c, "GemmTransA");
  c->Resize(a.cols(), b.cols());  // zero-filled: the kernel accumulates
  const auto gemm_trans_a_cols = GetMatrixKernels().gemm_trans_a_cols;
  // Each worker streams every row of A but owns a range of A's columns,
  // i.e. of C's rows.
  ForOutputRows(a.cols(), pool, [&](int64_t begin, int64_t end) {
    gemm_trans_a_cols(a.data() + begin, a.cols(), b.data(), c->Row(begin),
                      a.rows(), end - begin, b.cols());
  });
}

void GemmTransB(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool) {
  PANE_CHECK(a.cols() == b.cols()) << "GemmTransB shape mismatch";
  CheckNotInPlace(a, b, *c, "GemmTransB");
  c->Resize(a.rows(), b.rows());
  ForOutputRows(a.rows(), pool, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      double* c_row = c->Row(i);
      for (int64_t j = 0; j < b.rows(); ++j) {
        c_row[j] = Dot(a.Row(i), b.Row(j), a.cols());
      }
    }
  });
}

}  // namespace pane
