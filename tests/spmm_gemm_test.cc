// Tests for the multiply kernels: sparse-dense and dense-dense, serial vs
// parallel, against naive references (bitwise for the affinity panel step).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/random.h"
#include "src/matrix/csr_matrix.h"
#include "src/matrix/gemm.h"
#include "src/matrix/spmm.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

DenseMatrix NaiveMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

CsrMatrix RandomSparse(int64_t rows, int64_t cols, int64_t nnz, Rng* rng) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) {
    triplets.push_back(
        Triplet{static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(rows))),
                static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(cols))),
                rng->Gaussian()});
  }
  return CsrMatrix::FromTriplets(rows, cols, triplets).ValueOrDie();
}

TEST(SpMMTest, MatchesDenseReference) {
  Rng rng(1);
  const CsrMatrix a = RandomSparse(40, 30, 200, &rng);
  DenseMatrix x(30, 7);
  x.FillGaussian(&rng);
  DenseMatrix out;
  SpMM(a, x, &out);
  const DenseMatrix expected = NaiveMultiply(a.ToDense(), x);
  EXPECT_LT(out.MaxAbsDiff(expected), 1e-12);
}

TEST(SpMMTest, ParallelMatchesSerial) {
  Rng rng(2);
  const CsrMatrix a = RandomSparse(123, 77, 900, &rng);
  DenseMatrix x(77, 9);
  x.FillGaussian(&rng);
  DenseMatrix serial, parallel;
  SpMM(a, x, &serial);
  ThreadPool pool(4);
  SpMM(a, x, &parallel, &pool);
  EXPECT_EQ(serial.MaxAbsDiff(parallel), 0.0);  // row-partitioned => bitwise
}

TEST(SpMMTest, FusedAddScaled) {
  Rng rng(3);
  const CsrMatrix a = RandomSparse(25, 25, 120, &rng);
  DenseMatrix x(25, 4), y(25, 4);
  x.FillGaussian(&rng);
  y.FillGaussian(&rng);
  DenseMatrix out;
  SpMMAddScaled(a, x, 0.7, y, 0.3, &out);
  DenseMatrix expected = NaiveMultiply(a.ToDense(), x);
  expected.Scale(0.7);
  expected.Axpy(0.3, y);
  EXPECT_LT(out.MaxAbsDiff(expected), 1e-12);
}

TEST(SpMMPanelStepTest, MatchesScalarLoopBitwise) {
  // Both panel updates run the dispatched axpy kernel; every element must
  // still be the scalar loop's multiply-then-add, at every panel width
  // mod 4 (vector body plus tail), serial and pooled.
  Rng rng(10);
  const CsrMatrix a = RandomSparse(57, 43, 400, &rng);
  ThreadPool pool(3);
  const double scale = 0.85;
  const double acc_scale = -1.25;
  for (const int64_t k : {4, 5, 6, 7, 8, 13}) {
    DenseMatrix x(43, k);
    x.FillGaussian(&rng);
    const int64_t slab_cols = k + 3;
    const int64_t slab_col = 2;
    DenseMatrix slab_start(57, slab_cols);
    slab_start.FillGaussian(&rng);
    DenseMatrix want_next(57, k);
    DenseMatrix want_slab = slab_start;
    for (int64_t i = 0; i < a.rows(); ++i) {
      double* next_row = want_next.Row(i);
      const CsrMatrix::RowView row = a.Row(i);
      for (int64_t p = 0; p < row.length; ++p) {
        const double v = scale * row.vals[p];
        const double* x_row = x.Row(row.cols[p]);
        for (int64_t j = 0; j < k; ++j) next_row[j] += v * x_row[j];
      }
      double* slab_row = want_slab.Row(i) + slab_col;
      for (int64_t j = 0; j < k; ++j) slab_row[j] += acc_scale * next_row[j];
    }
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string what = "k=" + std::to_string(k) +
                               (threads != nullptr ? " pooled" : " serial");
      DenseMatrix next;
      DenseMatrix slab = slab_start;
      SpMMPanelStep(a, x, scale, &next, acc_scale, slab.data(), slab_cols,
                    slab_col, threads);
      ASSERT_EQ(next.rows(), a.rows()) << what;
      EXPECT_EQ(std::memcmp(next.data(), want_next.data(),
                            sizeof(double) * static_cast<size_t>(a.rows() * k)),
                0)
          << what << " next";
      EXPECT_EQ(std::memcmp(slab.data(), want_slab.data(),
                            sizeof(double) *
                                static_cast<size_t>(a.rows() * slab_cols)),
                0)
          << what << " slab";
    }
  }
}

TEST(SpMVTest, MatchesDense) {
  Rng rng(4);
  const CsrMatrix a = RandomSparse(15, 10, 60, &rng);
  std::vector<double> x(10);
  for (double& v : x) v = rng.Gaussian();
  std::vector<double> y;
  SpMV(a, x, &y);
  const DenseMatrix ad = a.ToDense();
  for (int64_t i = 0; i < 15; ++i) {
    double expected = 0.0;
    for (int64_t j = 0; j < 10; ++j) expected += ad(i, j) * x[static_cast<size_t>(j)];
    EXPECT_NEAR(y[static_cast<size_t>(i)], expected, 1e-12);
  }
}

TEST(SpMVTest, ParallelMatchesSequential) {
  Rng rng(6);
  const CsrMatrix a = RandomSparse(63, 40, 500, &rng);
  std::vector<double> x(40);
  for (double& v : x) v = rng.Gaussian();
  std::vector<double> sequential, parallel;
  SpMV(a, x, &sequential);
  ThreadPool pool(4);
  SpMV(a, x, &parallel, &pool);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_DOUBLE_EQ(sequential[i], parallel[i]) << i;
  }
}

TEST(GemmTest, MatchesNaive) {
  Rng rng(5);
  DenseMatrix a(17, 23), b(23, 11);
  a.FillGaussian(&rng);
  b.FillGaussian(&rng);
  DenseMatrix c;
  Gemm(a, b, &c);
  EXPECT_LT(c.MaxAbsDiff(NaiveMultiply(a, b)), 1e-11);
}

TEST(GemmTest, ParallelMatchesSerial) {
  Rng rng(6);
  DenseMatrix a(64, 32), b(32, 16);
  a.FillGaussian(&rng);
  b.FillGaussian(&rng);
  DenseMatrix serial, parallel;
  Gemm(a, b, &serial);
  ThreadPool pool(3);
  Gemm(a, b, &parallel, &pool);
  EXPECT_EQ(serial.MaxAbsDiff(parallel), 0.0);
}

TEST(GemmTransATest, MatchesNaive) {
  Rng rng(7);
  DenseMatrix a(20, 8), b(20, 5);
  a.FillGaussian(&rng);
  b.FillGaussian(&rng);
  DenseMatrix c;
  GemmTransA(a, b, &c);
  EXPECT_LT(c.MaxAbsDiff(NaiveMultiply(a.Transposed(), b)), 1e-11);
}

TEST(GemmTransBTest, MatchesNaive) {
  Rng rng(8);
  DenseMatrix a(12, 9), b(14, 9);
  a.FillGaussian(&rng);
  b.FillGaussian(&rng);
  DenseMatrix c;
  GemmTransB(a, b, &c);
  EXPECT_LT(c.MaxAbsDiff(NaiveMultiply(a, b.Transposed())), 1e-11);
}

TEST(GemmTransBAddScaledTest, ResidualForm) {
  Rng rng(9);
  DenseMatrix x(10, 4), y(6, 4), f(10, 6);
  x.FillGaussian(&rng);
  y.FillGaussian(&rng);
  f.FillGaussian(&rng);
  DenseMatrix s;
  GemmTransBAddScaled(x, y, 1.0, f, -1.0, &s);  // S = X Y^T - F
  DenseMatrix expected = NaiveMultiply(x, y.Transposed());
  expected.Sub(f);
  EXPECT_LT(s.MaxAbsDiff(expected), 1e-11);
}

TEST(GemmTest, ShapeMismatchAborts) {
  DenseMatrix a(2, 3), b(4, 2), c;
  EXPECT_DEATH(Gemm(a, b, &c), "shape");
}

}  // namespace
}  // namespace pane
