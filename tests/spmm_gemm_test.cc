// Tests for the multiply kernels: sparse-dense and dense-dense, serial vs
// parallel, against naive references (bitwise for the affinity panel step
// and for streaming A^T B against the explicit transpose).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/matrix/csr_matrix.h"
#include "src/matrix/gemm.h"
#include "src/matrix/spmm.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

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

// GemmTransA's reference: the explicit transpose through Gemm, the body
// the streaming kernel replaced.
DenseMatrix TransposeThenGemm(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  Gemm(a.Transposed(), b, &c);
  return c;
}

void ExpectSameBits(const DenseMatrix& got, const DenseMatrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(double) * static_cast<size_t>(want.size())),
            0)
      << what;
}

TEST(GemmTransATest, MatchesNaive) {
  // Streaming A^T B must give the transpose-then-Gemm bits for odd shapes
  // (the 4-wide vector body plus every tail) and for the entries whose
  // handling differs between "skip" and "add": zeros and -0.0 in A are
  // skipped by both, while ±inf and NaN in either operand must propagate
  // identically. Serial and pooled, including one-column A (one worker).
  Rng rng(7);
  ThreadPool pool(3);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, inf, -inf, nan};
  for (const auto& [n, d, k] : std::vector<std::array<int64_t, 3>>{
           {1, 1, 1}, {1, 7, 3}, {5, 1, 9}, {20, 8, 5}, {33, 13, 7},
           {64, 17, 11}}) {
    DenseMatrix a(n, d), b(n, k);
    a.FillGaussian(&rng);
    b.FillGaussian(&rng);
    for (const bool hostile : {false, true}) {
      if (hostile) {
        // About a quarter of the entries of each operand become specials.
        for (DenseMatrix* m : {&a, &b}) {
          for (int64_t e = 0; e < m->size(); ++e) {
            if (rng.UniformInt(uint64_t{4}) == 0) {
              m->data()[e] = specials[rng.UniformInt(uint64_t{5})];
            }
          }
        }
      }
      const DenseMatrix want = TransposeThenGemm(a, b);
      for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const std::string what =
            std::to_string(n) + "x" + std::to_string(d) + "x" +
            std::to_string(k) + (hostile ? " hostile" : "") +
            (threads != nullptr ? " pooled" : " serial");
        DenseMatrix c;
        GemmTransA(a, b, &c, threads);
        ExpectSameBits(c, want, what);
      }
    }
  }
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

TEST(GemmTransBTest, ResidualOracleIsProductMinusF) {
  // testing::Residual (GemmTransB, then Sub) is the oracle the in-place
  // residuals are held to; it must be X Y^T - F.
  Rng rng(9);
  DenseMatrix x(10, 4), y(6, 4), f(10, 6);
  x.FillGaussian(&rng);
  y.FillGaussian(&rng);
  f.FillGaussian(&rng);
  const DenseMatrix s = testing::Residual(x, y, f);
  DenseMatrix expected = NaiveMultiply(x, y.Transposed());
  expected.Sub(f);
  EXPECT_LT(s.MaxAbsDiff(expected), 1e-11);
}

TEST(GemmTest, InPlaceAborts) {
  // The guard compares storage, so a view of C's own rows is caught too.
  DenseMatrix a(4, 4), b(4, 4);
  a.Fill(1.0);
  b.Fill(2.0);
  EXPECT_DEATH(Gemm(a, b, &a), "in place");
  EXPECT_DEATH(GemmTransA(a, b, &b), "in place");
  EXPECT_DEATH(GemmTransB(ConstMatrixView(a.Row(1), 2, 4), b, &a), "in place");
}

TEST(GemmTest, ShapeMismatchAborts) {
  DenseMatrix a(2, 3), b(4, 2), c;
  EXPECT_DEATH(Gemm(a, b, &c), "shape");
}

}  // namespace
}  // namespace pane
