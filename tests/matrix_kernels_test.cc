// Differential tests for the dispatched training kernels
// (src/matrix/matrix_kernels.h). Both compilations — the baseline table
// and the AVX2 one — are called directly, whatever table this CPU would
// dispatch to, and held bit for bit against scalar references written
// here in the documented order. The AVX2 cases skip on CPUs without AVX2.
#include "src/matrix/matrix_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/gemm.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit equality of two arrays, naming the first differing element. A NaN
// must meet a NaN, but its sign and payload are not compared: when two
// NaNs meet in an add, x86 returns the first operand's, and a compiler may
// swap the operands of a commutative add in any compilation (the reference
// below, compiled at the tests' -O2, and the -O3 baseline kernels already
// disagree on that). Every other bit pattern, -0.0 and subnormals
// included, must match exactly.
void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    ASSERT_EQ(Bits(want[i]), Bits(got[i]))
        << what << " element " << i << ": want " << want[i] << " got "
        << got[i];
  }
}

// --- Scalar references: one operation per step, in the documented order.

double RefDot(const double* x, const double* y, int64_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

// RefDot with its four partial sums combined in a different order: a
// deliberately wrong reference, which the row-kernel sweep must be able to
// tell apart from the kernels.
double MutatedRefDot(const double* x, const double* y, int64_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  double s = (s0 + s2) + (s1 + s3);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void RefAxpy(double a, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void RefGemmRows(const double* a, const double* b, double* c, int64_t rows,
                 int64_t inner, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) c[i * cols + j] = 0.0;
    for (int64_t p = 0; p < inner; ++p) {
      const double v = a[i * inner + p];
      if (v == 0.0) continue;
      for (int64_t j = 0; j < cols; ++j) c[i * cols + j] += v * b[p * cols + j];
    }
  }
}

void RefGemmTransACols(const double* a, int64_t lda, const double* b,
                       double* c, int64_t n, int64_t cols, int64_t k) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const double v = a[i * lda + j];
      if (v == 0.0) continue;
      for (int64_t l = 0; l < k; ++l) c[j * k + l] += v * b[i * k + l];
    }
  }
}

// --- Inputs.

enum class Values { kFinite, kSpecial };

// Gaussian entries; kSpecial mixes in signed zeros, subnormals, infinities
// and NaN at a rate that leaves most outputs finite.
std::vector<double> RandomVector(int64_t n, Values values, Rng* rng) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             -3e-308,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             1e300,
                             -1e300};
  const int64_t num_specials = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) {
    x = rng->Gaussian();
    if (values == Values::kSpecial && rng->UniformInt(8) == 0) {
      x = specials[rng->UniformInt(static_cast<uint64_t>(num_specials))];
    }
  }
  return v;
}

// A matrix operand with about a third of its entries ±0.0, so the GEMM
// skip-zero guard is taken; with kSpecial the other operand carries
// infinities and NaN, where skipping (0 * inf is NaN) is visible.
std::vector<double> SparseOperand(int64_t n, Rng* rng) {
  std::vector<double> v = RandomVector(n, Values::kFinite, rng);
  for (double& x : v) {
    const uint64_t pick = rng->UniformInt(6);
    if (pick == 0) x = 0.0;
    if (pick == 1) x = -0.0;
  }
  return v;
}

// --- One fixture per table.

class MatrixKernelsTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "generic") {
      kernels_ = &detail::kGenericKernels;
      return;
    }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (!__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "CPU does not report AVX2";
    }
    kernels_ = &detail::kAvx2Kernels;
#else
    GTEST_SKIP() << "AVX2 table is x86-64 only";
#endif
  }

  const MatrixKernels* kernels_ = nullptr;
};

TEST_P(MatrixKernelsTest, NameMatchesTable) {
  EXPECT_EQ(std::string(kernels_->name), GetParam());
}

TEST_P(MatrixKernelsTest, DotMatchesReferenceAtEveryLength) {
  Rng rng(11);
  for (const Values values : {Values::kFinite, Values::kSpecial}) {
    for (int64_t n = 0; n <= 67; ++n) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::vector<double> x = RandomVector(n, values, &rng);
        const std::vector<double> y = RandomVector(n, values, &rng);
        ExpectSameBits({RefDot(x.data(), y.data(), n)},
                       {kernels_->dot(x.data(), y.data(), n)},
                       "dot n=" + std::to_string(n));
      }
    }
  }
}

TEST_P(MatrixKernelsTest, DotKeepsSignedZerosSubnormalsAndInfinities) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::vector<double> x, y;
  };
  const std::vector<Case> cases = {
      // -0 products summed onto the +0 accumulators give +0.
      {{-0.0, 0.0, -0.0, 1.0, -0.0}, {1.0, -1.0, 2.0, -0.0, 3.0}},
      // Subnormal products: exact, rounded, and flushed-by-underflow.
      {{tiny, 1e-160, 3e-308, 0.5, tiny}, {1.0, 1e-160, 0.25, 1e-308, -2.0}},
      // One infinity wins; +inf and -inf in different lanes give NaN.
      {{inf, 1.0, 2.0, 3.0, 4.0}, {1.0, 1.0, 1.0, 1.0, 1.0}},
      {{inf, -inf, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0}},
      // Overflow of a partial sum to infinity.
      {{1e308, 1e308, 1e308, 1e308, 1e308}, {10.0, 10.0, 10.0, 10.0, 10.0}},
  };
  for (const Case& c : cases) {
    const int64_t n = static_cast<int64_t>(c.x.size());
    ExpectSameBits({RefDot(c.x.data(), c.y.data(), n)},
                   {kernels_->dot(c.x.data(), c.y.data(), n)}, "dot special");
  }
}

TEST_P(MatrixKernelsTest, AxpyMatchesReferenceAtEveryLength) {
  Rng rng(12);
  for (const Values values : {Values::kFinite, Values::kSpecial}) {
    for (int64_t n = 0; n <= 67; ++n) {
      for (const double a : {1.5, -0.0, 0.0, -3.25e-300, 1e300}) {
        const std::vector<double> x = RandomVector(n, values, &rng);
        std::vector<double> want = RandomVector(n, values, &rng);
        std::vector<double> got = want;
        RefAxpy(a, x.data(), want.data(), n);
        kernels_->axpy(a, x.data(), got.data(), n);
        ExpectSameBits(want, got, "axpy n=" + std::to_string(n));
      }
    }
  }
}

// r rows of length n with their pointer table, for the row kernels.
struct RowSet {
  std::vector<std::vector<double>> rows;
  std::vector<double*> ptrs;
};

RowSet RandomRows(int64_t r, int64_t n, Values values, Rng* rng) {
  RowSet set;
  for (int64_t j = 0; j < r; ++j) {
    set.rows.push_back(RandomVector(n, values, rng));
  }
  for (std::vector<double>& row : set.rows) set.ptrs.push_back(row.data());
  return set;
}

// Every length 0..67 (every n % 4) and every row count 1..9 (a full
// 8-row block plus every remainder), finite and hostile values.
template <typename Check>
void ForEachRowKernelShape(uint64_t seed, Check check) {
  Rng rng(seed);
  for (const Values values : {Values::kFinite, Values::kSpecial}) {
    for (int64_t n = 0; n <= 67; ++n) {
      for (int64_t r = 1; r <= 9; ++r) {
        check(n, r, values, &rng,
              "n=" + std::to_string(n) + " r=" + std::to_string(r) +
                  (values == Values::kSpecial ? " special" : " finite"));
      }
    }
  }
}

TEST_P(MatrixKernelsTest, DotRowsMatchesPerRowDot) {
  ForEachRowKernelShape(
      17, [&](int64_t n, int64_t r, Values values, Rng* rng,
              const std::string& what) {
        const RowSet set = RandomRows(r, n, values, rng);
        const std::vector<double> v = RandomVector(n, values, rng);
        std::vector<double> want(static_cast<size_t>(r));
        for (int64_t j = 0; j < r; ++j) {
          want[static_cast<size_t>(j)] =
              RefDot(set.ptrs[static_cast<size_t>(j)], v.data(), n);
        }
        std::vector<double> got(static_cast<size_t>(r));
        const std::vector<const double*> ptrs(set.ptrs.begin(),
                                              set.ptrs.end());
        kernels_->dot_rows(ptrs.data(), r, v.data(), n, got.data());
        ExpectSameBits(want, got, "dot_rows " + what);
      });
}

TEST_P(MatrixKernelsTest, AxpyDotRowsMatchesAxpyThenDot) {
  ForEachRowKernelShape(
      18, [&](int64_t n, int64_t r, Values values, Rng* rng,
              const std::string& what) {
        const std::vector<double> a = RandomVector(r, values, rng);
        const std::vector<double> x = RandomVector(n, values, rng);
        // One spare element keeps next.data() non-null at n = 0.
        const std::vector<double> next = RandomVector(n + 1, values, rng);
        for (const bool with_next : {true, false}) {
          RowSet want = RandomRows(r, n, values, rng);
          RowSet got = want;
          for (int64_t j = 0; j < r; ++j) {
            got.ptrs[static_cast<size_t>(j)] =
                got.rows[static_cast<size_t>(j)].data();
          }
          std::vector<double> want_dots(static_cast<size_t>(r), 7.0);
          for (int64_t j = 0; j < r; ++j) {
            double* row = want.ptrs[static_cast<size_t>(j)];
            RefAxpy(a[static_cast<size_t>(j)], x.data(), row, n);
            if (with_next) {
              want_dots[static_cast<size_t>(j)] = RefDot(row, next.data(), n);
            }
          }
          // Without next the kernel must leave out untouched.
          std::vector<double> got_dots(static_cast<size_t>(r), 7.0);
          kernels_->axpy_dot_rows(got.ptrs.data(), r, a.data(), x.data(),
                                  with_next ? next.data() : nullptr, n,
                                  got_dots.data());
          const std::string where =
              "axpy_dot_rows " + what + (with_next ? "" : " next=nullptr");
          for (int64_t j = 0; j < r; ++j) {
            ExpectSameBits(want.rows[static_cast<size_t>(j)],
                           got.rows[static_cast<size_t>(j)],
                           where + " row " + std::to_string(j));
          }
          ExpectSameBits(want_dots, got_dots, where + " dots");
        }
      });
}

TEST_P(MatrixKernelsTest, RowKernelSweepSeesALaneOrderChange) {
  // The same sweep against a reference with another lane combine must find
  // differences, or the tests above could not see a kernel that reordered
  // its lanes. The first case is a certain witness: (s0 + s1) + (s2 + s3)
  // cancels to 0, (s0 + s2) + (s1 + s3) gives 2.
  const std::vector<double> witness = {1e16, 1.0, -1e16, 1.0};
  const std::vector<double> ones = {1.0, 1.0, 1.0, 1.0};
  const double* witness_row = witness.data();
  double got = 0.0;
  kernels_->dot_rows(&witness_row, 1, ones.data(), 4, &got);
  EXPECT_NE(Bits(got), Bits(MutatedRefDot(witness.data(), ones.data(), 4)));
  int64_t differ = 0;
  ForEachRowKernelShape(
      17, [&](int64_t n, int64_t r, Values values, Rng* rng,
              const std::string&) {
        const RowSet set = RandomRows(r, n, values, rng);
        const std::vector<double> v = RandomVector(n, values, rng);
        std::vector<double> dots(static_cast<size_t>(r));
        const std::vector<const double*> ptrs(set.ptrs.begin(),
                                              set.ptrs.end());
        kernels_->dot_rows(ptrs.data(), r, v.data(), n, dots.data());
        for (int64_t j = 0; j < r; ++j) {
          const double mutated =
              MutatedRefDot(set.ptrs[static_cast<size_t>(j)], v.data(), n);
          const double kernel = dots[static_cast<size_t>(j)];
          if (!(std::isnan(mutated) && std::isnan(kernel)) &&
              Bits(mutated) != Bits(kernel)) {
            ++differ;
          }
        }
      });
  EXPECT_GT(differ, 0);
}

TEST_P(MatrixKernelsTest, GemmRowsMatchesReferenceOnOddShapes) {
  Rng rng(13);
  for (const Values values : {Values::kFinite, Values::kSpecial}) {
    for (const int64_t rows : {1, 3, 7}) {
      for (const int64_t inner : {1, 2, 5, 9}) {
        for (const int64_t cols : {1, 3, 4, 5, 7, 13, 17}) {
          const std::vector<double> a = SparseOperand(rows * inner, &rng);
          const std::vector<double> b =
              RandomVector(inner * cols, values, &rng);
          // Stale contents: the kernel must overwrite, not accumulate.
          std::vector<double> want = RandomVector(rows * cols, values, &rng);
          std::vector<double> got = want;
          RefGemmRows(a.data(), b.data(), want.data(), rows, inner, cols);
          kernels_->gemm_rows(a.data(), b.data(), got.data(), rows, inner,
                              cols);
          ExpectSameBits(want, got,
                         "gemm_rows " + std::to_string(rows) + "x" +
                             std::to_string(inner) + "x" +
                             std::to_string(cols));
        }
      }
    }
  }
}

TEST_P(MatrixKernelsTest, GemmRowsSkipsZeroEntriesOfA) {
  // A zero (or -0) coefficient against an infinite or NaN row of B must
  // be skipped, not multiplied: 0 * inf would turn the row into NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a = {0.0, 2.0, -0.0};
  const std::vector<double> b = {inf, -inf, nan, inf, 1.0, 2.0,   // skipped
                                 3.0, 4.0,  5.0, 4.0, 1.0, 2.0,   // times 2
                                 nan, -inf, inf, nan, nan, 0.5};  // skipped
  std::vector<double> c(6, 99.0);
  kernels_->gemm_rows(a.data(), b.data(), c.data(), 1, 3, 6);
  ExpectSameBits({6.0, 8.0, 10.0, 8.0, 2.0, 4.0}, c, "gemm_rows skip-zero");
}

TEST_P(MatrixKernelsTest, GemmTransAColsMatchesReferenceOnOddShapes) {
  Rng rng(14);
  for (const Values values : {Values::kFinite, Values::kSpecial}) {
    for (const int64_t n : {1, 4, 9}) {
      for (const int64_t lda : {1, 5, 8}) {
        for (int64_t col_begin = 0; col_begin < lda; col_begin += 2) {
          const int64_t cols = lda - col_begin;
          for (const int64_t k : {1, 3, 4, 7, 13}) {
            const std::vector<double> a = SparseOperand(n * lda, &rng);
            const std::vector<double> b = RandomVector(n * k, values, &rng);
            // The kernel accumulates into C; start from nonzero contents.
            std::vector<double> want = RandomVector(cols * k, values, &rng);
            std::vector<double> got = want;
            RefGemmTransACols(a.data() + col_begin, lda, b.data(),
                              want.data(), n, cols, k);
            kernels_->gemm_trans_a_cols(a.data() + col_begin, lda, b.data(),
                                        got.data(), n, cols, k);
            ExpectSameBits(want, got,
                           "gemm_trans_a_cols n=" + std::to_string(n) +
                               " lda=" + std::to_string(lda) + " begin=" +
                               std::to_string(col_begin) +
                               " k=" + std::to_string(k));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, MatrixKernelsTest,
                         ::testing::Values("generic", "avx2"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

TEST(MatrixKernelsDispatchTest, PicksTheWidestTableTheCpuSupports) {
  const MatrixKernels& chosen = GetMatrixKernels();
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(&chosen, __builtin_cpu_supports("avx2") ? &detail::kAvx2Kernels
                                                    : &detail::kGenericKernels);
#else
  EXPECT_EQ(&chosen, &detail::kGenericKernels);
#endif
  EXPECT_EQ(&chosen, &GetMatrixKernels()) << "resolved once";
}

TEST(MatrixKernelsDispatchTest, VectorOpsRunTheDispatchedTable) {
  Rng rng(15);
  const std::vector<double> x = RandomVector(37, Values::kFinite, &rng);
  const std::vector<double> y = RandomVector(37, Values::kFinite, &rng);
  ExpectSameBits({RefDot(x.data(), y.data(), 37)},
                 {Dot(x.data(), y.data(), 37)}, "Dot");
  std::vector<double> want = y;
  std::vector<double> got = y;
  RefAxpy(-0.75, x.data(), want.data(), 37);
  Axpy(-0.75, x.data(), got.data(), 37);
  ExpectSameBits(want, got, "Axpy");
}

// The serving engine keeps G = Y^T Y instead of Z = Xb G and derives the
// rows of Z it needs one at a time with the dispatched gemm_rows, so every
// such row must be bitwise the row Gemm(xb, G) produces, serial or pooled
// (the pool partitions rows, which must not change any row's arithmetic).
TEST(MatrixKernelsDispatchTest, OneRowGemmMatchesTheFullGemmRow) {
  ThreadPool pool(3);
  Rng rng(16);
  for (const int64_t h : {1, 7, 33, 65}) {
    DenseMatrix xb(41, h), y(29, h), gram, full_serial, full_pooled;
    xb.FillGaussian(&rng);
    y.FillGaussian(&rng);
    for (int64_t i = 0; i < xb.rows(); i += 5) xb(i, i % h) = 0.0;  // skips
    GemmTransA(y.View(), y.View(), &gram);
    Gemm(xb, gram, &full_serial);
    Gemm(xb, gram, &full_pooled, &pool);
    std::vector<double> row(static_cast<size_t>(h));
    for (int64_t w = 0; w < xb.rows(); ++w) {
      GetMatrixKernels().gemm_rows(xb.Row(w), gram.data(), row.data(), 1, h,
                                   h);
      const std::vector<double> serial(full_serial.Row(w),
                                       full_serial.Row(w) + h);
      const std::vector<double> pooled(full_pooled.Row(w),
                                       full_pooled.Row(w) + h);
      const std::string what = "h=" + std::to_string(h) + " row " +
                               std::to_string(w);
      ExpectSameBits(serial, row, what + " serial");
      ExpectSameBits(pooled, row, what + " pooled");
    }
  }
}

}  // namespace
}  // namespace pane
