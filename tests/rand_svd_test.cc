// Tests for the randomized SVD (dense and sparse front-ends): exact
// recovery on low-rank inputs, near-optimal truncation error, rank padding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/random.h"
#include "src/matrix/csr_matrix.h"
#include "src/matrix/gemm.h"
#include "src/matrix/rand_svd.h"

namespace pane {
namespace {

double OrthonormalityError(const DenseMatrix& q) {
  DenseMatrix gram;
  GemmTransA(q, q, &gram);
  gram.Sub(DenseMatrix::Identity(q.cols()));
  return gram.FrobeniusNorm();
}

// Builds an exactly rank-r matrix n x d.
DenseMatrix LowRankMatrix(int64_t n, int64_t d, int64_t r, Rng* rng) {
  DenseMatrix a(n, r), b(r, d), out;
  a.FillGaussian(rng);
  b.FillGaussian(rng);
  Gemm(a, b, &out);
  return out;
}

DenseMatrix Reconstruct(const DenseMatrix& u, const std::vector<double>& sigma,
                        const DenseMatrix& v) {
  DenseMatrix us = u;
  for (int64_t i = 0; i < us.rows(); ++i) {
    for (int64_t j = 0; j < us.cols(); ++j) {
      us(i, j) *= sigma[static_cast<size_t>(j)];
    }
  }
  DenseMatrix rebuilt;
  GemmTransB(us, v, &rebuilt);
  return rebuilt;
}

TEST(RandSvdTest, RecoversExactLowRank) {
  Rng rng(1);
  const DenseMatrix m = LowRankMatrix(80, 40, 5, &rng);
  RandSvdOptions options;
  options.power_iters = 4;
  DenseMatrix u, v;
  std::vector<double> sigma;
  ASSERT_TRUE(RandSvd(m, 5, options, &u, &sigma, &v).ok());
  const DenseMatrix rebuilt = Reconstruct(u, sigma, v);
  EXPECT_LT(rebuilt.MaxAbsDiff(m) / m.FrobeniusNorm(), 1e-8);
  EXPECT_LT(OrthonormalityError(u), 1e-9);
  EXPECT_LT(OrthonormalityError(v), 1e-9);
}

TEST(RandSvdTest, SigmaNonIncreasing) {
  Rng rng(2);
  DenseMatrix m(60, 30);
  m.FillGaussian(&rng);
  RandSvdOptions options;
  DenseMatrix u, v;
  std::vector<double> sigma;
  ASSERT_TRUE(RandSvd(m, 10, options, &u, &sigma, &v).ok());
  for (size_t j = 1; j < sigma.size(); ++j) {
    EXPECT_GE(sigma[j - 1], sigma[j] - 1e-12);
  }
}

TEST(RandSvdTest, NearOptimalErrorOnNoisyLowRank) {
  Rng rng(3);
  DenseMatrix m = LowRankMatrix(100, 50, 8, &rng);
  DenseMatrix noise(100, 50);
  noise.FillGaussian(&rng, 0.0, 0.01);
  m.Add(noise);
  RandSvdOptions options;
  options.power_iters = 6;
  DenseMatrix u, v;
  std::vector<double> sigma;
  ASSERT_TRUE(RandSvd(m, 8, options, &u, &sigma, &v).ok());
  const DenseMatrix rebuilt = Reconstruct(u, sigma, v);
  DenseMatrix diff = rebuilt;
  diff.Sub(m);
  // Residual should be on the order of the injected noise, far below signal.
  EXPECT_LT(diff.FrobeniusNorm() / m.FrobeniusNorm(), 0.02);
}

TEST(RandSvdTest, KBeyondRankPadsOrthonormal) {
  Rng rng(4);
  const DenseMatrix m = LowRankMatrix(50, 20, 3, &rng);
  RandSvdOptions options;
  DenseMatrix u, v;
  std::vector<double> sigma;
  ASSERT_TRUE(RandSvd(m, 10, options, &u, &sigma, &v).ok());
  ASSERT_EQ(static_cast<int64_t>(sigma.size()), 10);
  EXPECT_LT(OrthonormalityError(u), 1e-8);
  EXPECT_LT(OrthonormalityError(v), 1e-8);
  // Trailing singular values vanish.
  for (size_t j = 4; j < sigma.size(); ++j) EXPECT_LT(sigma[j], 1e-7);
}

TEST(RandSvdTest, InvalidInputs) {
  DenseMatrix m(5, 5), u, v;
  std::vector<double> sigma;
  EXPECT_FALSE(RandSvd(m, 0, RandSvdOptions{}, &u, &sigma, &v).ok());
  DenseMatrix empty;
  EXPECT_FALSE(RandSvd(empty, 2, RandSvdOptions{}, &u, &sigma, &v).ok());
}

TEST(RandSvdSparseTest, MatchesDenseOnSameMatrix) {
  // One iteration behind both entry points: SpMM over A and A^T adds the
  // nonzeros in the order the dense kernels add the nonzero entries, so
  // every factor is bitwise the dense one, rank padding (k = 45 > 40)
  // included.
  for (const uint64_t seed : {5, 6, 7}) {
    Rng rng(seed);
    std::vector<Triplet> triplets;
    for (int i = 0; i < 600; ++i) {
      triplets.push_back(
          Triplet{static_cast<int64_t>(rng.UniformInt(uint64_t{60})),
                  static_cast<int64_t>(rng.UniformInt(uint64_t{40})),
                  rng.Gaussian()});
    }
    const CsrMatrix a = CsrMatrix::FromTriplets(60, 40, triplets).ValueOrDie();
    const CsrMatrix at = a.Transposed();
    RandSvdOptions options;
    options.power_iters = 8;
    for (const int k : {6, 30, 45}) {
      const std::string what =
          "seed " + std::to_string(seed) + " k " + std::to_string(k);
      DenseMatrix u_s, v_s, u_d, v_d;
      std::vector<double> sigma_s, sigma_d;
      ASSERT_TRUE(RandSvdSparse(a, at, k, options, &u_s, &sigma_s, &v_s).ok());
      ASSERT_TRUE(RandSvd(a.ToDense(), k, options, &u_d, &sigma_d, &v_d).ok());
      ASSERT_EQ(sigma_s.size(), sigma_d.size()) << what;
      EXPECT_EQ(std::memcmp(sigma_s.data(), sigma_d.data(),
                            sizeof(double) * sigma_d.size()),
                0)
          << what;
      for (const auto& [sparse, dense] :
           {std::pair<const DenseMatrix*, const DenseMatrix*>{&u_s, &u_d},
            {&v_s, &v_d}}) {
        ASSERT_EQ(sparse->rows(), dense->rows()) << what;
        ASSERT_EQ(sparse->cols(), dense->cols()) << what;
        EXPECT_EQ(
            std::memcmp(sparse->data(), dense->data(),
                        sizeof(double) * static_cast<size_t>(dense->size())),
            0)
            << what;
      }
    }
  }
}

TEST(RandSvdSparseTest, TransposeShapeChecked) {
  const CsrMatrix a = CsrMatrix::FromTriplets(4, 3, {{0, 0, 1.0}}).ValueOrDie();
  DenseMatrix u, v;
  std::vector<double> sigma;
  // Passing A instead of A^T must be rejected.
  EXPECT_FALSE(RandSvdSparse(a, a, 2, RandSvdOptions{}, &u, &sigma, &v).ok());
}

TEST(RandSvdTest, DeterministicForFixedSeed) {
  Rng rng(6);
  const DenseMatrix m = LowRankMatrix(30, 20, 4, &rng);
  RandSvdOptions options;
  options.seed = 777;
  DenseMatrix u1, v1, u2, v2;
  std::vector<double> s1, s2;
  ASSERT_TRUE(RandSvd(m, 4, options, &u1, &s1, &v1).ok());
  ASSERT_TRUE(RandSvd(m, 4, options, &u2, &s2, &v2).ok());
  EXPECT_EQ(u1.MaxAbsDiff(u2), 0.0);
  EXPECT_EQ(v1.MaxAbsDiff(v2), 0.0);
}

}  // namespace
}  // namespace pane
