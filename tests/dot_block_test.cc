// Tests for the serving engine's f32 screening kernel
// (src/serve/dot_block.h): the baseline and AVX2 compilations, called
// directly, must each stay within the error bound the query engine's
// certifier assumes for the f32 side of a screened score,
//   |s' - x.r| <= g_{h+2}(2^-24) sum_i |x_i r_i| + h 2^-150,
// where x and r are the f64 rows the f32 copies were rounded from — on
// inputs built for heavy cancellation (the exact dot is tiny next to
// sum_i |x_i r_i|), at every h % 8 (h = 1-33, then 47-128), every
// query-block width remainder and every candidate count modulo the panel
// width, with products that underflow. The AVX2 cases skip on CPUs
// without AVX2.
#include "src/serve/dot_block.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"

namespace pane {
namespace {

class DotBlockTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "generic") {
      kernel_ = serve::detail::DotBlockGeneric;
      return;
    }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (!__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "CPU does not report AVX2";
    }
    kernel_ = serve::detail::DotBlockAvx2;
#else
    GTEST_SKIP() << "AVX2 variant is x86-64 only";
#endif
  }

  serve::DotBlockFn kernel_ = nullptr;
};

double Gamma(int64_t n, double unit) {
  const double nu = static_cast<double>(n) * unit;
  return nu / (1.0 - nu);
}

/// `rows` x h f64 rows, the second half of each row `sign` times a
/// slightly perturbed copy of the first, entries spread over 2^+-`spread`
/// in magnitude: a sign -1 row paired with a sign +1 row has products that
/// cancel to a tiny fraction of their absolute sum.
std::vector<double> MirroredRows(Rng* rng, int64_t rows, int64_t h,
                                 double scale, int spread, double sign) {
  std::vector<double> out(static_cast<size_t>(rows * h));
  for (int64_t i = 0; i < rows; ++i) {
    double* row = out.data() + i * h;
    const int64_t half = h / 2;
    for (int64_t t = 0; t < h; ++t) {
      const double mag = std::ldexp(
          scale, static_cast<int>(rng->UniformInt(-spread, spread)));
      row[t] = mag * rng->Gaussian();
      if (t >= half && t - half < half) {
        row[t] = sign * row[t - half] * (1.0 + 0x1p-20 * rng->Gaussian());
      }
    }
  }
  return out;
}

std::vector<float> ToFloats(const std::vector<double>& v) {
  std::vector<float> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = static_cast<float>(v[i]);
  return out;
}

/// f32 copies of `count` row-major rows in the kernel's panel layout, the
/// last panel zero-padded.
std::vector<float> ToPanels(const std::vector<double>& rows, int64_t count,
                            int64_t h) {
  constexpr int64_t kP = serve::kScreenPanel;
  const int64_t panels = (count + kP - 1) / kP;
  std::vector<float> out(static_cast<size_t>(panels * h * kP), 0.0f);
  for (int64_t i = 0; i < count; ++i) {
    for (int64_t t = 0; t < h; ++t) {
      out[static_cast<size_t>((i / kP) * h * kP + t * kP + i % kP)] =
          static_cast<float>(rows[static_cast<size_t>(i * h + t)]);
    }
  }
  return out;
}

TEST_P(DotBlockTest, StaysWithinTheCertifiedBound) {
  Rng rng(21);
  constexpr int64_t kStride = 70;  // out[q * kStride + c], as the engine
  std::vector<int64_t> hs;
  for (int64_t h = 1; h <= 33; ++h) hs.push_back(h);
  for (const int64_t h : {47, 63, 64, 65, 128}) hs.push_back(h);
  // Query-block widths 1-17 cover every remainder mod 16; 64 and 65 the
  // engine's default block and one past it.
  std::vector<int64_t> widths;
  for (int64_t b = 1; b <= 17; ++b) widths.push_back(b);
  widths.push_back(64);
  widths.push_back(65);
  // scale 1: products near 1; scale 2^-66: many products underflow below
  // FLT_MIN (the h 2^-150 term).
  for (const double scale : {1.0, 0x1p-66}) {
    for (const int64_t h : hs) {
      for (const int64_t b : widths) {
        // Candidate counts 1-64 cover every remainder mod the panel width.
        const int64_t len = 1 + (h + b) % 64;
        const int64_t panels =
            (len + serve::kScreenPanel - 1) / serve::kScreenPanel;
        const std::vector<double> queries =
            MirroredRows(&rng, b, h, scale, 12, -1.0);
        const std::vector<double> cands =
            MirroredRows(&rng, len, h, scale, 12, 1.0);
        const std::vector<float> qf = ToFloats(queries);
        const std::vector<float> cf = ToPanels(cands, len, h);
        std::vector<float> out(static_cast<size_t>(b * kStride), -7.0f);
        kernel_(qf.data(), b, cf.data(), panels, h, out.data(), kStride);
        for (int64_t q = 0; q < b; ++q) {
          for (int64_t j = 0; j < len; ++j) {
            const double* x = queries.data() + q * h;
            const double* r = cands.data() + j * h;
            long double exact = 0.0L;
            double abs_sum = 0.0;
            for (int64_t t = 0; t < h; ++t) {
              exact += static_cast<long double>(x[t]) * r[t];
              abs_sum += std::fabs(x[t] * r[t]);
            }
            const double bound = Gamma(h + 2, 0x1p-24) * abs_sum +
                                 static_cast<double>(h) * 0x1p-150;
            const double got = out[static_cast<size_t>(q * kStride + j)];
            ASSERT_LE(std::fabs(got - static_cast<double>(exact)), bound)
                << "h=" << h << " b=" << b << " q=" << q << " j=" << j
                << " scale=" << scale;
          }
          // Padding candidates score 0; slots past the last panel are
          // untouched.
          for (int64_t j = len; j < kStride; ++j) {
            ASSERT_EQ(out[static_cast<size_t>(q * kStride + j)],
                      j < panels * serve::kScreenPanel ? 0.0f : -7.0f);
          }
        }
      }
    }
  }
}

TEST_P(DotBlockTest, ZeroRowsScoreExactlyZero) {
  // The certifier gives a zero query or row the bound 0.
  constexpr int64_t kP = serve::kScreenPanel;
  const std::vector<float> zeros(65 * 2 * kP, 0.0f);
  const std::vector<float> ones(65 * 2 * kP, 1.5f);
  std::vector<float> out(2 * 2 * kP, 1.0f);
  kernel_(zeros.data(), 2, ones.data(), 2, 65, out.data(), 2 * kP);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
  out.assign(out.size(), 1.0f);
  kernel_(ones.data(), 2, zeros.data(), 2, 65, out.data(), 2 * kP);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Variants, DotBlockTest,
                         ::testing::Values("generic", "avx2"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

TEST(DotBlockDispatchTest, PicksTheWidestVariantTheCpuSupports) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(serve::GetDotBlock(), __builtin_cpu_supports("avx2")
                                      ? &serve::detail::DotBlockAvx2
                                      : &serve::detail::DotBlockGeneric);
#else
  EXPECT_EQ(serve::GetDotBlock(), &serve::detail::DotBlockGeneric);
#endif
}

}  // namespace
}  // namespace pane
