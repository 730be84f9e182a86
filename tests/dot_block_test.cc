// Differential tests for the serving engine's blocked dot kernel
// (src/serve/dot_block.h): the baseline and AVX2 compilations, called
// directly, must reproduce vector_ops::Dot bit for bit for every
// (query, candidate) pair — at every padded panel width, at runtime widths
// that take the fallback path, and at candidate lengths h that exercise
// every h % 4 tail. The AVX2 cases skip on CPUs without AVX2.
#include "src/serve/dot_block.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/matrix/vector_ops.h"

namespace pane {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

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

TEST_P(DotBlockTest, MatchesDotAtEveryWidthAndTail) {
  Rng rng(21);
  constexpr int64_t kStride = 3;  // out[q * kStride], as the engine strides
  // The padded widths (1-64) take the compile-time kernels; 3 and 7 take
  // the runtime-width fallback.
  for (const int64_t ld : {1, 2, 3, 4, 7, 8, 16, 32, 64}) {
    ASSERT_TRUE(ld == 3 || ld == 7 || serve::PadDotBlockWidth(ld) == ld);
    for (const int64_t h : {1, 3, 5, 63, 64}) {
      // queries[q] is query q; qt is the transposed h x ld block.
      std::vector<std::vector<double>> queries(static_cast<size_t>(ld));
      std::vector<double> qt(static_cast<size_t>(h * ld));
      for (int64_t q = 0; q < ld; ++q) {
        auto& query = queries[static_cast<size_t>(q)];
        query.resize(static_cast<size_t>(h));
        for (int64_t t = 0; t < h; ++t) {
          query[static_cast<size_t>(t)] = rng.Gaussian();
          qt[static_cast<size_t>(t * ld + q)] = query[static_cast<size_t>(t)];
        }
      }
      std::vector<double> cand(static_cast<size_t>(h));
      for (double& c : cand) c = rng.Gaussian();

      for (const bool add : {false, true}) {
        std::vector<double> out(static_cast<size_t>(ld * kStride));
        for (double& o : out) o = rng.Gaussian();
        const std::vector<double> before = out;
        kernel_(qt.data(), h, ld, cand.data(), out.data(), kStride, add);
        for (int64_t q = 0; q < ld; ++q) {
          const size_t slot = static_cast<size_t>(q * kStride);
          double want = Dot(queries[static_cast<size_t>(q)].data(),
                            cand.data(), h);
          if (add) want = before[slot] + want;
          ASSERT_EQ(Bits(want), Bits(out[slot]))
              << "ld=" << ld << " h=" << h << " q=" << q << " add=" << add;
          // Slots between strided outputs are untouched.
          for (size_t gap = slot + 1; gap < slot + kStride; ++gap) {
            ASSERT_EQ(Bits(before[gap]), Bits(out[gap]));
          }
        }
      }
    }
  }
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
