// Shared implementation of the f32 screening kernel, included by the
// baseline (dot_block.cc) and AVX2 (dot_block_avx2.cc) translation units
// so both compile the exact same arithmetic under different instruction
// sets. Everything here sits in an unnamed namespace, so each translation
// unit keeps its own copy: were these inline functions with external
// linkage, the linker would keep one body for both entry points, so
// DotBlockAvx2 could run the baseline code, or DotBlockGeneric AVX2
// instructions.
//
// The kernel is written with GCC/Clang vector extensions: a panel row of
// kScreenPanel = 16 floats is two 8-float vectors, which the AVX2
// compilation keeps in one ymm register each and the baseline compilation
// splits into SSE halves. (Plain loops leave the choice to the
// auto-vectorizer, which shuffled every load here.) Four independent
// partial-sum chains hide the add latency. Vectors are only ever locals,
// never parameters, so the two compilations share one ABI.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/serve/dot_block.h"

namespace pane {
namespace serve {
namespace detail {
namespace {

using Lanes = float __attribute__((vector_size(32)));
constexpr int64_t kLanes = 8;
static_assert(kScreenPanel == 2 * kLanes, "a panel row is two vectors");

/// One query against one panel: out[j] = x . candidate j, for the
/// kScreenPanel candidates of the panel.
inline void PanelDot(const float* x, const float* panel, int64_t h,
                     float* out) {
  Lanes s0a = {}, s0b = {}, s1a = {}, s1b = {};
  Lanes s2a = {}, s2b = {}, s3a = {}, s3b = {};
  Lanes r;
  int64_t t = 0;
  for (; t + 4 <= h; t += 4) {
    const float* row = panel + t * kScreenPanel;
    std::memcpy(&r, row, sizeof(r));
    s0a += x[t] * r;
    std::memcpy(&r, row + kLanes, sizeof(r));
    s0b += x[t] * r;
    std::memcpy(&r, row + kScreenPanel, sizeof(r));
    s1a += x[t + 1] * r;
    std::memcpy(&r, row + kScreenPanel + kLanes, sizeof(r));
    s1b += x[t + 1] * r;
    std::memcpy(&r, row + 2 * kScreenPanel, sizeof(r));
    s2a += x[t + 2] * r;
    std::memcpy(&r, row + 2 * kScreenPanel + kLanes, sizeof(r));
    s2b += x[t + 2] * r;
    std::memcpy(&r, row + 3 * kScreenPanel, sizeof(r));
    s3a += x[t + 3] * r;
    std::memcpy(&r, row + 3 * kScreenPanel + kLanes, sizeof(r));
    s3b += x[t + 3] * r;
  }
  Lanes oa = (s0a + s1a) + (s2a + s3a);
  Lanes ob = (s0b + s1b) + (s2b + s3b);
  for (; t < h; ++t) {
    const float* row = panel + t * kScreenPanel;
    std::memcpy(&r, row, sizeof(r));
    oa += x[t] * r;
    std::memcpy(&r, row + kLanes, sizeof(r));
    ob += x[t] * r;
  }
  std::memcpy(out, &oa, sizeof(oa));
  std::memcpy(out + kLanes, &ob, sizeof(ob));
}

inline void DotBlockDriver(const float* queries, int64_t b,
                           const float* panels, int64_t num_panels,
                           int64_t h, float* out, int64_t out_stride) {
  for (int64_t p = 0; p < num_panels; ++p) {
    const float* panel = panels + p * h * kScreenPanel;
    for (int64_t q = 0; q < b; ++q) {
      PanelDot(queries + q * h, panel, h, out + q * out_stride + p * kScreenPanel);
    }
  }
}

}  // namespace
}  // namespace detail
}  // namespace serve
}  // namespace pane
