// Shared implementation of the blocked dot kernel, included by the
// baseline (dot_block.cc) and AVX2 (dot_block_avx2.cc) translation units
// so both compile the exact same arithmetic under different instruction
// sets. Everything here sits in an unnamed namespace, so each translation
// unit keeps its own copy: were these templates and inline functions with
// external linkage, the linker would keep one body for both entry points,
// so DotBlockAvx2 could run the baseline code, or DotBlockGeneric AVX2
// instructions. The per-TU entry points wrap DotBlockDriver.
//
// The per-(query, candidate) accumulation reproduces vector_ops::Dot
// exactly — four stride-4 partial sums combined as (s0 + s1) + (s2 + s3),
// then the ascending tail — while the q-inner loops run over QB
// independent accumulators. QB and the panel width LD are compile-time
// constants (the driver dispatches over the supported power-of-two
// widths): with both known, the accumulator arrays live in registers and
// the compiler vectorizes the contiguous q-dimension cleanly. A runtime
// panel width defeats that (GCC falls back to cross-chain gathers over t,
// ~3x slower), which is why callers pad query blocks to a supported
// width instead of passing arbitrary ones.
#pragma once

#include <cstdint>

namespace pane {
namespace serve {
namespace detail {
namespace {

template <int QB, int LD>
inline void DotBlockFixed(const double* qt, int64_t h, const double* cand,
                          double* out, int64_t out_stride, bool add) {
  double s0[QB], s1[QB], s2[QB], s3[QB];
  for (int q = 0; q < QB; ++q) s0[q] = 0.0;
  for (int q = 0; q < QB; ++q) s1[q] = 0.0;
  for (int q = 0; q < QB; ++q) s2[q] = 0.0;
  for (int q = 0; q < QB; ++q) s3[q] = 0.0;
  int64_t t = 0;
  for (; t + 4 <= h; t += 4) {
    const double c0 = cand[t];
    const double c1 = cand[t + 1];
    const double c2 = cand[t + 2];
    const double c3 = cand[t + 3];
    const double* r0 = qt + t * LD;
    const double* r1 = r0 + LD;
    const double* r2 = r0 + 2 * LD;
    const double* r3 = r0 + 3 * LD;
    // One q-loop per partial-sum chain: each is a contiguous-stride
    // vectorizable update (a fused single loop tempts the vectorizer into
    // cross-chain gathers over t, an order of magnitude slower).
    for (int q = 0; q < QB; ++q) s0[q] += r0[q] * c0;
    for (int q = 0; q < QB; ++q) s1[q] += r1[q] * c1;
    for (int q = 0; q < QB; ++q) s2[q] += r2[q] * c2;
    for (int q = 0; q < QB; ++q) s3[q] += r3[q] * c3;
  }
  double o[QB];
  for (int q = 0; q < QB; ++q) o[q] = (s0[q] + s1[q]) + (s2[q] + s3[q]);
  for (; t < h; ++t) {
    const double ct = cand[t];
    const double* r = qt + t * LD;
    for (int q = 0; q < QB; ++q) o[q] += r[q] * ct;
  }
  if (add) {
    for (int q = 0; q < QB; ++q) out[q * out_stride] += o[q];
  } else {
    for (int q = 0; q < QB; ++q) out[q * out_stride] = o[q];
  }
}

/// One full panel of compile-time width LD: register sub-tiles of 8 (or
/// the whole panel for the narrow widths).
template <int LD>
inline void DotBlockWidth(const double* qt, int64_t h, const double* cand,
                          double* out, int64_t out_stride, bool add) {
  if constexpr (LD >= 8) {
    for (int q = 0; q + 8 <= LD; q += 8) {
      DotBlockFixed<8, LD>(qt + q, h, cand, out + q * out_stride, out_stride,
                           add);
    }
  } else {
    DotBlockFixed<LD, LD>(qt, h, cand, out, out_stride, add);
  }
}

/// Slow-path fallback for widths outside the supported set (kept for API
/// completeness; the engine always pads to a supported width).
template <int QB>
inline void DotBlockRuntimeLd(const double* qt, int64_t h, int64_t ld,
                              const double* cand, double* out,
                              int64_t out_stride, bool add) {
  double s[QB];
  for (int q = 0; q < QB; ++q) s[q] = 0.0;
  double s0, s1, s2, s3;
  for (int q = 0; q < QB; ++q) {
    s0 = s1 = s2 = s3 = 0.0;
    int64_t t = 0;
    for (; t + 4 <= h; t += 4) {
      s0 += qt[t * ld + q] * cand[t];
      s1 += qt[(t + 1) * ld + q] * cand[t + 1];
      s2 += qt[(t + 2) * ld + q] * cand[t + 2];
      s3 += qt[(t + 3) * ld + q] * cand[t + 3];
    }
    double o = (s0 + s1) + (s2 + s3);
    for (; t < h; ++t) o += qt[t * ld + q] * cand[t];
    s[q] = o;
  }
  if (add) {
    for (int q = 0; q < QB; ++q) out[q * out_stride] += s[q];
  } else {
    for (int q = 0; q < QB; ++q) out[q * out_stride] = s[q];
  }
}

/// Width dispatch. ld should be a width PadDotBlockWidth returns (the
/// engine pads its panels accordingly); other widths take the scalar
/// fallback.
inline void DotBlockDriver(const double* qt, int64_t h, int64_t ld,
                           const double* cand, double* out,
                           int64_t out_stride, bool add) {
  switch (ld) {
    case 64:
      DotBlockWidth<64>(qt, h, cand, out, out_stride, add);
      return;
    case 32:
      DotBlockWidth<32>(qt, h, cand, out, out_stride, add);
      return;
    case 16:
      DotBlockWidth<16>(qt, h, cand, out, out_stride, add);
      return;
    case 8:
      DotBlockWidth<8>(qt, h, cand, out, out_stride, add);
      return;
    case 4:
      DotBlockWidth<4>(qt, h, cand, out, out_stride, add);
      return;
    case 2:
      DotBlockWidth<2>(qt, h, cand, out, out_stride, add);
      return;
    case 1:
      DotBlockWidth<1>(qt, h, cand, out, out_stride, add);
      return;
    default:
      break;
  }
  int64_t q = 0;
  for (; q + 8 <= ld; q += 8) {
    DotBlockRuntimeLd<8>(qt + q, h, ld, cand, out + q * out_stride,
                         out_stride, add);
  }
  for (; q < ld; ++q) {
    DotBlockRuntimeLd<1>(qt + q, h, ld, cand, out + q * out_stride,
                         out_stride, add);
  }
}

}  // namespace
}  // namespace detail
}  // namespace serve
}  // namespace pane
