// The serving engine's single-precision screening kernel, behind a runtime
// ISA dispatch. Exact top-k first scores every candidate against f32
// copies of the query and candidate rows — half the bytes of the f64
// factors — and the certifier in query_engine.cc bounds how far each
// screened score can sit from the exact f64 one. One translation unit
// compiles the shared implementation (dot_block_impl.h) at the build's
// baseline ISA, a second compiles the same code with AVX2 enabled (x86-64
// only, no FMA); GetDotBlock() picks the widest variant the running CPU
// supports, once, at first use.
//
// The candidate rows are stored in panels of kScreenPanel rows, transposed
// within the panel, so the kernel vectorizes across the candidates of a
// panel and never reduces across vector lanes. Per (query, candidate) pair
// the accumulation is sequential: four stride-4 partial sums combined as
// (s0 + s1) + (s2 + s3), then the h % 4 tail in ascending order. Every
// product therefore reaches the score through a binary tree of additions,
// the shape the certifier's error bound assumes; both variants round
// identically.
#pragma once

#include <cstdint>

namespace pane {
namespace serve {

/// Candidates per screen panel. Panel p holds candidates
/// [p * kScreenPanel, (p + 1) * kScreenPanel) as h x kScreenPanel floats:
/// entry t of candidate p * kScreenPanel + j sits at t * kScreenPanel + j.
/// The last panel of a candidate set is zero-padded.
constexpr int64_t kScreenPanel = 16;

/// Scores a block of b queries (row-major b x h floats) against
/// `num_panels` consecutive candidate panels: writes the f32 inner product
/// of query q with candidate c (c counted from the first panel) to
/// out[q * out_stride + c]. Each panel is loaded once and scored against
/// every query of the block.
using DotBlockFn = void (*)(const float* queries, int64_t b,
                            const float* panels, int64_t num_panels,
                            int64_t h, float* out, int64_t out_stride);

/// The best variant for this CPU (resolved once; thread-safe).
DotBlockFn GetDotBlock();

namespace detail {
void DotBlockGeneric(const float* queries, int64_t b, const float* panels,
                     int64_t num_panels, int64_t h, float* out,
                     int64_t out_stride);
#if defined(__x86_64__)
void DotBlockAvx2(const float* queries, int64_t b, const float* panels,
                  int64_t num_panels, int64_t h, float* out,
                  int64_t out_stride);
#endif
}  // namespace detail

}  // namespace serve
}  // namespace pane
