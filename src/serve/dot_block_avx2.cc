// The AVX2 compilation of the shared screening kernel (see
// dot_block_impl.h). This translation unit — and only this one in
// src/serve — is built with -mavx2 on x86-64 (see CMakeLists.txt): 8-lane
// float vectors across the candidates of a panel, but NO fused
// multiply-add (-mavx2 does not enable it, and every library compiles with
// -ffp-contract=off), so every lane rounds exactly like the baseline
// compilation. GetDotBlock() only returns this variant when the running
// CPU reports AVX2.
#if defined(__x86_64__)

#include "src/serve/dot_block.h"
#include "src/serve/dot_block_impl.h"

namespace pane {
namespace serve {
namespace detail {

void DotBlockAvx2(const float* queries, int64_t b, const float* panels,
                  int64_t num_panels, int64_t h, float* out,
                  int64_t out_stride) {
  DotBlockDriver(queries, b, panels, num_panels, h, out, out_stride);
}

}  // namespace detail
}  // namespace serve
}  // namespace pane

#endif  // defined(__x86_64__)
