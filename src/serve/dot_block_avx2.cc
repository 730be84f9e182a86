// The AVX2 compilation of the shared dot-block kernel (see
// dot_block_impl.h). This translation unit — and only this one in
// src/serve — is built with -mavx2 on x86-64 (see CMakeLists.txt): 4-lane
// vectors across the query dimension, but NO fused multiply-add (-mavx2
// does not enable it, and every library compiles with -ffp-contract=off),
// so every (query, candidate) pair still rounds exactly like
// vector_ops::Dot and the serving engine's bitwise-equality contract
// holds. GetDotBlock() only returns this variant when the running CPU
// reports AVX2.
#if defined(__x86_64__)

#include "src/serve/dot_block.h"
#include "src/serve/dot_block_impl.h"

namespace pane {
namespace serve {
namespace detail {

void DotBlockAvx2(const double* qt, int64_t h, int64_t ld,
                  const double* cand, double* out, int64_t out_stride,
                  bool add) {
  DotBlockDriver(qt, h, ld, cand, out, out_stride, add);
}

}  // namespace detail
}  // namespace serve
}  // namespace pane

#endif  // defined(__x86_64__)
