#include "src/serve/dot_block.h"

#include "src/serve/dot_block_impl.h"

namespace pane {
namespace serve {

namespace detail {

void DotBlockGeneric(const float* queries, int64_t b, const float* panels,
                     int64_t num_panels, int64_t h, float* out,
                     int64_t out_stride) {
  DotBlockDriver(queries, b, panels, num_panels, h, out, out_stride);
}

}  // namespace detail

DotBlockFn GetDotBlock() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // Resolved once; __builtin_cpu_supports reads cpuid through a cached
  // libgcc probe, but keep the static anyway so the choice is a plain load.
  static const DotBlockFn chosen = __builtin_cpu_supports("avx2")
                                       ? detail::DotBlockAvx2
                                       : detail::DotBlockGeneric;
  return chosen;
#else
  return detail::DotBlockGeneric;
#endif
}

}  // namespace serve
}  // namespace pane
