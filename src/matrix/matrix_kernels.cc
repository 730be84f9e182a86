#include "src/matrix/matrix_kernels.h"

#include "src/matrix/matrix_kernels_impl.h"

namespace pane {
namespace detail {

const MatrixKernels kGenericKernels = {
    "generic",       DotImpl,      AxpyImpl,          DotRowsImpl,
    AxpyDotRowsImpl, GemmRowsImpl, GemmTransAColsImpl};

}  // namespace detail

const MatrixKernels& GetMatrixKernels() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const MatrixKernels* const chosen = __builtin_cpu_supports("avx2")
                                                 ? &detail::kAvx2Kernels
                                                 : &detail::kGenericKernels;
  return *chosen;
#else
  return detail::kGenericKernels;
#endif
}

}  // namespace pane
