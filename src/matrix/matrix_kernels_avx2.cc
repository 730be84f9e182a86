// The AVX2 compilation of the shared matrix kernels (see
// matrix_kernels_impl.h). Only this translation unit in src/matrix is
// built with -mavx2 (see CMakeLists.txt); -mavx2 does not enable FMA and
// every library compiles with -ffp-contract=off, so the 4-lane loops
// round exactly like the baseline table. GetMatrixKernels() only returns
// this table when the running CPU reports AVX2. On other architectures
// the file compiles empty.
#if defined(__x86_64__)

#include "src/matrix/matrix_kernels.h"
#include "src/matrix/matrix_kernels_impl.h"

namespace pane {
namespace detail {

const MatrixKernels kAvx2Kernels = {
    "avx2",          DotImpl,      AxpyImpl,          DotRowsImpl,
    AxpyDotRowsImpl, GemmRowsImpl, GemmTransAColsImpl};

}  // namespace detail
}  // namespace pane

#endif  // defined(__x86_64__)
