// AVX-512F (W = 8) instantiation of the lane-wise LU kernel. Compiled with
// -mavx512f -ffp-contract=off (see CMakeLists.txt); same containment rules
// as the AVX2 TU — only the kLaneLuW8 entry pointer is exported, and LaneLu
// runs it only at an active SIMD width of 8.
#include "ckt/lane_lu_kernel.hpp"

namespace ferro::ckt::detail {

#if defined(__AVX512F__)

namespace {
void lane_lu_w8(const LaneLuArgs& args) {
  lane_lu<mag::fastmath::VecD<8>>(args);
}
}  // namespace

const LaneLuFn kLaneLuW8 = &lane_lu_w8;

#else  // compiler did not accept -mavx512f; LaneLu skips the null entry

const LaneLuFn kLaneLuW8 = nullptr;

#endif

}  // namespace ferro::ckt::detail
