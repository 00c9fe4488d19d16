// AVX2 (W = 4) instantiation of the lane-wise LU kernel. Compiled with
// -mavx2 -ffp-contract=off (see CMakeLists.txt); only the kLaneLuW4 entry
// pointer is exported, and LaneLu runs it only at an active SIMD width of
// 4 or more, which TimelessJaBatch's CPUID dispatch grants only on hosts
// that execute AVX2.
#include "ckt/lane_lu_kernel.hpp"

namespace ferro::ckt::detail {

#if defined(__AVX2__)

namespace {
void lane_lu_w4(const LaneLuArgs& args) {
  lane_lu<mag::fastmath::VecD<4>>(args);
}
}  // namespace

const LaneLuFn kLaneLuW4 = &lane_lu_w4;

#else  // compiler did not accept -mavx2; LaneLu skips the null entry

const LaneLuFn kLaneLuW4 = nullptr;

#endif

}  // namespace ferro::ckt::detail
