// Branch-light polynomial kernels for the FastMath lane of the SoA batch
// model (TimelessJaBatch). Each function trades a bounded absolute error for
// straight-line code that runs W lanes per instruction:
//
//   fast_atan  : |err| <= 5e-13   (Chebyshev degree-14 on |x|<=1 + reduction)
//   fast_tanh  : |err| <= 5e-8    (degree-16 core on |x|<=2.25, two argument
//                                  doublings to |x|<=9, saturated beyond)
//   fast_langevin / fast_atan_langevin: the anhysteretic shapes built on top,
//                                  same bounds up to the 2/pi scale.
//
// There is one copy of each kernel, templated over the lane op set VecD<W>
// below; VecD<1> (plain doubles) is the scalar path. The coefficients are
// generated by tools/gen_fastmath_coeffs.py (pure-python Chebyshev
// interpolation); the bounds are asserted against std::atan / std::tanh by
// tests/test_timeless_batch.cpp through VecD<1>. The exact lane of the batch
// kernel never calls these — it goes through Anhysteretic so it stays
// bitwise identical to the scalar TimelessJa.
#pragma once

#include <cmath>
#include <cstddef>

#include "util/constants.hpp"

/// Force full inlining of the kernels into SoA lane loops: a residual call
/// or inner loop would block the autovectoriser (gcc reports exactly that
/// without the hint).
#if defined(__GNUC__) || defined(__clang__)
#define FERRO_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define FERRO_ALWAYS_INLINE inline
#endif

namespace ferro::mag::fastmath {

/// Observed-on-a-dense-grid + safety-margin bounds, re-checked by the tests.
inline constexpr double kAtanMaxError = 5e-13;
inline constexpr double kTanhMaxError = 5e-8;

namespace detail {

// atan(x)/x on x^2 in [0, 1] (tools/gen_fastmath_coeffs.py).
inline constexpr double kAtanPoly[] = {
    0.999999999999709,
    -0.3333333332022081,
    0.1999999901091894,
    -0.14285684593090245,
    0.1111063984067793,
    -0.09086352772950476,
    0.07663135008671512,
    -0.06536074720570467,
    0.054578494660866755,
    -0.04231767905099938,
    0.028401971953765797,
    -0.015225119640429812,
    0.005932272101442018,
    -0.0014653258025646206,
    0.00017026464144388834,
};

// tanh(x)/x on x^2 in [0, 5.0625] (tools/gen_fastmath_coeffs.py).
inline constexpr double kTanhPoly[] = {
    0.9999999996063138,
    -0.3333332882256834,
    0.1333324627035566,
    -0.053961503243602646,
    0.021841477031649893,
    -0.00879130481610016,
    0.003467247294510782,
    -0.0013000781161095194,
    0.00044382504720526857,
    -0.0001316101504659981,
    3.2465361523655435e-05,
    -6.410491124905081e-06,
    9.755531110515077e-07,
    -1.0939393095643825e-07,
    8.468740339164002e-09,
    -4.028754184566166e-10,
    8.854668295772847e-12,
};

/// Largest power of two strictly below `count` (Estrin split point).
constexpr std::size_t estrin_split(std::size_t count) {
  std::size_t p = 1;
  while (p * 2 < count) p *= 2;
  return p;
}

}  // namespace detail

}  // namespace ferro::mag::fastmath

// ---------------------------------------------------------------------------
// The lane op set: VecD<W> wraps one W-lane double vector (W = 1 plain
// double, 2 SSE2, 4 AVX2, 8 AVX-512F) behind a uniform op set, and the
// fast_* kernels below are templated over it. Hand-written with intrinsics
// because gcc's scalar canonicalisations (division-by-one elision, store
// sinking) put branches back into the straight-line code faster than its
// vectoriser can if-convert them out.
//
// Every op is lane-wise and either a correctly-rounded IEEE-754 operation or
// a pure bit manipulation, applied in the same order at every width, so a
// lane's bits do not depend on the vector width or on how lanes are grouped
// — W = 1 included, which is the batch kernel's scalar path, not a separate
// copy of it. That holds for non-finite input too: min and max follow
// MINPD/MAXPD at every width, NaN operands included (asserted by
// TimelessJaBatch.FastSimdPairAndScalarTailAgreeBitwise and
// .FastLaneBitwiseInvariantAcrossSimdWidths in tests/test_timeless_batch.cpp).
// Deliberately absent: FMA and any horizontal op, both of which would round
// differently per width.
//
// The wider specialisations only exist in translation units compiled with
// the matching ISA flags (src/mag/timeless_ja_batch_{avx2,avx512}.cpp get
// -mavx2/-mavx512f from CMake); runtime CPUID dispatch lives in
// TimelessJaBatch, not here. Everything ISA-dependent sits inside an
// ISA-named inline namespace so template instantiations from TUs compiled
// with different flags can never be merged by the linker (the classic
// wide-SIMD ODR trap: a baseline binary executing an AVX-compiled copy of a
// deduplicated inline function).
// ---------------------------------------------------------------------------
#if defined(__SSE2__)
#define FERRO_FASTMATH_SIMD 1
#include <immintrin.h>
#endif

#if defined(__AVX512F__)
#define FERRO_SIMD_NS isa_avx512
#elif defined(__AVX2__)
#define FERRO_SIMD_NS isa_avx2
#elif defined(__SSE2__)
#define FERRO_SIMD_NS isa_sse2
#else
#define FERRO_SIMD_NS isa_scalar
#endif

namespace ferro::mag::fastmath {
inline namespace FERRO_SIMD_NS {

/// W-lane double vector. Specialisations provide:
///   Reg / Mask            the register and compare-result types
///   set1 zero load store  broadcast, zero, unaligned load/store
///   add sub mul div       lane-wise IEEE arithmetic (correctly rounded)
///   min max               lane-wise MINPD/MAXPD semantics (second operand
///                         returned on equality or when either is NaN)
///   abs neg copysign      sign-bit manipulation
///   cmp_gt/lt/eq/neq      lane compares to a Mask (neq is the unordered
///                         form, matching SSE2's CMPNEQPD)
///   mask_and mask_or      combine Masks
///   mask_andnot(a, b)     a and not b
///   any all               true when any / every lane's mask bit is set
///   select(m, a, b)       lane-wise m ? b : a (bit blend / mask blend)
///   one_where(m, one)     lane-wise m ? one : +0.0 (counter accumulation)
template <int W>
struct VecD;

/// The W = 1 member and the scalar path: the same op set on plain doubles,
/// so a kernel templated over VecD runs its scalar lanes through the vector
/// passes' operation sequence (min/max spelled as the MINPD/MAXPD they
/// mirror, not as std::min/std::max, which return a NaN first operand).
template <>
struct VecD<1> {
  static constexpr int kWidth = 1;
  using Reg = double;
  using Mask = bool;

  static FERRO_ALWAYS_INLINE Reg set1(double x) { return x; }
  static FERRO_ALWAYS_INLINE Reg zero() { return 0.0; }
  static FERRO_ALWAYS_INLINE Reg load(const double* p) { return *p; }
  static FERRO_ALWAYS_INLINE void store(double* p, Reg v) { *p = v; }

  static FERRO_ALWAYS_INLINE Reg add(Reg a, Reg b) { return a + b; }
  static FERRO_ALWAYS_INLINE Reg sub(Reg a, Reg b) { return a - b; }
  static FERRO_ALWAYS_INLINE Reg mul(Reg a, Reg b) { return a * b; }
  static FERRO_ALWAYS_INLINE Reg div(Reg a, Reg b) { return a / b; }
  static FERRO_ALWAYS_INLINE Reg min(Reg a, Reg b) { return a < b ? a : b; }
  static FERRO_ALWAYS_INLINE Reg max(Reg a, Reg b) { return a > b ? a : b; }

  static FERRO_ALWAYS_INLINE Reg abs(Reg x) { return std::fabs(x); }
  static FERRO_ALWAYS_INLINE Reg neg(Reg x) { return -x; }
  static FERRO_ALWAYS_INLINE Reg copysign(Reg magnitude, Reg sign) {
    return std::copysign(magnitude, sign);
  }

  static FERRO_ALWAYS_INLINE Mask cmp_gt(Reg a, Reg b) { return a > b; }
  static FERRO_ALWAYS_INLINE Mask cmp_lt(Reg a, Reg b) { return a < b; }
  static FERRO_ALWAYS_INLINE Mask cmp_eq(Reg a, Reg b) { return a == b; }
  static FERRO_ALWAYS_INLINE Mask cmp_neq(Reg a, Reg b) { return a != b; }
  static FERRO_ALWAYS_INLINE Mask mask_and(Mask a, Mask b) { return a & b; }
  static FERRO_ALWAYS_INLINE Mask mask_or(Mask a, Mask b) { return a | b; }
  static FERRO_ALWAYS_INLINE Mask mask_andnot(Mask a, Mask b) {
    return a & !b;
  }
  static FERRO_ALWAYS_INLINE bool any(Mask m) { return m; }
  static FERRO_ALWAYS_INLINE bool all(Mask m) { return m; }

  static FERRO_ALWAYS_INLINE Reg select(Mask m, Reg a, Reg b) {
    return m ? b : a;
  }
  static FERRO_ALWAYS_INLINE Reg one_where(Mask m, Reg one) {
    return m ? one : 0.0;
  }
};

#if defined(__SSE2__)

template <>
struct VecD<2> {
  static constexpr int kWidth = 2;
  using Reg = __m128d;
  using Mask = __m128d;

  static FERRO_ALWAYS_INLINE Reg set1(double x) { return _mm_set1_pd(x); }
  static FERRO_ALWAYS_INLINE Reg zero() { return _mm_setzero_pd(); }
  static FERRO_ALWAYS_INLINE Reg load(const double* p) { return _mm_loadu_pd(p); }
  static FERRO_ALWAYS_INLINE void store(double* p, Reg v) { _mm_storeu_pd(p, v); }

  static FERRO_ALWAYS_INLINE Reg add(Reg a, Reg b) { return _mm_add_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg div(Reg a, Reg b) { return _mm_div_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg min(Reg a, Reg b) { return _mm_min_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg max(Reg a, Reg b) { return _mm_max_pd(a, b); }

  static FERRO_ALWAYS_INLINE Reg abs(Reg x) {
    return _mm_andnot_pd(set1(-0.0), x);
  }
  static FERRO_ALWAYS_INLINE Reg neg(Reg x) { return _mm_xor_pd(x, set1(-0.0)); }
  static FERRO_ALWAYS_INLINE Reg copysign(Reg magnitude, Reg sign) {
    const Reg sign_bit = set1(-0.0);
    return _mm_or_pd(_mm_andnot_pd(sign_bit, magnitude),
                     _mm_and_pd(sign_bit, sign));
  }

  static FERRO_ALWAYS_INLINE Mask cmp_gt(Reg a, Reg b) { return _mm_cmpgt_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask cmp_lt(Reg a, Reg b) { return _mm_cmplt_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask cmp_eq(Reg a, Reg b) { return _mm_cmpeq_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask cmp_neq(Reg a, Reg b) { return _mm_cmpneq_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask mask_and(Mask a, Mask b) { return _mm_and_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask mask_or(Mask a, Mask b) { return _mm_or_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask mask_andnot(Mask a, Mask b) {
    return _mm_andnot_pd(b, a);
  }
  static FERRO_ALWAYS_INLINE bool any(Mask m) { return _mm_movemask_pd(m) != 0; }
  static FERRO_ALWAYS_INLINE bool all(Mask m) { return _mm_movemask_pd(m) == 0x3; }

  static FERRO_ALWAYS_INLINE Reg select(Mask m, Reg a, Reg b) {
    return _mm_or_pd(_mm_andnot_pd(m, a), _mm_and_pd(m, b));
  }
  static FERRO_ALWAYS_INLINE Reg one_where(Mask m, Reg one) {
    return _mm_and_pd(m, one);
  }
};

#endif  // __SSE2__

#if defined(__AVX2__)

template <>
struct VecD<4> {
  static constexpr int kWidth = 4;
  using Reg = __m256d;
  using Mask = __m256d;

  static FERRO_ALWAYS_INLINE Reg set1(double x) { return _mm256_set1_pd(x); }
  static FERRO_ALWAYS_INLINE Reg zero() { return _mm256_setzero_pd(); }
  static FERRO_ALWAYS_INLINE Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static FERRO_ALWAYS_INLINE void store(double* p, Reg v) { _mm256_storeu_pd(p, v); }

  static FERRO_ALWAYS_INLINE Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg min(Reg a, Reg b) { return _mm256_min_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg max(Reg a, Reg b) { return _mm256_max_pd(a, b); }

  static FERRO_ALWAYS_INLINE Reg abs(Reg x) {
    return _mm256_andnot_pd(set1(-0.0), x);
  }
  static FERRO_ALWAYS_INLINE Reg neg(Reg x) {
    return _mm256_xor_pd(x, set1(-0.0));
  }
  static FERRO_ALWAYS_INLINE Reg copysign(Reg magnitude, Reg sign) {
    const Reg sign_bit = set1(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign_bit, magnitude),
                        _mm256_and_pd(sign_bit, sign));
  }

  // _CMP_*_OQ / _CMP_NEQ_UQ are the quiet forms of SSE2's CMPxxPD
  // predicates: identical lane results, no FP-exception difference we rely
  // on (-fno-trapping-math anyway).
  static FERRO_ALWAYS_INLINE Mask cmp_gt(Reg a, Reg b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static FERRO_ALWAYS_INLINE Mask cmp_lt(Reg a, Reg b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  static FERRO_ALWAYS_INLINE Mask cmp_eq(Reg a, Reg b) {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
  static FERRO_ALWAYS_INLINE Mask cmp_neq(Reg a, Reg b) {
    return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ);
  }
  static FERRO_ALWAYS_INLINE Mask mask_and(Mask a, Mask b) { return _mm256_and_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask mask_or(Mask a, Mask b) { return _mm256_or_pd(a, b); }
  static FERRO_ALWAYS_INLINE Mask mask_andnot(Mask a, Mask b) {
    return _mm256_andnot_pd(b, a);
  }
  static FERRO_ALWAYS_INLINE bool any(Mask m) { return _mm256_movemask_pd(m) != 0; }
  static FERRO_ALWAYS_INLINE bool all(Mask m) {
    return _mm256_movemask_pd(m) == 0xF;
  }

  static FERRO_ALWAYS_INLINE Reg select(Mask m, Reg a, Reg b) {
    return _mm256_blendv_pd(a, b, m);
  }
  static FERRO_ALWAYS_INLINE Reg one_where(Mask m, Reg one) {
    return _mm256_and_pd(m, one);
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__)

template <>
struct VecD<8> {
  static constexpr int kWidth = 8;
  using Reg = __m512d;
  using Mask = __mmask8;

  static FERRO_ALWAYS_INLINE Reg set1(double x) { return _mm512_set1_pd(x); }
  static FERRO_ALWAYS_INLINE Reg zero() { return _mm512_setzero_pd(); }
  static FERRO_ALWAYS_INLINE Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static FERRO_ALWAYS_INLINE void store(double* p, Reg v) { _mm512_storeu_pd(p, v); }

  static FERRO_ALWAYS_INLINE Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg div(Reg a, Reg b) { return _mm512_div_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg min(Reg a, Reg b) { return _mm512_min_pd(a, b); }
  static FERRO_ALWAYS_INLINE Reg max(Reg a, Reg b) { return _mm512_max_pd(a, b); }

  // Bit ops via the 512-bit integer domain: the _mm512_*_pd logic forms
  // need AVX512DQ, and this TU is only guaranteed AVX512F.
  static FERRO_ALWAYS_INLINE Reg abs(Reg x) {
    return _mm512_castsi512_pd(_mm512_andnot_epi64(
        _mm512_castpd_si512(set1(-0.0)), _mm512_castpd_si512(x)));
  }
  static FERRO_ALWAYS_INLINE Reg neg(Reg x) {
    return _mm512_castsi512_pd(_mm512_xor_epi64(
        _mm512_castpd_si512(x), _mm512_castpd_si512(set1(-0.0))));
  }
  static FERRO_ALWAYS_INLINE Reg copysign(Reg magnitude, Reg sign) {
    const __m512i sign_bit = _mm512_castpd_si512(set1(-0.0));
    return _mm512_castsi512_pd(_mm512_or_epi64(
        _mm512_andnot_epi64(sign_bit, _mm512_castpd_si512(magnitude)),
        _mm512_and_epi64(sign_bit, _mm512_castpd_si512(sign))));
  }

  static FERRO_ALWAYS_INLINE Mask cmp_gt(Reg a, Reg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static FERRO_ALWAYS_INLINE Mask cmp_lt(Reg a, Reg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static FERRO_ALWAYS_INLINE Mask cmp_eq(Reg a, Reg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  static FERRO_ALWAYS_INLINE Mask cmp_neq(Reg a, Reg b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ);
  }
  static FERRO_ALWAYS_INLINE Mask mask_and(Mask a, Mask b) {
    return static_cast<Mask>(a & b);
  }
  static FERRO_ALWAYS_INLINE Mask mask_or(Mask a, Mask b) {
    return static_cast<Mask>(a | b);
  }
  static FERRO_ALWAYS_INLINE Mask mask_andnot(Mask a, Mask b) {
    return static_cast<Mask>(a & ~b);
  }
  static FERRO_ALWAYS_INLINE bool any(Mask m) { return m != 0; }
  static FERRO_ALWAYS_INLINE bool all(Mask m) { return m == 0xFF; }

  static FERRO_ALWAYS_INLINE Reg select(Mask m, Reg a, Reg b) {
    return _mm512_mask_blend_pd(m, a, b);
  }
  static FERRO_ALWAYS_INLINE Reg one_where(Mask m, Reg one) {
    return _mm512_maskz_mov_pd(m, one);
  }
};

#endif  // __AVX512F__

namespace vdetail {

template <class V, std::size_t kPow>
FERRO_ALWAYS_INLINE typename V::Reg upow(typename V::Reg u) {
  if constexpr (kPow == 1) {
    return u;
  } else {
    const typename V::Reg h = upow<V, kPow / 2>(u);
    return V::mul(h, h);
  }
}

/// Estrin evaluation of coeffs[kLo .. kLo+kCount) in powers of u: same
/// operation count as Horner but ~log-depth dependency chains, which is what
/// lets the out-of-order core overlap several lanes' polynomials. The
/// recursion unrolls completely at compile time.
template <class V, std::size_t kLo, std::size_t kCount, std::size_t N>
FERRO_ALWAYS_INLINE typename V::Reg estrin_range(const double (&coeffs)[N],
                                                 typename V::Reg u) {
  if constexpr (kCount == 1) {
    return V::set1(coeffs[kLo]);
  } else if constexpr (kCount == 2) {
    return V::add(V::set1(coeffs[kLo]), V::mul(V::set1(coeffs[kLo + 1]), u));
  } else {
    constexpr std::size_t kHalf = detail::estrin_split(kCount);
    return V::add(
        estrin_range<V, kLo, kHalf>(coeffs, u),
        V::mul(upow<V, kHalf>(u),
               estrin_range<V, kLo + kHalf, kCount - kHalf>(coeffs, u)));
  }
}

template <class V, std::size_t N>
FERRO_ALWAYS_INLINE typename V::Reg poly_eval(const double (&coeffs)[N],
                                              typename V::Reg u) {
  return estrin_range<V, 0, N>(coeffs, u);
}

}  // namespace vdetail

/// atan with one divide, a polynomial, and selects — no data-dependent
/// branches, so a lane group shares one instruction stream.
template <class V>
FERRO_ALWAYS_INLINE typename V::Reg fast_atan(typename V::Reg x) {
  using R = typename V::Reg;
  const R one = V::set1(1.0);
  const R w = V::abs(x);
  const R lo = V::min(w, one);
  const R hi = V::max(w, one);
  const R z = V::div(lo, hi);  // == w or 1/w; exactly w/1 when |x| <= 1
  const R p = V::mul(z, vdetail::poly_eval<V>(detail::kAtanPoly, V::mul(z, z)));
  const R r = V::select(V::cmp_gt(w, one), p,
                        V::sub(V::set1(0.5 * util::kPi), p));
  return V::copysign(r, x);
}

/// tanh via a core polynomial on |x| <= 2.25 and two argument doublings
/// tanh(2x) = 2 tanh(x) / (1 + tanh^2 x); saturates (|err| < 3e-8) at |x| = 9.
template <class V>
FERRO_ALWAYS_INLINE typename V::Reg fast_tanh(typename V::Reg x) {
  using R = typename V::Reg;
  const R w = V::min(V::abs(x), V::set1(9.0));
  const R z = V::mul(V::set1(0.25), w);
  R t = V::mul(z, vdetail::poly_eval<V>(detail::kTanhPoly, V::mul(z, z)));
  const R one = V::set1(1.0);
  const R two = V::set1(2.0);
  t = V::div(V::mul(two, t), V::add(one, V::mul(t, t)));
  t = V::div(V::mul(two, t), V::add(one, V::mul(t, t)));
  return V::copysign(t, x);
}

/// Modified (atan) Langevin of Wilson et al.: (2/pi) * atan(x).
template <class V>
FERRO_ALWAYS_INLINE typename V::Reg fast_atan_langevin(typename V::Reg x) {
  return V::mul(V::set1(util::kTwoOverPi), fast_atan<V>(x));
}

/// Classic Langevin L(x) = coth(x) - 1/x. Mirrors the series / saturation
/// structure of mag::langevin but rides on fast_tanh in the mid range, using
/// the cancellation-free form (x - tanh x) / (x * tanh x). All three regime
/// candidates are computed and the right one selected, so the code stays
/// straight-line. (The discarded candidates may be inf/NaN — IEEE default
/// semantics make that harmless.)
template <class V>
FERRO_ALWAYS_INLINE typename V::Reg fast_langevin(typename V::Reg x) {
  using R = typename V::Reg;
  const R ax = V::abs(x);
  const R x2 = V::mul(ax, ax);
  // L(x) = x/3 - x^3/45 + 2x^5/945 - x^7/4725 + ... (|err| < 1e-10 at 0.25)
  const R series = V::mul(
      ax, V::sub(V::set1(1.0 / 3.0),
                 V::mul(x2, V::sub(V::set1(1.0 / 45.0),
                                   V::mul(x2, V::sub(V::set1(2.0 / 945.0),
                                                     V::mul(x2,
                                                            V::set1(
                                                                1.0 /
                                                                4725.0))))))));
  const R t = fast_tanh<V>(V::min(ax, V::set1(9.0)));
  const R mid = V::div(V::sub(ax, t), V::mul(ax, t));
  const R tail = V::sub(V::set1(1.0), V::div(V::set1(1.0), ax));
  const R inner = V::select(V::cmp_gt(ax, V::set1(9.0)), mid, tail);
  const R magnitude = V::select(V::cmp_lt(ax, V::set1(0.25)), inner, series);
  return V::copysign(magnitude, x);
}

}  // inline namespace FERRO_SIMD_NS
}  // namespace ferro::mag::fastmath
