// Internal header: the lane-wise LU kernel behind ckt::LaneLu, templated
// over the lane op set mag::fastmath::VecD<W>. Included by lane_lu.cpp
// (W = 1 scalar, W = 2 SSE2) and by the ISA-flagged lane_lu_avx2.cpp
// (W = 4) / lane_lu_avx512.cpp (W = 8); all three are compiled with
// -ffp-contract=off (CMakeLists.txt),
// because a fused multiply-subtract would round once where ams::LuSolver
// rounds twice.
//
// Each lane runs ams::LuSolver::factor + solve's exact operation sequence:
// the pivot search keeps the first maximum (strict >), rows are swapped by
// per-lane compare and select (the right-hand side is swapped with them, in
// place of LuSolver's pivot vector), the factor is 1.0 / pivot then a
// multiply, and LuSolver's `factor == 0.0` skip is a select, so -0.0 and NaN
// factors behave as in the scalar loop. A lane whose best pivot magnitude is
// below 1e-300 is flagged singular; the kernel keeps computing it (IEEE
// default semantics make that harmless) and the caller discards its x. No
// FMA and no horizontal arithmetic, so every lane is bitwise what LuSolver
// computes for it, whatever the width and whatever its neighbours hold.
// (Only a NaN's payload is not pinned: where two NaNs of different payload
// meet in one product, x86 keeps the first operand's, and the compiler
// orders a product's operands freely, in LuSolver as here. Every NaN the
// arithmetic itself generates is the same default NaN.)
//
// ABI and ODR rules are mag/timeless_ja_batch_span.hpp's: the argument
// struct and function-pointer type sit outside the ISA inline namespace,
// every body inside it.
#pragma once

#include <cmath>
#include <cstddef>

#include "mag/fast_math.hpp"

namespace ferro::ckt::detail {

/// One block of W lane-interleaved n x n systems: entry (r, c) of lane l at
/// a[(r * n + c) * W + l], right-hand side b[r * W + l], solution
/// x[r * W + l].
struct LaneLuArgs {
  std::size_t n = 0;
  double* a = nullptr;         ///< n*n*W, overwritten by the factors
  double* b = nullptr;         ///< n*W, overwritten by its row permutation
  double* x = nullptr;         ///< n*W solution (garbage in singular lanes)
  double* singular = nullptr;  ///< W flags: 1.0 singular, 0.0 regular
};

using LaneLuFn = void (*)(const LaneLuArgs& args);

// Width entry points: W1/W2 defined by lane_lu.cpp, W4/W8 by the ISA-flagged
// TUs (null when the compiler lacks the flag).
extern const LaneLuFn kLaneLuW1;
extern const LaneLuFn kLaneLuW2;
extern const LaneLuFn kLaneLuW4;
extern const LaneLuFn kLaneLuW8;

inline namespace FERRO_SIMD_NS {

template <class V>
void lane_lu(const LaneLuArgs& args) {
  using R = typename V::Reg;
  using M = typename V::Mask;
  constexpr std::size_t W = V::kWidth;
  const std::size_t n = args.n;
  double* const a = args.a;
  double* const b = args.b;
  double* const x = args.x;
  const auto at = [a, n](std::size_t r, std::size_t c) {
    return a + (r * n + c) * W;
  };
  const R zero = V::zero();
  const R one = V::set1(1.0);
  R singular = zero;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: the first largest magnitude at or below the diagonal.
    R best_mag = V::abs(V::load(at(col, col)));
    R best = V::set1(static_cast<double>(col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const R mag = V::abs(V::load(at(r, col)));
      const M better = V::cmp_gt(mag, best_mag);
      best_mag = V::select(better, best_mag, mag);
      best = V::select(better, best, V::set1(static_cast<double>(r)));
    }
    singular = V::select(V::cmp_lt(best_mag, V::set1(1e-300)), singular, one);

    // Swap row `col` with each lane's pivot row (whole rows, as LuSolver).
    for (std::size_t r = col + 1; r < n; ++r) {
      const M take = V::cmp_eq(best, V::set1(static_cast<double>(r)));
      if (!V::any(take)) continue;
      for (std::size_t c = 0; c < n; ++c) {
        const R top = V::load(at(col, c));
        const R other = V::load(at(r, c));
        V::store(at(col, c), V::select(take, top, other));
        V::store(at(r, c), V::select(take, other, top));
      }
      const R top = V::load(b + col * W);
      const R other = V::load(b + r * W);
      V::store(b + col * W, V::select(take, top, other));
      V::store(b + r * W, V::select(take, other, top));
    }

    const R inv_pivot = V::div(one, V::load(at(col, col)));
    for (std::size_t r = col + 1; r < n; ++r) {
      const R factor = V::mul(V::load(at(r, col)), inv_pivot);
      V::store(at(r, col), factor);
      const M skip = V::cmp_eq(factor, zero);
      for (std::size_t c = col + 1; c < n; ++c) {
        const R cur = V::load(at(r, c));
        const R updated = V::sub(cur, V::mul(factor, V::load(at(col, c))));
        V::store(at(r, c), V::select(skip, updated, cur));
      }
    }
  }
  V::store(args.singular, singular);

  // Forward substitution on the permuted right-hand side (unit lower L).
  for (std::size_t r = 0; r < n; ++r) {
    R acc = V::load(b + r * W);
    for (std::size_t c = 0; c < r; ++c) {
      acc = V::sub(acc, V::mul(V::load(at(r, c)), V::load(x + c * W)));
    }
    V::store(x + r * W, acc);
  }
  // Backward substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    R acc = V::load(x + ri * W);
    for (std::size_t c = ri + 1; c < n; ++c) {
      acc = V::sub(acc, V::mul(V::load(at(ri, c)), V::load(x + c * W)));
    }
    V::store(x + ri * W, V::div(acc, V::load(at(ri, ri))));
  }
}

}  // inline namespace FERRO_SIMD_NS
}  // namespace ferro::ckt::detail
