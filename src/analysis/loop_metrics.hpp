// Hysteresis-loop metrics: the numbers Fig. 1 lets a reader measure —
// saturation flux density, remanence, coercivity, loop area (core loss per
// cycle and unit volume). Every metric comes from one walk, the accumulator
// of analysis/loop_accumulator.hpp; CurveFinish carries that walk into the
// producers' own output passes, so the packed batch kernels finish their
// lanes as they record them, bitwise like a walk over the finished curve.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "analysis/loop_accumulator.hpp"
#include "mag/bh.hpp"
#include "mag/fast_math.hpp"

namespace ferro::analysis {

/// The scalar walk: feed a loop's points with add(), then read metrics().
/// enclosed_area and analyze_loop run on it, and values_at_zero_of on its
/// crossing rule. VecD<1>, like every mag::fastmath op set, lives in the
/// including TU's ISA namespace, so this names a TU-local instantiation;
/// only translation units built with the library's baseline flags use it.
using LoopAccumulator = BasicLoopAccumulator<mag::fastmath::VecD<1>>;

/// One curve's finish, accumulated by whatever produces its points: the
/// loop over the metrics rows [begin, begin + count) (count 0: no metrics)
/// and whether every point's h, m and b was finite. The packed batch
/// kernels fill one per lane in their output pass, and finish_result walks
/// a finished curve through one, so both reach the same verdict.
struct CurveFinish {
  std::size_t begin = 0;
  std::size_t count = 0;
  LoopAccumulator loop;
  bool finite = true;

  /// Feeds curve point `row`: every row, in order, once each.
  void add(std::size_t row, double h, double m, double b) {
    // Non-short-circuit: one branch per point instead of three.
    finite &= std::isfinite(h) & std::isfinite(m) & std::isfinite(b);
    if (row - begin < count) loop.add(h, b);  // wraps for row < begin
  }

  /// add() for rows [first, last) stored at points[first..last): the same
  /// result, with the finite check and the loop walk in tight loops of
  /// their own, so the accumulator stays in registers.
  void add_rows(const mag::BhPoint* points, std::size_t first,
                std::size_t last) {
    bool ok = finite;
    for (std::size_t j = first; j < last; ++j) {
      const mag::BhPoint& p = points[j];
      ok &= std::isfinite(p.h) & std::isfinite(p.m) & std::isfinite(p.b);
    }
    finite = ok;
    std::size_t j = first > begin ? first : begin;
    const std::size_t stop = last < begin + count ? last : begin + count;
    if (j >= stop) return;
    LoopAccumulator acc = loop;
    if (j == begin) {
      acc.add(points[j].h, points[j].b, true);  // the first metrics row
      ++j;
    }
    for (; j < stop; ++j) acc.add_segment(points[j].h, points[j].b);
    loop = acc;
  }
};

/// Signed enclosed area of the (h, b) polygon via the shoelace rule
/// (counter-clockwise positive). For a physical hysteresis loop traversed
/// with rising H on the lower branch the area is positive.
[[nodiscard]] double enclosed_area(std::span<const double> h,
                                   std::span<const double> b);

/// Values of `y` (linearly interpolated) at each sign change of `x`.
[[nodiscard]] std::vector<double> values_at_zero_of(std::span<const double> x,
                                                    std::span<const double> y);

/// Metrics of the closed loop between curve indices [begin, end].
[[nodiscard]] LoopMetrics analyze_loop(const mag::BhCurve& curve,
                                       std::size_t begin, std::size_t end);

/// Metrics of the whole curve (use when the curve is exactly one loop).
[[nodiscard]] LoopMetrics analyze_loop(const mag::BhCurve& curve);

/// Splits the curve into maximal monotone-H branches: (first, last) index
/// pairs. Zero-dH runs attach to the current branch.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> monotone_branches(
    const mag::BhCurve& curve);

/// |B(end) - B(begin)| — how well a nominally closed excursion returns to
/// its starting flux density (the minor-loop closure observable of CLM1).
[[nodiscard]] double closure_error(const mag::BhCurve& curve, std::size_t begin,
                                   std::size_t end);

}  // namespace ferro::analysis
