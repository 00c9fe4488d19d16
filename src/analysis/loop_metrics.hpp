// Hysteresis-loop metrics: the numbers Fig. 1 lets a reader measure —
// saturation flux density, remanence, coercivity, loop area (core loss per
// cycle and unit volume).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "mag/bh.hpp"

namespace ferro::analysis {

/// Scalar characterisation of a (closed) BH loop.
struct LoopMetrics {
  double h_peak = 0.0;       ///< max |H| [A/m]
  double b_peak = 0.0;       ///< max |B| [T]
  double remanence = 0.0;    ///< mean |B at H = 0| over the two crossings [T]
  double coercivity = 0.0;   ///< mean |H at B = 0| over the two crossings [A/m]
  double area = 0.0;         ///< |enclosed area| = core loss per cycle [J/m^3]
  std::size_t points = 0;
};

namespace detail {

/// The zero-crossing rule for the segment (x0, y0) -> (x1, y1): an exact
/// zero at x0 reports y0, a strict sign change reports y linearly
/// interpolated at x = 0, anything else reports nothing. The segment's end
/// point is the next segment's start, so a walk reports an exact zero at
/// its last point separately.
template <typename Emit>
void zero_crossing(double x0, double y0, double x1, double y1, Emit&& emit) {
  if (x0 == 0.0) {
    emit(y0);
    return;
  }
  if ((x0 < 0.0 && x1 > 0.0) || (x0 > 0.0 && x1 < 0.0)) {
    const double t = -x0 / (x1 - x0);
    emit(y0 + t * (y1 - y0));
  }
}

}  // namespace detail

/// The one walk behind every loop metric: feed a loop's points in order,
/// once each, then read the results. Nothing is copied or allocated, and
/// every sum runs in index order with the shoelace's closing edge (last
/// point back to the first) added last, so the results are bitwise those of
/// copying the points out and applying enclosed_area and values_at_zero_of
/// to the copies. enclosed_area and analyze_loop run on it, and
/// values_at_zero_of on its crossing rule.
class LoopAccumulator {
 public:
  void add(double h, double b) {
    if (points_ == 0) {
      first_h_ = h;
      first_b_ = b;
    } else {
      twice_area_ += shoelace_term(last_h_, last_b_, h, b);
      // Positive products mean neither H nor B touches or crosses zero on
      // this segment, so neither rule can report: the common case costs one
      // branch. Underflowing or NaN products fall through to the rules.
      if (!((last_h_ * h > 0.0) & (last_b_ * b > 0.0))) {
        detail::zero_crossing(last_h_, last_b_, h, b, remanence_);
        detail::zero_crossing(last_b_, last_h_, b, h, coercivity_);
      }
    }
    h_peak_ = std::max(h_peak_, std::fabs(h));
    b_peak_ = std::max(b_peak_, std::fabs(b));
    last_h_ = h;
    last_b_ = b;
    ++points_;
  }
  void add(const mag::BhPoint& p) { add(p.h, p.b); }

  /// Twice the signed area of the closed (h, b) polygon fed so far
  /// (counter-clockwise positive); 0 below three points.
  [[nodiscard]] double twice_signed_area() const;

  /// Metrics of the loop fed so far; all zero when nothing was fed.
  [[nodiscard]] LoopMetrics metrics() const;

 private:
  /// Shoelace term of the polygon edge (h0, b0) -> (h1, b1).
  static double shoelace_term(double h0, double b0, double h1, double b1) {
    return h0 * b1 - h1 * b0;
  }

  /// Mean of |value| over the values emitted into it.
  struct AbsMean {
    double sum = 0.0;
    std::size_t count = 0;
    void operator()(double value) {
      sum += std::fabs(value);
      ++count;
    }
  };

  double first_h_ = 0.0;
  double first_b_ = 0.0;
  double last_h_ = 0.0;
  double last_b_ = 0.0;
  double twice_area_ = 0.0;
  double h_peak_ = 0.0;
  double b_peak_ = 0.0;
  AbsMean remanence_;   // |B| where H crosses zero
  AbsMean coercivity_;  // |H| where B crosses zero
  std::size_t points_ = 0;
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
