// The one walk behind every loop metric, templated over the lane op set
// mag::fastmath::VecD<W> the way ckt/lane_lu_kernel.hpp is:
// BasicLoopAccumulator<VecD<1>> is analysis::LoopAccumulator, the scalar
// walk finish_result and analyze_loop run, and the W-lane cases accumulate
// W curves at once inside the FastMath kernel's recording step
// (mag/timeless_ja_batch_span.hpp). Every op is lane-wise, with no FMA and
// no horizontal op, and the scalar case's branches are the vector cases'
// selects, so a lane's state — and the metrics read off it — is bitwise the
// scalar walk's over the same points, whatever the width or its neighbours.
//
// This header holds templates and plain data only: it is included by the
// ISA-flagged kernel translation units, whose op sets live in their own ISA
// inline namespace, so no instantiation is ever shared between TUs compiled
// for different ISAs (the ODR rule of timeless_ja_batch_span.hpp).
#pragma once

#include <cmath>
#include <cstddef>

#include "mag/fast_math.hpp"

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

/// One zero-crossing report per lane: `reports` set where the rule fired,
/// `value` the y it reported there.
template <class V>
struct Crossing {
  typename V::Mask reports;
  typename V::Reg value;
};

/// The zero-crossing rule for the segment (x0, y0) -> (x1, y1), lane-wise:
/// an exact zero at x0 reports y0, a strict sign change reports y linearly
/// interpolated at x = 0, anything else reports nothing. The segment's end
/// point is the next segment's start, so a walk reports an exact zero at
/// its last point separately.
template <class V>
FERRO_ALWAYS_INLINE Crossing<V> zero_crossing(typename V::Reg x0,
                                              typename V::Reg y0,
                                              typename V::Reg x1,
                                              typename V::Reg y1) {
  const typename V::Reg zero = V::zero();
  const typename V::Mask at_zero = V::cmp_eq(x0, zero);
  const typename V::Mask sign_change =
      V::mask_or(V::mask_and(V::cmp_lt(x0, zero), V::cmp_gt(x1, zero)),
                 V::mask_and(V::cmp_gt(x0, zero), V::cmp_lt(x1, zero)));
  const typename V::Reg t = V::div(V::neg(x0), V::sub(x1, x0));
  const typename V::Reg interpolated = V::add(y0, V::mul(t, V::sub(y1, y0)));
  return {V::mask_or(at_zero, sign_change),
          V::select(at_zero, interpolated, y0)};
}

}  // namespace detail

/// Feed a loop's points in order, once each, then read the results. Nothing
/// is copied or allocated, and every sum runs in index order with the
/// shoelace's closing edge (last point back to the first) added last, so
/// the results are bitwise those of copying the points out and applying
/// enclosed_area and values_at_zero_of to the copies. A lane's state is
/// kFields doubles; load/store move W lanes of it to and from an array of
/// structure-of-arrays rows, which is how the kernel hands it back.
template <class V>
class BasicLoopAccumulator {
 public:
  using Reg = typename V::Reg;
  using Mask = typename V::Mask;

  static constexpr std::size_t kFields = 12;

  /// Feeds (h, b) to the lanes in `live` and leaves the others as they are.
  FERRO_ALWAYS_INLINE void add(Reg h, Reg b, Mask live) {
    const Reg zero = V::zero();
    const Mask first = V::mask_and(live, V::cmp_eq(points_, zero));
    const Mask segment = V::mask_andnot(live, first);
    first_h_ = V::select(first, first_h_, h);
    first_b_ = V::select(first, first_b_, b);
    twice_area_ = V::select(
        segment, twice_area_,
        V::add(twice_area_, shoelace_term(last_h_, last_b_, h, b)));
    const Mask rules = V::mask_andnot(segment, quiet(h, b));
    if (V::any(rules)) crossings(h, b, rules);
    // max(|x|, peak) is MAXPD's std::max(peak, |x|).
    h_peak_ = V::select(live, h_peak_, V::max(V::abs(h), h_peak_));
    b_peak_ = V::select(live, b_peak_, V::max(V::abs(b), b_peak_));
    last_h_ = V::select(live, last_h_, h);
    last_b_ = V::select(live, last_b_, b);
    points_ = V::add(points_, V::one_where(live, V::set1(1.0)));
  }

  /// add() for the common row: every lane live and already past its first
  /// point, so every mask add() would build is all set and drops out.
  FERRO_ALWAYS_INLINE void add_segment(Reg h, Reg b) {
    twice_area_ =
        V::add(twice_area_, shoelace_term(last_h_, last_b_, h, b));
    const Mask quiet_lanes = quiet(h, b);
    if (!V::all(quiet_lanes)) {
      crossings(h, b, V::mask_andnot(all_lanes(), quiet_lanes));
    }
    h_peak_ = V::max(V::abs(h), h_peak_);
    b_peak_ = V::max(V::abs(b), b_peak_);
    last_h_ = h;
    last_b_ = b;
    points_ = V::add(points_, V::set1(1.0));
  }

  /// Feeds (h, b) to every lane, through add_segment() once every lane
  /// holds a point.
  FERRO_ALWAYS_INLINE void add(Reg h, Reg b) {
    if (V::all(V::cmp_neq(points_, V::zero()))) {
      add_segment(h, b);
    } else {
      add(h, b, all_lanes());
    }
  }

  /// Lanes [0, W) from `soa`, whose field k of lane l is soa[k * stride + l].
  FERRO_ALWAYS_INLINE void load(const double* soa, std::size_t stride) {
    std::size_t k = 0;
    visit(*this, [&](Reg& field) { field = V::load(soa + stride * k++); });
  }

  /// Lanes [0, W) into `soa`, laid out as load() reads it.
  FERRO_ALWAYS_INLINE void store(double* soa, std::size_t stride) const {
    std::size_t k = 0;
    visit(*this,
          [&](const Reg& field) { V::store(soa + stride * k++, field); });
  }

  /// Twice the signed area of the closed (h, b) polygon fed so far
  /// (counter-clockwise positive); 0 below three points.
  [[nodiscard]] double twice_signed_area() const
    requires(V::kWidth == 1)
  {
    if (points_ < 3.0) return 0.0;
    return twice_area_ + shoelace_term(last_h_, last_b_, first_h_, first_b_);
  }

  /// Metrics of the loop fed so far; all zero when nothing was fed.
  [[nodiscard]] LoopMetrics metrics() const
    requires(V::kWidth == 1)
  {
    LoopMetrics metrics;
    if (points_ == 0.0) return metrics;
    metrics.h_peak = h_peak_;
    metrics.b_peak = b_peak_;
    metrics.points = static_cast<std::size_t>(points_);
    metrics.area = std::fabs(0.5 * twice_signed_area());

    // An exact zero at the last point has no following segment to report it.
    AbsMean remanence = remanence_;
    AbsMean coercivity = coercivity_;
    if (last_h_ == 0.0) remanence.add(true, {true, last_b_});
    if (last_b_ == 0.0) coercivity.add(true, {true, last_h_});
    metrics.remanence = remanence.mean();
    metrics.coercivity = coercivity.mean();
    return metrics;
  }

 private:
  static FERRO_ALWAYS_INLINE Mask all_lanes() {
    return V::cmp_eq(V::zero(), V::zero());
  }

  /// Lanes whose segment from the last point to (h, b) can report no zero
  /// crossing: positive products mean neither H nor B touches or crosses
  /// zero on it. Underflowing or NaN products count as not quiet, and the
  /// rules themselves decide.
  FERRO_ALWAYS_INLINE Mask quiet(Reg h, Reg b) const {
    const Reg zero = V::zero();
    return V::mask_and(V::cmp_gt(V::mul(last_h_, h), zero),
                       V::cmp_gt(V::mul(last_b_, b), zero));
  }

  /// Both zero-crossing rules on the segments of the lanes in `rules`.
  FERRO_ALWAYS_INLINE void crossings(Reg h, Reg b, Mask rules) {
    remanence_.add(rules, detail::zero_crossing<V>(last_h_, last_b_, h, b));
    coercivity_.add(rules, detail::zero_crossing<V>(last_b_, last_h_, b, h));
  }

  /// Shoelace term of the polygon edge (h0, b0) -> (h1, b1).
  static FERRO_ALWAYS_INLINE Reg shoelace_term(Reg h0, Reg b0, Reg h1,
                                               Reg b1) {
    return V::sub(V::mul(h0, b1), V::mul(h1, b0));
  }

  /// Mean of |value| over the values reported into it.
  struct AbsMean {
    Reg sum = V::zero();
    Reg count = V::zero();

    FERRO_ALWAYS_INLINE void add(Mask where,
                                 const detail::Crossing<V>& crossing) {
      const Mask take = V::mask_and(where, crossing.reports);
      sum = V::select(take, sum, V::add(sum, V::abs(crossing.value)));
      count = V::add(count, V::one_where(take, V::set1(1.0)));
    }
    [[nodiscard]] double mean() const
      requires(V::kWidth == 1)
    {
      return count != 0.0 ? sum / count : 0.0;
    }
  };

  /// Calls f on every state field, in the load/store order.
  template <class Self, class F>
  static FERRO_ALWAYS_INLINE void visit(Self& self, F&& f) {
    f(self.first_h_);
    f(self.first_b_);
    f(self.last_h_);
    f(self.last_b_);
    f(self.twice_area_);
    f(self.h_peak_);
    f(self.b_peak_);
    f(self.remanence_.sum);
    f(self.remanence_.count);
    f(self.coercivity_.sum);
    f(self.coercivity_.count);
    f(self.points_);
  }

  Reg first_h_ = V::zero();
  Reg first_b_ = V::zero();
  Reg last_h_ = V::zero();
  Reg last_b_ = V::zero();
  Reg twice_area_ = V::zero();
  Reg h_peak_ = V::zero();
  Reg b_peak_ = V::zero();
  AbsMean remanence_;   // |B| where H crosses zero
  AbsMean coercivity_;  // |H| where B crosses zero
  Reg points_ = V::zero();  // a count, exact in a double
};

}  // namespace ferro::analysis
