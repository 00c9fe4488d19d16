// Tests for the analysis module on synthetic curves with known answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/curve_compare.hpp"
#include "analysis/loop_accumulator.hpp"
#include "analysis/loop_metrics.hpp"
#include "analysis/stability.hpp"
#include "mag/bh.hpp"
#include "mag/fast_math.hpp"
#include "support/fixtures.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"

namespace fa = ferro::analysis;
namespace fm = ferro::mag;
namespace fu = ferro::util;
namespace ts = ferro::testsupport;

namespace {

/// Ellipse loop: h = H0 cos(theta), b = B0 sin(theta); area = pi*H0*B0,
/// remanence B0, coercivity H0.
fm::BhCurve ellipse(double h0, double b0, std::size_t n = 720,
                    bool clockwise = false) {
  fm::BhCurve curve;
  for (std::size_t i = 0; i <= n; ++i) {
    const double theta = 2.0 * ferro::util::kPi * static_cast<double>(i) /
                         static_cast<double>(n) * (clockwise ? -1.0 : 1.0);
    curve.append(h0 * std::cos(theta), 0.0, b0 * std::sin(theta));
  }
  return curve;
}

/// The textbook composition analyze_loop must reproduce bit for bit, kept
/// here independently of the library: copy the window out, shoelace with a
/// wrapped index, collect every zero crossing, then average the magnitudes.
fa::LoopMetrics reference_metrics(const fm::BhCurve& curve, std::size_t begin,
                                  std::size_t end) {
  fa::LoopMetrics metrics;
  if (curve.empty() || end >= curve.size() || begin > end) return metrics;
  std::vector<double> h, b;
  for (std::size_t i = begin; i <= end; ++i) {
    h.push_back(curve.points()[i].h);
    b.push_back(curve.points()[i].b);
    metrics.h_peak = std::max(metrics.h_peak, std::fabs(h.back()));
    metrics.b_peak = std::max(metrics.b_peak, std::fabs(b.back()));
  }
  const std::size_t n = h.size();
  metrics.points = n;
  if (n >= 3) {
    double twice_area = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + 1) % n;
      twice_area += h[i] * b[j] - h[j] * b[i];
    }
    metrics.area = std::fabs(0.5 * twice_area);
  }
  const auto mean_abs_at_zero = [n](const std::vector<double>& x,
                                    const std::vector<double>& y) {
    std::vector<double> values;
    for (std::size_t i = 1; i < n; ++i) {
      if (x[i - 1] == 0.0) {
        values.push_back(y[i - 1]);
      } else if ((x[i - 1] < 0.0 && x[i] > 0.0) ||
                 (x[i - 1] > 0.0 && x[i] < 0.0)) {
        const double t = -x[i - 1] / (x[i] - x[i - 1]);
        values.push_back(y[i - 1] + t * (y[i] - y[i - 1]));
      }
    }
    if (x.back() == 0.0) values.push_back(y.back());
    double acc = 0.0;
    for (const double v : values) acc += std::fabs(v);
    return values.empty() ? 0.0 : acc / static_cast<double>(values.size());
  };
  metrics.remanence = mean_abs_at_zero(h, b);
  metrics.coercivity = mean_abs_at_zero(b, h);
  return metrics;
}

void expect_bitwise(const fa::LoopMetrics& got, const fa::LoopMetrics& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.h_peak),
            std::bit_cast<std::uint64_t>(want.h_peak));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.b_peak),
            std::bit_cast<std::uint64_t>(want.b_peak));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.remanence),
            std::bit_cast<std::uint64_t>(want.remanence));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.coercivity),
            std::bit_cast<std::uint64_t>(want.coercivity));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.area),
            std::bit_cast<std::uint64_t>(want.area));
  EXPECT_EQ(got.points, want.points);
}

void expect_matches_reference(const fm::BhCurve& curve, std::size_t begin,
                              std::size_t end) {
  SCOPED_TRACE("window [" + std::to_string(begin) + ", " +
               std::to_string(end) + "] of " + std::to_string(curve.size()));
  expect_bitwise(fa::analyze_loop(curve, begin, end),
                 reference_metrics(curve, begin, end));
}

fm::BhCurve load_fig1_golden() {
  const fu::CsvTable table =
      fu::read_csv(ts::data_path("fig1_major_loop.csv"));
  fm::BhCurve curve;
  const int ih = table.column_index("h");
  const int im = table.column_index("m");
  const int ib = table.column_index("b");
  if (ih < 0 || im < 0 || ib < 0) return curve;
  for (const auto& row : table.rows) {
    curve.append(row[static_cast<std::size_t>(ih)],
                 row[static_cast<std::size_t>(im)],
                 row[static_cast<std::size_t>(ib)]);
  }
  return curve;
}

}  // namespace

TEST(EnclosedArea, EllipseMatchesAnalytic) {
  const fm::BhCurve curve = ellipse(100.0, 2.0);
  const double area =
      fa::enclosed_area(curve.h_values(), curve.b_values());
  EXPECT_NEAR(std::fabs(area), ferro::util::kPi * 100.0 * 2.0, 1.0);
}

TEST(EnclosedArea, OrientationFlipsSign) {
  const fm::BhCurve ccw = ellipse(10.0, 1.0);
  const fm::BhCurve cw = ellipse(10.0, 1.0, 720, true);
  const double a1 = fa::enclosed_area(ccw.h_values(), ccw.b_values());
  const double a2 = fa::enclosed_area(cw.h_values(), cw.b_values());
  EXPECT_NEAR(a1, -a2, 1e-9);
}

TEST(EnclosedArea, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fa::enclosed_area(std::vector<double>{},
                                     std::vector<double>{}),
                   0.0);
  EXPECT_DOUBLE_EQ(fa::enclosed_area(std::vector<double>{1.0, 2.0},
                                     std::vector<double>{1.0, 2.0}),
                   0.0);
}

TEST(ValuesAtZero, LinearCrossing) {
  const std::vector<double> x = {-1.0, 1.0};
  const std::vector<double> y = {10.0, 20.0};
  const auto vals = fa::values_at_zero_of(x, y);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 15.0);
}

TEST(ValuesAtZero, ExactZeroSample) {
  const std::vector<double> x = {-1.0, 0.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const auto vals = fa::values_at_zero_of(x, y);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 2.0);
}

TEST(ValuesAtZero, NoCrossing) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_TRUE(fa::values_at_zero_of(x, y).empty());
}

TEST(AnalyzeLoop, EllipseMetrics) {
  const fm::BhCurve curve = ellipse(100.0, 2.0);
  const fa::LoopMetrics metrics = fa::analyze_loop(curve);
  EXPECT_NEAR(metrics.h_peak, 100.0, 1e-9);
  EXPECT_NEAR(metrics.b_peak, 2.0, 1e-3);
  EXPECT_NEAR(metrics.remanence, 2.0, 1e-3);
  EXPECT_NEAR(metrics.coercivity, 100.0, 0.1);
  EXPECT_NEAR(metrics.area, ferro::util::kPi * 200.0, 1.0);
  EXPECT_EQ(metrics.points, curve.size());
}

TEST(AnalyzeLoop, SubrangeAndDegenerate) {
  const fm::BhCurve curve = ellipse(1.0, 1.0, 8);
  const fa::LoopMetrics all = fa::analyze_loop(curve);
  EXPECT_GT(all.area, 0.0);
  const fa::LoopMetrics none = fa::analyze_loop(curve, 5, 2);  // begin > end
  EXPECT_EQ(none.points, 0u);
  const fa::LoopMetrics oob = fa::analyze_loop(curve, 0, curve.size());
  EXPECT_EQ(oob.points, 0u);
}

TEST(AnalyzeLoop, BitwiseEqualToReferenceOnFig1Golden) {
  const fm::BhCurve golden = load_fig1_golden();
  ASSERT_GT(golden.size(), 1000u);
  const std::size_t n = golden.size();
  expect_matches_reference(golden, 0, n - 1);
  expect_matches_reference(golden, n / 2, n - 1);  // the converged cycle
  expect_matches_reference(golden, n / 3, 2 * n / 3 + 7);
  expect_bitwise(fa::analyze_loop(golden), reference_metrics(golden, 0, n - 1));
}

TEST(AnalyzeLoop, BitwiseEqualToReferenceOnExactZeros) {
  // Samples lying exactly on H = 0 and B = 0 — mid-curve and as the last
  // point of the window — take the rule's exact-zero branch, not the
  // interpolation.
  const auto polygon = [](std::initializer_list<std::pair<double, double>> hb) {
    fm::BhCurve curve;
    for (const auto& [h, b] : hb) curve.append(h, 0.0, b);
    return curve;
  };
  const fm::BhCurve curve =
      polygon({{0.0, -1.0}, {3.0, 0.0}, {0.0, 1.25}, {-2.0, 0.0}, {-1.0, 0.5},
               {0.0, -0.75}, {1.5, 0.0}, {4.0, 2.0}, {0.0, 0.0}});
  for (std::size_t begin = 0; begin < curve.size(); ++begin) {
    for (std::size_t end = begin; end < curve.size(); ++end) {
      expect_matches_reference(curve, begin, end);
    }
  }
  // Last point on H = 0 only, and on B = 0 only.
  expect_matches_reference(polygon({{1.0, 1.0}, {-1.0, 2.0}, {0.0, 3.0}}), 0, 2);
  expect_matches_reference(polygon({{1.0, 1.0}, {2.0, -1.0}, {3.0, 0.0}}), 0, 2);
}

TEST(AnalyzeLoop, ShortAndEmptyWindows) {
  const fm::BhCurve curve = ellipse(2.0, 1.0, 12);
  // n < 3: no area, but peaks and crossings still count.
  for (std::size_t begin = 0; begin + 1 < curve.size(); ++begin) {
    expect_matches_reference(curve, begin, begin);
    expect_matches_reference(curve, begin, begin + 1);
    EXPECT_EQ(fa::analyze_loop(curve, begin, begin + 1).area, 0.0);
  }
  // Empty windows: begin > end, end past the curve, an empty curve.
  expect_bitwise(fa::analyze_loop(curve, 4, 3), fa::LoopMetrics{});
  expect_bitwise(fa::analyze_loop(curve, 0, curve.size()), fa::LoopMetrics{});
  expect_bitwise(fa::analyze_loop(fm::BhCurve{}), fa::LoopMetrics{});
  expect_bitwise(fa::LoopAccumulator{}.metrics(), fa::LoopMetrics{});
}

TEST(AnalyzeLoop, SharedWalkKeepsAreaAndCrossingsConsistent) {
  // enclosed_area and values_at_zero_of run on the accumulator's code, so
  // their composition is the metrics analyze_loop reports.
  const fm::BhCurve curve = ellipse(100.0, 2.0, 360);
  const fa::LoopMetrics metrics = fa::analyze_loop(curve);
  const std::vector<double> h = curve.h_values();
  const std::vector<double> b = curve.b_values();
  EXPECT_EQ(metrics.area, std::fabs(fa::enclosed_area(h, b)));
  double acc = 0.0;
  const std::vector<double> remanences = fa::values_at_zero_of(h, b);
  for (const double r : remanences) acc += std::fabs(r);
  EXPECT_EQ(metrics.remanence, acc / static_cast<double>(remanences.size()));
}

TEST(MonotoneBranches, TriangleSweep) {
  fm::BhCurve curve;
  for (const double h : {0.0, 1.0, 2.0, 1.0, 0.0, -1.0, 0.0, 1.0}) {
    curve.append(h, 0.0, h);
  }
  const auto branches = fa::monotone_branches(curve);
  ASSERT_EQ(branches.size(), 3u);
  EXPECT_EQ(branches[0].first, 0u);
  EXPECT_EQ(branches[0].second, 2u);
  EXPECT_EQ(branches[1].first, 2u);
  EXPECT_EQ(branches[1].second, 5u);
  EXPECT_EQ(branches[2].first, 5u);
  EXPECT_EQ(branches[2].second, 7u);
}

TEST(ClosureError, ExactAndMismatch) {
  fm::BhCurve curve;
  curve.append(0.0, 0.0, 1.0);
  curve.append(1.0, 0.0, 2.0);
  curve.append(0.0, 0.0, 1.25);
  EXPECT_DOUBLE_EQ(fa::closure_error(curve, 0, 2), 0.25);
  EXPECT_DOUBLE_EQ(fa::closure_error(curve, 0, 0), 0.0);
}

TEST(ScanSlopes, DetectsNegativeSegment) {
  fm::BhCurve curve;
  curve.append(0.0, 0.0, 0.0);
  curve.append(1.0, 0.0, 1.0);   // +1 slope
  curve.append(2.0, 0.0, 0.5);   // -0.5 slope  <- negative
  curve.append(3.0, 0.0, 1.5);   // +1 slope
  const fa::SlopeReport report = fa::scan_slopes(curve);
  EXPECT_EQ(report.segments, 3u);
  EXPECT_EQ(report.negative_segments, 1u);
  EXPECT_NEAR(report.most_negative, -0.5, 1e-12);
}

TEST(ScanSlopes, FallingBranchIsNotNegativeSlope) {
  // B falling while H falls is a *positive* dB/dH.
  fm::BhCurve curve;
  curve.append(2.0, 0.0, 2.0);
  curve.append(1.0, 0.0, 1.0);
  curve.append(0.0, 0.0, 0.0);
  const fa::SlopeReport report = fa::scan_slopes(curve);
  EXPECT_EQ(report.negative_segments, 0u);
}

TEST(ScanSlopes, IgnoresTinyFieldMoves) {
  fm::BhCurve curve;
  curve.append(0.0, 0.0, 0.0);
  curve.append(1e-12, 0.0, -5.0);  // below min_dh
  const fa::SlopeReport report = fa::scan_slopes(curve);
  EXPECT_EQ(report.segments, 0u);
  EXPECT_EQ(report.negative_segments, 0u);
}

TEST(CompareCurves, PointwiseIdenticalAndShifted) {
  const fm::BhCurve a = ellipse(10.0, 1.0, 100);
  const fa::CurveDelta zero = fa::compare_pointwise(a, a);
  EXPECT_DOUBLE_EQ(zero.rms_b, 0.0);
  EXPECT_DOUBLE_EQ(zero.max_b, 0.0);

  fm::BhCurve shifted;
  for (const auto& p : a.points()) shifted.append(p.h, p.m + 1.0, p.b + 0.5);
  const fa::CurveDelta delta = fa::compare_pointwise(a, shifted);
  EXPECT_NEAR(delta.rms_b, 0.5, 1e-12);
  EXPECT_NEAR(delta.max_b, 0.5, 1e-12);
  EXPECT_NEAR(delta.rms_m, 1.0, 1e-12);
}

TEST(CompareCurves, ByArcHandlesDifferentSampling) {
  // Same ellipse sampled at different densities: arc comparison ~0.
  const fm::BhCurve coarse = ellipse(10.0, 1.0, 180);
  const fm::BhCurve fine = ellipse(10.0, 1.0, 1440);
  const fa::CurveDelta delta = fa::compare_by_arc(coarse, fine);
  EXPECT_LT(delta.rms_b, 5e-3);
  EXPECT_LT(delta.max_b, 2e-2);
}

TEST(CompareCurves, ByArcDetectsScaleDifference) {
  const fm::BhCurve unit = ellipse(10.0, 1.0, 360);
  const fm::BhCurve doubled = ellipse(10.0, 2.0, 360);
  const fa::CurveDelta delta = fa::compare_by_arc(unit, doubled);
  EXPECT_GT(delta.max_b, 0.9);
}

TEST(Envelope, MinorInsideMajor) {
  // Major: tall ellipse; minor: concentric small one.
  const fm::BhCurve major = ellipse(100.0, 2.0);
  const fm::BhCurve minor = ellipse(50.0, 0.5);
  EXPECT_TRUE(fa::within_major_envelope(minor, major, 1e-6));
}

TEST(Envelope, EscapingCurveDetected) {
  const fm::BhCurve major = ellipse(100.0, 2.0);
  const fm::BhCurve tall = ellipse(50.0, 3.0);  // sticks out vertically
  EXPECT_FALSE(fa::within_major_envelope(tall, major, 1e-6));
}

// ---------------------------------------------------------------------------
// The W-lane accumulators the FastMath kernel finishes its lanes with: each
// lane must end bitwise where the scalar walk over its own points ends.
// ---------------------------------------------------------------------------

namespace {

struct LaneCurve {
  fm::BhCurve curve;
  std::size_t begin = 0;  ///< metrics rows [begin, end]; begin > end: none
  std::size_t end = 0;
};

/// Feeds W ragged curves through one BasicLoopAccumulator<V> row by row the
/// way the kernel does — add_segment() where every lane is live and past
/// its first row, the masked add() elsewhere — and compares every lane
/// with the scalar walk and the independent reference.
template <class V>
void expect_lanes_match_scalar(const std::vector<LaneCurve>& lanes) {
  constexpr auto kW = static_cast<std::size_t>(V::kWidth);
  ASSERT_EQ(lanes.size(), kW);
  std::size_t rows = 0;
  for (const auto& lane : lanes) rows = std::max(rows, lane.curve.size());
  fa::BasicLoopAccumulator<V> acc;
  for (std::size_t j = 0; j < rows; ++j) {
    double h[kW], b[kW], lo[kW], hi[kW];
    bool segment = true;
    for (std::size_t k = 0; k < kW; ++k) {
      const LaneCurve& lane = lanes[k];
      const bool has_row = j < lane.curve.size();
      // Past a lane's last row the kernel re-reads it; any value will do.
      h[k] = has_row ? lane.curve.points()[j].h : 7.0;
      b[k] = has_row ? lane.curve.points()[j].b : -7.0;
      const bool rows_exist = lane.begin <= lane.end;
      lo[k] = static_cast<double>(lane.begin);
      hi[k] = rows_exist ? static_cast<double>(lane.end + 1) : lo[k];
      segment &= rows_exist && j > lane.begin && j <= lane.end;
    }
    if (segment) {
      acc.add_segment(V::load(h), V::load(b));
    } else {
      const auto row = V::set1(static_cast<double>(j));
      acc.add(V::load(h), V::load(b),
              V::mask_andnot(V::cmp_lt(row, V::load(hi)),
                             V::cmp_lt(row, V::load(lo))));
    }
  }
  std::vector<double> soa(fa::LoopAccumulator::kFields * kW);
  acc.store(soa.data(), kW);
  for (std::size_t k = 0; k < kW; ++k) {
    const LaneCurve& lane = lanes[k];
    SCOPED_TRACE("W " + std::to_string(kW) + " lane " + std::to_string(k));
    fa::LoopAccumulator scalar;
    scalar.load(soa.data() + k, kW);
    expect_bitwise(scalar.metrics(),
                   fa::analyze_loop(lane.curve, lane.begin, lane.end));
    expect_bitwise(scalar.metrics(),
                   reference_metrics(lane.curve, lane.begin, lane.end));
  }
}

std::vector<LaneCurve> lane_pool() {
  const auto polygon = [](std::initializer_list<std::pair<double, double>> hb) {
    fm::BhCurve curve;
    for (const auto& [h, b] : hb) curve.append(h, 0.0, b);
    return curve;
  };
  const fm::BhCurve zeros =
      polygon({{0.0, -1.0}, {3.0, 0.0}, {0.0, 1.25}, {-2.0, 0.0}, {-1.0, 0.5},
               {0.0, -0.75}, {1.5, 0.0}, {4.0, 2.0}, {0.0, 0.0}});
  const fm::BhCurve golden = load_fig1_golden();
  const std::size_t n = golden.size();
  return {
      {golden, 0, n - 1},
      {zeros, 0, zeros.size() - 1},
      {ellipse(100.0, 2.0, 360), 17, 250},
      {polygon({{0.0, 0.0}, {0.0, 0.0}}), 0, 1},
      {zeros, 2, 8},
      {golden, n / 2, n - 1},
      {polygon({{1.0, 1.0}, {-1.0, 2.0}, {0.0, 3.0}}), 0, 2},
      {ellipse(2.0, 1.0, 12), 4, 3},  // no metrics rows
      {polygon({{1.0, 1.0}, {2.0, -1.0}, {3.0, 0.0}}), 0, 2},
      {golden, n / 3, 2 * n / 3 + 7},
      {ellipse(1.0, 1.0, 8, true), 0, 0},
  };
}

template <class V>
void expect_every_window_of_the_pool() {
  const std::vector<LaneCurve> pool = lane_pool();
  const auto w = static_cast<std::size_t>(V::kWidth);
  for (std::size_t shift = 0; shift < pool.size(); ++shift) {
    std::vector<LaneCurve> lanes;
    for (std::size_t k = 0; k < w; ++k) {
      lanes.push_back(pool[(shift + k) % pool.size()]);
    }
    expect_lanes_match_scalar<V>(lanes);
  }
}

}  // namespace

TEST(LoopAccumulatorLanes, EveryLaneIsTheScalarWalkBitwise) {
  expect_every_window_of_the_pool<fm::fastmath::VecD<1>>();
#if defined(FERRO_FASTMATH_SIMD)
  expect_every_window_of_the_pool<fm::fastmath::VecD<2>>();
#endif
  // A -march=native build (the native-widths CI job) compiles the wide op
  // sets into this translation unit too.
#if defined(__AVX2__)
  expect_every_window_of_the_pool<fm::fastmath::VecD<4>>();
#endif
#if defined(__AVX512F__)
  expect_every_window_of_the_pool<fm::fastmath::VecD<8>>();
#endif
}

TEST(LoopAccumulatorLanes, CurveFinishFeedsOnlyItsRowsAndSeesEveryPoint) {
  const fm::BhCurve curve = ellipse(50.0, 1.5, 90);
  const std::size_t n = curve.size();
  fa::CurveFinish finish;
  finish.begin = 10;
  finish.count = 41;
  for (std::size_t j = 0; j < n; ++j) {
    const auto& p = curve.points()[j];
    finish.add(j, p.h, p.m, p.b);
  }
  EXPECT_TRUE(finish.finite);
  expect_bitwise(finish.loop.metrics(), reference_metrics(curve, 10, 50));

  // add_rows over arbitrary chunks is the same walk.
  const fm::BhCurve golden = load_fig1_golden();
  for (const std::size_t chunk : {1u, 7u, 64u, 100000u}) {
    fa::CurveFinish rows;
    rows.begin = 100;
    rows.count = 4901;
    for (std::size_t j = 0; j < golden.size(); j += chunk) {
      rows.add_rows(golden.points().data(), j,
                    std::min(golden.size(), j + chunk));
    }
    EXPECT_TRUE(rows.finite);
    expect_bitwise(rows.loop.metrics(), reference_metrics(golden, 100, 5000));
  }

  // A non-finite m outside the metrics rows still flips the verdict.
  fa::CurveFinish poisoned;
  poisoned.count = 2;
  poisoned.add(0, 1.0, 0.0, 1.0);
  poisoned.add(1, 2.0, 0.0, 2.0);
  poisoned.add(2, 3.0, std::numeric_limits<double>::infinity(), 3.0);
  EXPECT_FALSE(poisoned.finite);
  EXPECT_EQ(poisoned.loop.metrics().points, 2u);
  const fm::BhPoint rows[] = {
      {1.0, 0.0, 1.0},
      {2.0, 0.0, 2.0},
      {3.0, std::numeric_limits<double>::infinity(), 3.0}};
  fa::CurveFinish poisoned_rows;
  poisoned_rows.add_rows(rows, 0, 2);
  EXPECT_TRUE(poisoned_rows.finite);
  poisoned_rows.add_rows(rows, 2, 3);
  EXPECT_FALSE(poisoned_rows.finite);
}
