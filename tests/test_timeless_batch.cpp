// TimelessJaBatch: the SoA batch kernel's exact lane must be bitwise
// identical to the scalar TimelessJa (states, stats, and every recorded
// sample), and the FastMath lane must stay within its documented error
// bounds — both for the raw polynomial kernels and for whole trajectories.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/dc_sweep.hpp"
#include "mag/fast_math.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "mag/ja_trace.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "support/fixtures.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fc = ferro::core;
namespace ts = ferro::testsupport;
using Scalar = fm::fastmath::VecD<1>;

namespace {

/// Lane fixtures: every library material plus dhmax/config variations.
struct LaneSpec {
  fm::JaParameters params;
  fm::TimelessConfig config;
  fw::HSweep sweep;
};

std::vector<LaneSpec> lane_fixtures() {
  std::vector<LaneSpec> lanes;
  const auto& library = fm::material_library();
  for (std::size_t i = 0; i < library.size(); ++i) {
    const auto& material = library[i];
    LaneSpec lane;
    lane.params = material.params;
    lane.config.dhmax =
        (material.params.a + material.params.k) / (150.0 + 40.0 * double(i));
    lane.sweep = ts::saturating_major_loop(material.params);
    lanes.push_back(std::move(lane));
  }
  // A clamp-off variant and the paper's fig1 discretisation.
  LaneSpec no_clamp = lanes[0];
  no_clamp.config.clamp_negative_slope = false;
  lanes.push_back(std::move(no_clamp));
  LaneSpec fig1;
  fig1.params = fm::paper_parameters_dual();
  fig1.config = ts::paper_config();
  fig1.sweep = fc::fig1_sweep(10.0);
  lanes.push_back(std::move(fig1));
  return lanes;
}

void expect_stats_eq(const fm::TimelessStats& a, const fm::TimelessStats& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.field_events, b.field_events);
  EXPECT_EQ(a.integration_steps, b.integration_steps);
  EXPECT_EQ(a.slope_clamps, b.slope_clamps);
  EXPECT_EQ(a.direction_clamps, b.direction_clamps);
}

}  // namespace

TEST(FastMath, AtanStaysWithinDocumentedBound) {
  double worst = 0.0;
  for (int i = -200000; i <= 200000; ++i) {
    const double x = 1e-4 * double(i);  // [-20, 20] in 1e-4 steps
    worst = std::max(
        worst, std::fabs(fm::fastmath::fast_atan<Scalar>(x) - std::atan(x)));
  }
  // Huge arguments exercise the reciprocal reduction.
  for (const double x : {1e3, -1e6, 1e12, -1e15}) {
    worst = std::max(
        worst, std::fabs(fm::fastmath::fast_atan<Scalar>(x) - std::atan(x)));
  }
  EXPECT_LT(worst, fm::fastmath::kAtanMaxError);
}

TEST(FastMath, TanhStaysWithinDocumentedBound) {
  double worst = 0.0;
  for (int i = -200000; i <= 200000; ++i) {
    const double x = 1e-4 * double(i);
    worst = std::max(
        worst, std::fabs(fm::fastmath::fast_tanh<Scalar>(x) - std::tanh(x)));
  }
  for (const double x : {25.0, -100.0, 1e6}) {
    worst = std::max(
        worst, std::fabs(fm::fastmath::fast_tanh<Scalar>(x) - std::tanh(x)));
  }
  EXPECT_LT(worst, fm::fastmath::kTanhMaxError);
}

TEST(FastMath, LangevinTracksExactEvaluator) {
  double worst = 0.0;
  for (int i = -200000; i <= 200000; ++i) {
    const double x = 1e-4 * double(i);
    if (x == 0.0) continue;
    worst = std::max(worst, std::fabs(fm::fastmath::fast_langevin<Scalar>(x) -
                                      fm::langevin(x)));
  }
  // The (x - tanh)/(x*tanh) form amplifies the tanh error at small x; the
  // series below 0.25 and the saturated tail cap the whole axis at ~1e-7.
  EXPECT_LT(worst, 2e-7);
}

TEST(TimelessJaBatch, SupportsOnlyTheLockstepSubset) {
  fm::TimelessConfig config;
  EXPECT_TRUE(fm::TimelessJaBatch::supports(config));
  config.clamp_negative_slope = false;  // clamp flags are free
  EXPECT_TRUE(fm::TimelessJaBatch::supports(config));
  config = {};
  config.substep_max = 100.0;
  EXPECT_FALSE(fm::TimelessJaBatch::supports(config));
}

TEST(TimelessJaBatch, ExactLanesAreBitwiseIdenticalToScalar) {
  const auto lanes = lane_fixtures();

  fm::TimelessJaBatch batch(fm::BatchMath::kExact);
  std::vector<const fw::HSweep*> sweeps;
  for (const auto& lane : lanes) {
    batch.add_lane(lane.params, lane.config);
    sweeps.push_back(&lane.sweep);
  }
  std::vector<fm::BhCurve> curves;
  batch.run(sweeps, curves);

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    fm::TimelessJa scalar(lanes[i].params, lanes[i].config);
    const fm::BhCurve reference = fm::run_sweep(scalar, lanes[i].sweep);
    ASSERT_EQ(curves[i].size(), reference.size()) << "lane " << i;
    for (std::size_t j = 0; j < reference.size(); ++j) {
      const auto& pa = curves[i].points()[j];
      const auto& pb = reference.points()[j];
      ASSERT_EQ(pa.h, pb.h) << "lane " << i << " sample " << j;
      ASSERT_EQ(pa.m, pb.m) << "lane " << i << " sample " << j;
      ASSERT_EQ(pa.b, pb.b) << "lane " << i << " sample " << j;
    }
    expect_stats_eq(batch.stats(i), scalar.stats());
    EXPECT_EQ(batch.state(i).m_irr, scalar.state().m_irr) << "lane " << i;
    EXPECT_EQ(batch.state(i).m_total, scalar.state().m_total) << "lane " << i;
    EXPECT_EQ(batch.state(i).anchor_h, scalar.state().anchor_h) << "lane " << i;
    EXPECT_EQ(batch.last_slope(i), scalar.last_slope()) << "lane " << i;
  }
}

TEST(TimelessJaBatch, ExactModeReproducesFig1GoldenTrajectory) {
  // The acceptance anchor: the SoA exact lane on the golden-curve excitation
  // must match the scalar model sample-for-sample, bit-for-bit. (The scalar
  // model itself is pinned to tests/data/fig1_major_loop.csv by
  // test_golden_curve.)
  const fw::HSweep sweep = ts::major_loop(10.0, 2);
  const auto scalar =
      fc::run_dc_sweep(fm::paper_parameters_dual(), ts::paper_config(), sweep);

  fm::TimelessJaBatch batch;
  batch.add_lane(fm::paper_parameters_dual(), ts::paper_config());
  std::vector<fm::BhCurve> curves;
  batch.run({&sweep}, curves);

  ASSERT_EQ(curves[0].size(), scalar.curve.size());
  for (std::size_t j = 0; j < curves[0].size(); ++j) {
    ASSERT_EQ(curves[0].points()[j].b, scalar.curve.points()[j].b) << j;
    ASSERT_EQ(curves[0].points()[j].m, scalar.curve.points()[j].m) << j;
  }
  expect_stats_eq(batch.stats(0), scalar.stats);
}

TEST(TimelessJaBatch, ResetReturnsEveryLaneToTheVirginState) {
  fm::TimelessJaBatch batch;
  batch.add_lane(fm::paper_parameters());
  batch.add_lane(fm::paper_parameters_dual());
  const fw::HSweep sweep = ts::major_loop(50.0, 1);
  std::vector<fm::BhCurve> first;
  batch.run({&sweep, &sweep}, first);

  batch.reset();
  for (std::size_t i = 0; i < batch.lanes(); ++i) {
    EXPECT_EQ(batch.stats(i).samples, 0u);
    EXPECT_EQ(batch.state(i).m_irr, 0.0);
    EXPECT_EQ(batch.state(i).anchor_h, 0.0);
  }
  std::vector<fm::BhCurve> second;
  batch.run({&sweep, &sweep}, second);
  for (std::size_t i = 0; i < batch.lanes(); ++i) {
    ASSERT_EQ(first[i].size(), second[i].size());
    for (std::size_t j = 0; j < first[i].size(); ++j) {
      EXPECT_EQ(first[i].points()[j].b, second[i].points()[j].b);
    }
  }
}

TEST(TimelessJaBatch, RaggedSweepsAdvanceIndependently) {
  const fm::JaParameters params = fm::paper_parameters();
  const fw::HSweep long_sweep = ts::major_loop(20.0, 2);
  const fw::HSweep short_sweep = ts::major_loop(20.0, 1);

  fm::TimelessJaBatch batch;
  batch.add_lane(params);
  batch.add_lane(params);
  std::vector<fm::BhCurve> curves;
  batch.run({&long_sweep, &short_sweep}, curves);

  EXPECT_EQ(curves[0].size(), long_sweep.size());
  EXPECT_EQ(curves[1].size(), short_sweep.size());
  // The short lane's trajectory is a strict prefix-run: identical to running
  // it alone, unaffected by the longer lane continuing.
  fm::TimelessJa scalar(params, fm::TimelessConfig{});
  const fm::BhCurve alone = fm::run_sweep(scalar, short_sweep);
  for (std::size_t j = 0; j < alone.size(); ++j) {
    EXPECT_EQ(curves[1].points()[j].b, alone.points()[j].b);
  }
}

TEST(TimelessJaBatch, FastSimdPairAndScalarTailAgreeBitwise) {
  // Three identical lanes through the FastMath run(): at any width above 1
  // the group cascades down to a two-lane vector tile for lanes {0, 1} and
  // a VecD<1> tile for lane 2 — and a one-lane batch stepped by apply()
  // runs one row per pass. Every route must produce bit-identical
  // trajectories, for each anhysteretic kind; the packed kFast path's
  // partition invariance rests on exactly this property.
  std::vector<fm::JaParameters> kinds = {fm::paper_parameters(),
                                         fm::paper_parameters_dual()};
  for (const auto& material : fm::material_library()) {
    if (material.params.kind == fm::AnhystereticKind::kClassicLangevin) {
      kinds.push_back(material.params);
      break;
    }
  }
  ASSERT_EQ(kinds.size(), 3u);

  for (const auto& params : kinds) {
    fm::TimelessConfig config;
    config.dhmax = (params.a + params.k) / 180.0;
    const fw::HSweep sweep = ts::saturating_major_loop(params, 1);

    fm::TimelessJaBatch batch(fm::BatchMath::kFast);
    for (int i = 0; i < 3; ++i) batch.add_lane(params, config);
    std::vector<fm::BhCurve> curves;
    batch.run({&sweep, &sweep, &sweep}, curves);

    fm::TimelessJaBatch stepped(fm::BatchMath::kFast);
    stepped.add_lane(params, config);
    for (std::size_t j = 0; j < sweep.size(); ++j) {
      ASSERT_EQ(curves[0].points()[j].m, curves[2].points()[j].m)
          << to_string(params.kind) << " sample " << j;
      ASSERT_EQ(curves[1].points()[j].b, curves[2].points()[j].b)
          << to_string(params.kind) << " sample " << j;
      stepped.apply(&sweep.h[j]);
      ASSERT_EQ(stepped.magnetisation(0), curves[2].points()[j].m)
          << to_string(params.kind) << " sample " << j;
    }
  }
}

TEST(TimelessJaBatch, SimdDispatchReportsCoherentWidths) {
  const auto widths = fm::TimelessJaBatch::available_simd_widths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front(), 1);  // the scalar pass is always available
  for (std::size_t k = 1; k < widths.size(); ++k) {
    EXPECT_LT(widths[k - 1], widths[k]);
  }
  const int active = fm::TimelessJaBatch::active_simd_width();
  EXPECT_NE(std::find(widths.begin(), widths.end(), active), widths.end());
  // Forcing an available width takes effect; width 0 restores the auto pick.
  for (const int w : widths) {
    EXPECT_EQ(fm::TimelessJaBatch::force_simd_width(w), w);
    EXPECT_EQ(fm::TimelessJaBatch::active_simd_width(), w);
  }
  fm::TimelessJaBatch::force_simd_width(0);
  EXPECT_EQ(fm::TimelessJaBatch::active_simd_width(), active);
}

TEST(TimelessJaBatch, FastLaneBitwiseInvariantAcrossSimdWidths) {
  // The width-dispatch contract: a FastMath lane's whole trajectory —
  // every recorded sample, the final state, the folded counters — is
  // bitwise identical whichever vector width (1/2/4/8, as compiled and
  // supported) processes it, including ragged sweeps whose lanes drop out
  // mid-run, a lane group larger than the widest register, and sweeps with
  // a NaN or infinite sample. Mixed anhysteretic kinds keep the span
  // grouping honest.
  std::vector<LaneSpec> lanes = lane_fixtures();
  const LaneSpec fig1 = lanes.back();
  // Grow past one AVX-512 register so the W=8 main loop plus the 4/2/1
  // cascade all execute: duplicate the first fixtures, then stagger the
  // sweep lengths (prefix-run property keeps every length valid).
  while (lanes.size() < 11) lanes.push_back(lanes[lanes.size() % 3]);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    auto& h = lanes[i].sweep.h;
    h.resize(h.size() - (h.size() / (8 + i)));
  }
  // Three dual-atan lanes in one kind run, so they share vector tiles
  // above W = 1, each of whose sweeps holds one non-finite sample: NaN,
  // +Inf and -Inf.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    LaneSpec lane = fig1;
    lane.sweep.h[100] = poison;
    lanes.push_back(std::move(lane));
  }

  std::vector<const fw::HSweep*> sweeps;
  for (const auto& lane : lanes) sweeps.push_back(&lane.sweep);

  const auto run_at_width = [&](int width) {
    EXPECT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    fm::TimelessJaBatch batch(fm::BatchMath::kFast);
    for (const auto& lane : lanes) batch.add_lane(lane.params, lane.config);
    std::vector<fm::BhCurve> curves;
    batch.run(sweeps, curves);
    return std::make_pair(std::move(curves), std::move(batch));
  };

  // By bit pattern: a NaN never compares equal to itself.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto widths = fm::TimelessJaBatch::available_simd_widths();
  auto [ref_curves, ref_batch] = run_at_width(widths.front());
  for (std::size_t k = 1; k < widths.size(); ++k) {
    auto [curves, batch] = run_at_width(widths[k]);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      ASSERT_EQ(curves[i].size(), ref_curves[i].size())
          << "width " << widths[k] << " lane " << i;
      for (std::size_t j = 0; j < curves[i].size(); ++j) {
        const auto& pa = curves[i].points()[j];
        const auto& pb = ref_curves[i].points()[j];
        ASSERT_EQ(bits(pa.h), bits(pb.h))
            << "width " << widths[k] << " lane " << i << " sample " << j;
        ASSERT_EQ(bits(pa.m), bits(pb.m))
            << "width " << widths[k] << " lane " << i << " sample " << j;
        ASSERT_EQ(bits(pa.b), bits(pb.b))
            << "width " << widths[k] << " lane " << i << " sample " << j;
      }
      const fm::TimelessState a = batch.state(i);
      const fm::TimelessState b = ref_batch.state(i);
      EXPECT_EQ(bits(a.m_irr), bits(b.m_irr)) << "lane " << i;
      EXPECT_EQ(bits(a.m_total), bits(b.m_total)) << "lane " << i;
      EXPECT_EQ(bits(a.anchor_h), bits(b.anchor_h)) << "lane " << i;
      EXPECT_EQ(bits(batch.last_slope(i)), bits(ref_batch.last_slope(i)))
          << "lane " << i;
      expect_stats_eq(batch.stats(i), ref_batch.stats(i));
    }
  }
  fm::TimelessJaBatch::force_simd_width(0);
}

TEST(TimelessJaBatch, FastMathTrajectoriesStayWithinArcRmsBound) {
  const auto lanes = lane_fixtures();
  fm::TimelessJaBatch batch(fm::BatchMath::kFast);
  std::vector<const fw::HSweep*> sweeps;
  for (const auto& lane : lanes) {
    batch.add_lane(lane.params, lane.config);
    sweeps.push_back(&lane.sweep);
  }
  std::vector<fm::BhCurve> curves;
  batch.run(sweeps, curves);

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    fm::TimelessJa scalar(lanes[i].params, lanes[i].config);
    const fm::BhCurve reference = fm::run_sweep(scalar, lanes[i].sweep);
    ASSERT_EQ(curves[i].size(), reference.size());
    double sum_sq = 0.0;
    double b_peak = 0.0;
    for (std::size_t j = 0; j < reference.size(); ++j) {
      const double db = curves[i].points()[j].b - reference.points()[j].b;
      sum_sq += db * db;
      b_peak = std::max(b_peak, std::fabs(reference.points()[j].b));
    }
    const double rms = std::sqrt(sum_sq / double(reference.size()));
    // FastMath's contract: arc-RMS deviation of B below 1e-4 of the peak
    // flux density. The polynomial error itself is orders smaller; the
    // margin absorbs clamp-boundary flips on pathological parameter sets.
    EXPECT_LT(rms, 1e-4 * std::max(b_peak, 1.0))
        << "lane " << i << " rms " << rms << " b_peak " << b_peak;
  }
}

namespace {

/// A solver-like trajectory for trace tests: uneven strides over a lane's
/// sweep so consecutive accepted fields jump by anything from a fraction of
/// dhmax to several dhmax — exercising refresh-only rows, single-step
/// events, and the sub-step expansion in one sequence.
std::vector<double> trace_trajectory(const LaneSpec& lane, std::size_t seed) {
  std::vector<double> trajectory;
  const auto& h = lane.sweep.h;
  for (std::size_t j = 0; j < h.size();
       j += 1 + ((j + seed) % (5 + seed % 3)) * 8) {
    trajectory.push_back(h[j]);
  }
  return trajectory;
}

}  // namespace

TEST(TimelessJaBatch, TraceRowsReplayScalarApplyBitwise) {
  // The planner-trace contract: build_ja_trace unrolls TimelessJa::apply()
  // into rows (sub-steps included) and run_traces replays them — the exact
  // lane must reproduce the scalar model applying the same trajectory
  // sample by sample, bit for bit, including the stats (planned counters +
  // executed clamp counters).
  auto lanes = lane_fixtures();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    // Mix sub-step policies: the AMS default (substep_max = dhmax), a
    // custom coarser split, and plain single-step events.
    if (i % 3 == 0) lanes[i].config.substep_max = lanes[i].config.dhmax;
    if (i % 3 == 1) lanes[i].config.substep_max = 2.5 * lanes[i].config.dhmax;
  }

  std::vector<std::vector<double>> trajectories;
  std::vector<fm::JaTrace> traces;
  std::vector<fm::TimelessJaBatch::TraceView> views;
  fm::TimelessJaBatch batch;  // kExact
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    trajectories.push_back(trace_trajectory(lanes[i], i));
    traces.push_back(fm::build_ja_trace(trajectories.back(), lanes[i].config));
    // The trace already unrolled the sub-steps; the lane registers with the
    // kernel-subset config.
    fm::TimelessConfig lane_config = lanes[i].config;
    lane_config.substep_max = 0.0;
    batch.add_lane(lanes[i].params, lane_config);
  }
  for (const auto& t : traces) {
    views.push_back({t.h.data(), t.dh.data(), t.rows()});
  }
  std::vector<std::vector<fm::BhPoint>> points;
  batch.run_traces(views, points);

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto& trajectory = trajectories[i];
    fm::TimelessJa scalar(lanes[i].params, lanes[i].config);
    ASSERT_EQ(traces[i].record_rows.size(), trajectory.size() - 1);
    for (std::size_t s = 1; s < trajectory.size(); ++s) {
      scalar.apply(trajectory[s]);
      const auto& p = points[i][traces[i].record_rows[s - 1]];
      ASSERT_EQ(p.h, trajectory[s]) << "lane " << i << " sample " << s;
      ASSERT_EQ(p.m, scalar.magnetisation()) << "lane " << i << " sample " << s;
      ASSERT_EQ(p.b, scalar.flux_density()) << "lane " << i << " sample " << s;
    }
    EXPECT_EQ(batch.state(i).m_irr, scalar.state().m_irr) << "lane " << i;
    EXPECT_EQ(batch.state(i).m_total, scalar.state().m_total) << "lane " << i;
    EXPECT_EQ(batch.last_slope(i), scalar.last_slope()) << "lane " << i;

    fm::TimelessStats replayed = batch.stats(i);  // clamp counters
    replayed.samples = traces[i].planned.samples;
    replayed.field_events = traces[i].planned.field_events;
    replayed.integration_steps = traces[i].planned.integration_steps;
    expect_stats_eq(replayed, scalar.stats());
  }
}

TEST(TimelessJaBatch, TraceRowsBitwiseInvariantAcrossSimdWidths) {
  // The ragged-row masking contract for planner traces: FastMath lanes
  // replaying row programs of very different lengths — lanes masked out of
  // their vector groups as they finish — produce bitwise identical rows,
  // state, and clamp counters at every compiled width.
  auto lanes = lane_fixtures();
  while (lanes.size() < 11) lanes.push_back(lanes[lanes.size() % 3]);
  std::vector<std::vector<double>> trajectories;
  std::vector<fm::JaTrace> traces;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].config.substep_max = lanes[i].config.dhmax;  // the AMS default
    trajectories.push_back(trace_trajectory(lanes[i], i));
    // Stagger the row counts hard so vector groups always carry a ragged
    // masked tail.
    auto& trajectory = trajectories.back();
    trajectory.resize(trajectory.size() - trajectory.size() / (2 + i % 5));
    traces.push_back(fm::build_ja_trace(trajectory, lanes[i].config));
  }

  const auto run_at_width = [&](int width) {
    EXPECT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    fm::TimelessJaBatch batch(fm::BatchMath::kFast);
    std::vector<fm::TimelessJaBatch::TraceView> views;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      fm::TimelessConfig lane_config = lanes[i].config;
      lane_config.substep_max = 0.0;
      batch.add_lane(lanes[i].params, lane_config);
      views.push_back({traces[i].h.data(), traces[i].dh.data(),
                       traces[i].rows()});
    }
    std::vector<std::vector<fm::BhPoint>> points;
    batch.run_traces(views, points);
    return std::make_pair(std::move(points), std::move(batch));
  };

  const auto widths = fm::TimelessJaBatch::available_simd_widths();
  auto [ref_points, ref_batch] = run_at_width(widths.front());
  for (std::size_t k = 1; k < widths.size(); ++k) {
    auto [points, batch] = run_at_width(widths[k]);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      ASSERT_EQ(points[i].size(), ref_points[i].size())
          << "width " << widths[k] << " lane " << i;
      for (std::size_t j = 0; j < points[i].size(); ++j) {
        ASSERT_EQ(points[i][j].h, ref_points[i][j].h)
            << "width " << widths[k] << " lane " << i << " row " << j;
        ASSERT_EQ(points[i][j].m, ref_points[i][j].m)
            << "width " << widths[k] << " lane " << i << " row " << j;
        ASSERT_EQ(points[i][j].b, ref_points[i][j].b)
            << "width " << widths[k] << " lane " << i << " row " << j;
      }
      EXPECT_EQ(batch.state(i).m_irr, ref_batch.state(i).m_irr);
      EXPECT_EQ(batch.state(i).m_total, ref_batch.state(i).m_total);
      EXPECT_EQ(batch.last_slope(i), ref_batch.last_slope(i));
      EXPECT_EQ(batch.stats(i).slope_clamps, ref_batch.stats(i).slope_clamps);
      EXPECT_EQ(batch.stats(i).direction_clamps,
                ref_batch.stats(i).direction_clamps);
    }
  }
  fm::TimelessJaBatch::force_simd_width(0);
}

// ---------------------------------------------------------------------------
// Storage reuse: run()/run_traces() write into whatever the containers hold
// ---------------------------------------------------------------------------

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// What a recycled container may hold before a run: nothing, points past
/// the lane's length, a stub shorter than it, or NaN points of exactly its
/// length. Extra trailing containers stand in for a longer previous block.
enum class Prefill { kEmpty, kLonger, kShorter, kNaN };

std::vector<fm::BhPoint> prefilled(Prefill fill, std::size_t len) {
  const fm::BhPoint garbage{kNaN, -1.0, kNaN};
  switch (fill) {
    case Prefill::kEmpty: return {};
    case Prefill::kLonger: return std::vector<fm::BhPoint>(len + 37, garbage);
    case Prefill::kShorter: return std::vector<fm::BhPoint>(len / 3, garbage);
    case Prefill::kNaN:
      return std::vector<fm::BhPoint>(len, {kNaN, kNaN, kNaN});
  }
  return {};
}

void expect_points_bitwise(const std::vector<fm::BhPoint>& a,
                           const std::vector<fm::BhPoint>& b,
                           const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(std::memcmp(&a[j], &b[j], sizeof(fm::BhPoint)), 0)
        << where << " point " << j;
  }
}

/// Lane fixtures made ragged (every lane a different length) plus one
/// zero-length lane in the middle of a vector group.
std::vector<LaneSpec> ragged_fixtures() {
  auto lanes = lane_fixtures();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    auto& h = lanes[i].sweep.h;
    h.resize(h.size() - h.size() / (3 + i));
  }
  lanes[2].sweep.h.clear();
  return lanes;
}

}  // namespace

TEST(TimelessJaBatch, RunRecordsIntoReusedCurvesBitwise) {
  const auto lanes = ragged_fixtures();
  std::vector<const fw::HSweep*> sweeps;
  for (const auto& lane : lanes) sweeps.push_back(&lane.sweep);

  for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
    const auto run_with = [&](Prefill fill, std::size_t extra) {
      fm::TimelessJaBatch batch(math);
      for (const auto& lane : lanes) batch.add_lane(lane.params, lane.config);
      std::vector<fm::BhCurve> curves;
      for (const auto& lane : lanes) {
        curves.emplace_back(prefilled(fill, lane.sweep.size()));
      }
      for (std::size_t k = 0; k < extra; ++k) {
        curves.emplace_back(prefilled(Prefill::kLonger, 100));
      }
      batch.run(sweeps, curves);
      return std::make_pair(std::move(curves), std::move(batch));
    };

    auto [ref_curves, ref_batch] = run_with(Prefill::kEmpty, 0);
    for (const auto fill :
         {Prefill::kLonger, Prefill::kShorter, Prefill::kNaN}) {
      for (const std::size_t extra : {0u, 3u}) {
        auto [curves, batch] = run_with(fill, extra);
        ASSERT_EQ(curves.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
          const std::string where = std::string(fm::to_string(math)) +
                                    " fill " +
                                    std::to_string(static_cast<int>(fill)) +
                                    " lane " + std::to_string(i);
          EXPECT_EQ(curves[i].size(), lanes[i].sweep.size()) << where;
          expect_points_bitwise(curves[i].points(), ref_curves[i].points(),
                                where);
          expect_stats_eq(batch.stats(i), ref_batch.stats(i));
        }
      }
    }
  }
}

TEST(TimelessJaBatch, RunTracesRecordsIntoReusedRowsBitwise) {
  auto lanes = ragged_fixtures();
  std::vector<fm::JaTrace> traces;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].config.substep_max = lanes[i].config.dhmax;  // the AMS default
    traces.push_back(fm::build_ja_trace(
        i == 2 ? std::vector<double>{} : trace_trajectory(lanes[i], i),
        lanes[i].config));
  }
  ASSERT_EQ(traces[2].rows(), 0u);  // the zero-length lane

  for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
    const auto run_with = [&](Prefill fill, std::size_t extra) {
      fm::TimelessJaBatch batch(math);
      std::vector<fm::TimelessJaBatch::TraceView> views;
      std::vector<std::vector<fm::BhPoint>> points;
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        fm::TimelessConfig lane_config = lanes[i].config;
        lane_config.substep_max = 0.0;
        batch.add_lane(lanes[i].params, lane_config);
        views.push_back(
            {traces[i].h.data(), traces[i].dh.data(), traces[i].rows()});
        points.push_back(prefilled(fill, traces[i].rows()));
      }
      for (std::size_t k = 0; k < extra; ++k) {
        points.push_back(prefilled(Prefill::kLonger, 100));
      }
      batch.run_traces(views, points);
      return std::make_pair(std::move(points), std::move(batch));
    };

    auto [ref_points, ref_batch] = run_with(Prefill::kEmpty, 0);
    for (const auto fill :
         {Prefill::kLonger, Prefill::kShorter, Prefill::kNaN}) {
      for (const std::size_t extra : {0u, 3u}) {
        auto [points, batch] = run_with(fill, extra);
        ASSERT_EQ(points.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
          const std::string where = std::string(fm::to_string(math)) +
                                    " fill " +
                                    std::to_string(static_cast<int>(fill)) +
                                    " lane " + std::to_string(i);
          EXPECT_EQ(points[i].size(), traces[i].rows()) << where;
          expect_points_bitwise(points[i], ref_points[i], where);
          expect_stats_eq(batch.stats(i), ref_batch.stats(i));
        }
      }
    }
  }
}
