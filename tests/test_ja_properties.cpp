// Property sweeps (TEST_P) across materials and discretisation settings:
// the invariants every physically sane hysteresis model must satisfy, and
// that the timeless discretisation claims to guarantee numerically.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "analysis/loop_metrics.hpp"
#include "analysis/stability.hpp"
#include "core/dc_sweep.hpp"
#include "mag/bh.hpp"
#include "mag/timeless_ja.hpp"
#include "util/constants.hpp"
#include "support/fixtures.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fc = ferro::core;

using ferro::testsupport::saturation_amplitude;

// ---------------------------------------------------------------------------
// Sweep over (material, dhmax): core physical invariants.
// ---------------------------------------------------------------------------

class MaterialDhmax
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {
 protected:
  [[nodiscard]] fm::JaParameters params() const {
    const auto* mat = fm::find_material(std::get<0>(GetParam()));
    EXPECT_NE(mat, nullptr);
    return mat->params;
  }
  [[nodiscard]] fm::TimelessConfig config() const {
    fm::TimelessConfig c;
    c.dhmax = std::get<1>(GetParam()) * (params().a + params().k) / 6000.0;
    if (c.dhmax <= 0.0) c.dhmax = 1.0;
    return c;
  }
  [[nodiscard]] fm::BhCurve run_major(int cycles = 2) const {
    const double amp = saturation_amplitude(params());
    const fw::HSweep sweep =
        fw::SweepBuilder(amp / 2000.0).cycles(amp, cycles).build();
    fm::TimelessJa ja(params(), config());
    return fm::run_sweep(ja, sweep);
  }
};

TEST_P(MaterialDhmax, MagnetisationNeverExceedsSaturation) {
  const fm::BhCurve curve = run_major();
  const double ms = params().ms;
  for (const auto& p : curve.points()) {
    EXPECT_LE(std::fabs(p.m), ms * (1.0 + 1e-9));
  }
}

TEST_P(MaterialDhmax, NoNegativeBhSlopes) {
  const fm::BhCurve curve = run_major();
  const fa::SlopeReport report = fa::scan_slopes(curve, 1e-12, 1e-9);
  EXPECT_EQ(report.negative_segments, 0u)
      << "most negative slope: " << report.most_negative;
}

TEST_P(MaterialDhmax, RemanenceAndCoercivityPositive) {
  const fm::BhCurve curve = run_major();
  const std::size_t n = curve.size();
  // Analyse the final full cycle only (loop has converged by then).
  const fa::LoopMetrics metrics = fa::analyze_loop(curve, n / 2, n - 1);
  EXPECT_GT(metrics.remanence, 0.0);
  EXPECT_GT(metrics.coercivity, 0.0);
  EXPECT_GT(metrics.area, 0.0);
}

TEST_P(MaterialDhmax, CoercivityBelowPeakField) {
  const fm::BhCurve curve = run_major();
  const fa::LoopMetrics metrics = fa::analyze_loop(curve);
  EXPECT_LT(metrics.coercivity, metrics.h_peak);
}

TEST_P(MaterialDhmax, LoopIsOddSymmetricAfterCycling) {
  const fm::BhCurve curve = run_major(3);
  const std::size_t n = curve.size();
  const fa::LoopMetrics metrics = fa::analyze_loop(curve, 2 * n / 3, n - 1);
  // Positive and negative remanence magnitudes agree within 5 % once the
  // loop has converged (virgin-curve asymmetry has decayed).
  std::vector<double> h, b;
  for (std::size_t i = 2 * n / 3; i < n; ++i) {
    h.push_back(curve.points()[i].h);
    b.push_back(curve.points()[i].b);
  }
  const auto remanences = fa::values_at_zero_of(h, b);
  ASSERT_GE(remanences.size(), 2u);
  double pos = 0.0, neg = 0.0;
  for (const double r : remanences) {
    if (r > 0.0) pos = std::max(pos, r);
    if (r < 0.0) neg = std::min(neg, r);
  }
  ASSERT_GT(pos, 0.0);
  ASSERT_LT(neg, 0.0);
  EXPECT_NEAR(pos, -neg, 0.05 * pos);
}

TEST_P(MaterialDhmax, StatsConsistent) {
  const fm::JaParameters p = params();
  const fm::TimelessConfig c = config();
  const double amp = saturation_amplitude(p);
  const fw::HSweep sweep = fw::SweepBuilder(amp / 2000.0).cycles(amp, 2).build();
  fm::TimelessJa ja(p, c);
  for (const double h : sweep.h) ja.apply(h);
  const fm::TimelessStats& st = ja.stats();
  EXPECT_EQ(st.samples, sweep.h.size());
  EXPECT_LE(st.field_events, st.samples);
  EXPECT_GE(st.integration_steps, st.field_events);
  EXPECT_GT(st.field_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Materials, MaterialDhmax,
    ::testing::Combine(::testing::Values("paper-2006", "paper-2006-dual",
                                         "ja-1984-steel", "soft-ferrite",
                                         "grain-oriented-si", "hard-steel"),
                       ::testing::Values(5.0, 25.0, 100.0)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_dh" + std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Virgin curve and loop closure of the paper's configuration.
// ---------------------------------------------------------------------------

TEST(VirginAndClosure, BoundedAndMonotoneOnVirginCurve) {
  fm::TimelessConfig cfg;
  cfg.dhmax = 25.0;
  fm::TimelessJa ja(fm::paper_parameters(), cfg);
  double prev_m = 0.0;
  for (double h = 0.0; h <= 10e3; h += 10.0) {
    ja.apply(h);
    EXPECT_GE(ja.state().m_total, prev_m - 1e-12);  // virgin curve rises
    EXPECT_LE(std::fabs(ja.state().m_total), 1.0);
    prev_m = ja.state().m_total;
  }
}

TEST(VirginAndClosure, LoopClosesWithinTolerance) {
  fm::TimelessConfig cfg;
  cfg.dhmax = 25.0;
  fm::TimelessJa ja(fm::paper_parameters(), cfg);
  const fw::HSweep sweep = fw::SweepBuilder(10.0).cycles(10e3, 1).build();
  for (const double h : sweep.h) ja.apply(h);
  const double b1 = ja.flux_density();
  fw::SweepBuilder second(10.0, 10e3);
  second.to(-10e3).to(10e3);
  for (const double h : second.build().h) ja.apply(h);
  EXPECT_NEAR(ja.flux_density(), b1, 2e-3);
}

// ---------------------------------------------------------------------------
// Minor-loop properties (CLM1): sizes x biases, all contained and closed.
// ---------------------------------------------------------------------------

class MinorLoops
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MinorLoops, ContainedBoundedAndAccommodating) {
  const double half_width = std::get<0>(GetParam());
  const double bias = std::get<1>(GetParam());

  const fm::JaParameters params = fm::paper_parameters();
  fm::TimelessConfig cfg;
  cfg.dhmax = 10.0;

  // Major loop envelope (converged second cycle).
  const fw::HSweep major = fw::SweepBuilder(5.0).cycles(10e3, 2).build();
  const fm::BhCurve major_curve = fc::run_dc_sweep(params, cfg, major).curve;

  // Minor loops after major-loop initialisation on a fresh model. Classic
  // JA does not close minor loops exactly (accommodation drift); the
  // paper's claim is *numerical* robustness at every size and position, so
  // we assert: finiteness, containment, and per-cycle drift that shrinks.
  fm::TimelessJa ja(params, cfg);
  for (const double h : major.h) ja.apply(h);
  fw::SweepBuilder mb(5.0, 10e3);
  mb.to(bias + half_width);
  mb.minor_loop(bias, half_width, 6);
  const fm::BhCurve minor_curve = fm::run_sweep(ja, mb.build());

  for (const auto& p : minor_curve.points()) {
    ASSERT_TRUE(std::isfinite(p.b));
    ASSERT_LE(std::fabs(p.m), params.ms * (1.0 + 1e-9));
  }

  // Containment: strict in the mid-loop region; near the loop tips classic
  // JA accommodation is known to let minor loops creep slightly past the
  // major branch (a model property, not a numerical failure), so a bounded
  // escape of 0.2 T is accepted there.
  const double tol_b = std::fabs(bias) > 4000.0 ? 0.2 : 2e-2;
  EXPECT_TRUE(fa::within_major_envelope(minor_curve, major_curve, tol_b))
      << "half_width=" << half_width << " bias=" << bias;

  // Accommodation: drift between successive visits of the loop top shrinks.
  std::vector<double> tops;
  for (const auto& p : minor_curve.points()) {
    if (std::fabs(p.h - (bias + half_width)) < 1e-9) tops.push_back(p.b);
  }
  ASSERT_GE(tops.size(), 4u);
  const double first_drift = std::fabs(tops[1] - tops[0]);
  const double last_drift = std::fabs(tops.back() - tops[tops.size() - 2]);
  EXPECT_LE(last_drift, first_drift * 1.05 + 1e-12)
      << "half_width=" << half_width << " bias=" << bias;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBiases, MinorLoops,
    ::testing::Combine(::testing::Values(500.0, 1000.0, 2000.0, 4000.0),
                       ::testing::Values(-5000.0, -2000.0, 0.0, 2000.0,
                                         5000.0)),
    [](const auto& info) {
      const auto hw = static_cast<int>(std::get<0>(info.param));
      const int bias = static_cast<int>(std::get<1>(info.param));
      return "hw" + std::to_string(hw) + "_bias" +
             (bias < 0 ? "m" + std::to_string(-bias) : std::to_string(bias));
    });
