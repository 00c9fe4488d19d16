// Tests for TimelessJa — the paper's timeless discretisation of dM/dH.
#include <gtest/gtest.h>

#include <cmath>

#include "mag/bh.hpp"
#include "mag/timeless_ja.hpp"
#include "support/fixtures.hpp"
#include "util/constants.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;

using ferro::testsupport::major_loop;
using ferro::testsupport::paper_config;

TEST(TimelessJa, VirginStateIsDemagnetised) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  EXPECT_DOUBLE_EQ(ja.magnetisation(), 0.0);
  EXPECT_DOUBLE_EQ(ja.flux_density(), 0.0);
  EXPECT_DOUBLE_EQ(ja.state().m_irr, 0.0);
  EXPECT_DOUBLE_EQ(ja.state().anchor_h, 0.0);
}

TEST(TimelessJa, NoEventBelowThreshold) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  ja.apply(10.0);  // below dhmax = 25
  ja.apply(20.0);
  EXPECT_EQ(ja.stats().field_events, 0u);
  EXPECT_EQ(ja.stats().samples, 2u);
  // The algebraic (reversible) part still responds.
  EXPECT_GT(ja.magnetisation(), 0.0);
}

TEST(TimelessJa, EventFiresAboveThreshold) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  ja.apply(30.0);
  EXPECT_EQ(ja.stats().field_events, 1u);
  EXPECT_EQ(ja.stats().integration_steps, 1u);
  EXPECT_GT(ja.state().m_irr, 0.0);
  EXPECT_DOUBLE_EQ(ja.state().anchor_h, 30.0);
}

TEST(TimelessJa, EventAccumulatesAcrossSmallSamples) {
  // Three 10 A/m samples: the third crosses the 25 A/m threshold and the
  // event spans the full accumulated 30 A/m.
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  ja.apply(10.0);
  ja.apply(20.0);
  EXPECT_EQ(ja.stats().field_events, 0u);
  ja.apply(30.0);
  EXPECT_EQ(ja.stats().field_events, 1u);
  EXPECT_DOUBLE_EQ(ja.state().anchor_h, 30.0);
}

TEST(TimelessJa, FluxDensityDefinition) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  ja.apply(5000.0);
  const double b = ja.flux_density();
  EXPECT_NEAR(b, ferro::util::kMu0 * (ja.magnetisation() + 5000.0), 1e-15);
}

TEST(TimelessJa, MagnetisationBoundedByMsat) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  for (const double h : major_loop().h) {
    ja.apply(h);
    EXPECT_LE(std::fabs(ja.state().m_total), 1.0);
  }
}

TEST(TimelessJa, SlopeClampsFireAfterReversal) {
  // Right after a turning point the listing's denominator goes negative
  // (delta*k flips sign while Man-M is still large) — the clamp must fire.
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  for (const double h : major_loop().h) ja.apply(h);
  EXPECT_GT(ja.stats().slope_clamps, 0u);
}

TEST(TimelessJa, EulerNeverTripsDirectionClamp) {
  // With the slope clamp active, Forward Euler's dm always has dh's sign.
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  for (const double h : major_loop().h) ja.apply(h);
  EXPECT_EQ(ja.stats().direction_clamps, 0u);
}

TEST(TimelessJa, LastSlopeNonNegative) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  for (const double h : major_loop().h) {
    ja.apply(h);
    EXPECT_GE(ja.last_slope(), 0.0);
  }
}

TEST(TimelessJa, HysteresisProducesRemanence) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  // Saturate positive, come back to zero field.
  fw::SweepBuilder b(10.0);
  b.to(10e3).to(0.0);
  for (const double h : b.build().h) ja.apply(h);
  EXPECT_GT(ja.flux_density(), 0.5);  // remanent flux stays
}

TEST(TimelessJa, RisingAndFallingBranchesDiffer) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  double b_rising_at_zero = 0.0;
  double b_falling_at_zero = 0.0;
  // One full cycle sampled finely; capture B at H~0 on both branches.
  const fw::HSweep sweep = major_loop(5.0, 1);
  double prev_h = 0.0;
  for (const double h : sweep.h) {
    ja.apply(h);
    if (std::fabs(h) < 2.6) {
      if (h >= prev_h) {
        b_rising_at_zero = ja.flux_density();
      } else {
        b_falling_at_zero = ja.flux_density();
      }
    }
    prev_h = h;
  }
  EXPECT_GT(b_falling_at_zero, 0.3);   // +Br on the way down
  EXPECT_LT(b_rising_at_zero, -0.3);   // -Br on the way up
}

TEST(TimelessJa, LoopClosesAfterCycling) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  const fw::HSweep one_cycle = fw::SweepBuilder(10.0).cycles(10e3, 1).build();
  for (const double h : one_cycle.h) ja.apply(h);
  const double b_end_cycle1 = ja.flux_density();
  // Second identical cycle from +10k: -10k then back to +10k.
  fw::SweepBuilder second(10.0, 10e3);
  second.to(-10e3).to(10e3);
  for (const double h : second.build().h) ja.apply(h);
  const double b_end_cycle2 = ja.flux_density();
  EXPECT_NEAR(b_end_cycle1, b_end_cycle2, 1e-3);
}

TEST(TimelessJa, ResetRestoresVirginState) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  for (const double h : major_loop().h) ja.apply(h);
  ja.reset();
  EXPECT_DOUBLE_EQ(ja.magnetisation(), 0.0);
  EXPECT_EQ(ja.stats().samples, 0u);
  EXPECT_DOUBLE_EQ(ja.state().anchor_h, 0.0);
}

TEST(TimelessJa, SetStateRoundTrip) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  for (const double h : major_loop().h) ja.apply(h);
  const fm::TimelessState saved = ja.state();
  const double b_saved = ja.flux_density();

  fm::TimelessJa other(fm::paper_parameters(), paper_config());
  other.set_state(saved);
  EXPECT_DOUBLE_EQ(other.flux_density(), b_saved);
  EXPECT_DOUBLE_EQ(other.state().m_irr, saved.m_irr);
}

TEST(TimelessJa, CopyIsIndependent) {
  fm::TimelessJa ja(fm::paper_parameters(), paper_config());
  ja.apply(5000.0);
  fm::TimelessJa copy = ja;
  copy.apply(8000.0);
  EXPECT_DOUBLE_EQ(ja.state().present_h, 5000.0);
  EXPECT_DOUBLE_EQ(copy.state().present_h, 8000.0);
  EXPECT_NE(copy.magnetisation(), ja.magnetisation());
}

TEST(TimelessJa, SmallerDhmaxConvergesToReference) {
  // The event threshold is the discretisation control: shrinking it must
  // reduce the deviation from a near-continuous reference, one event per
  // 1 A/m sample (ABL1 property).
  const fw::HSweep sweep = major_loop(1.0, 1);

  fm::TimelessConfig ref_cfg;
  ref_cfg.dhmax = 1e-3;
  const fm::BhCurve ref_curve =
      ferro::testsupport::run_timeless(fm::paper_parameters(), ref_cfg, sweep);

  const auto error_with = [&](double dhmax) {
    fm::TimelessConfig cfg;
    cfg.dhmax = dhmax;
    const fm::BhCurve curve =
        ferro::testsupport::run_timeless(fm::paper_parameters(), cfg, sweep);
    return ferro::testsupport::max_b_deviation(curve, ref_curve);
  };

  const double e_coarse = error_with(200.0);
  const double e_mid = error_with(50.0);
  const double e_fine = error_with(10.0);
  EXPECT_LT(e_mid, e_coarse);
  EXPECT_LT(e_fine, e_mid);
}

TEST(TimelessJa, SubsteppingImprovesCoarseEvents) {
  // One coarse event (500 A/m) integrated in 10 sub-steps must land nearer
  // the fine-grained trajectory than a single Euler step.
  const fw::HSweep sweep = fw::SweepBuilder(500.0).to(10e3).build();

  fm::TimelessConfig fine_cfg;
  fine_cfg.dhmax = 1.0;
  fm::TimelessJa fine(fm::paper_parameters(), fine_cfg);
  const fw::HSweep fine_sweep = fw::SweepBuilder(1.0).to(10e3).build();
  for (const double h : fine_sweep.h) fine.apply(h);

  fm::TimelessConfig coarse_cfg;
  coarse_cfg.dhmax = 400.0;
  fm::TimelessJa coarse(fm::paper_parameters(), coarse_cfg);
  for (const double h : sweep.h) coarse.apply(h);

  fm::TimelessConfig sub_cfg = coarse_cfg;
  sub_cfg.substep_max = 50.0;
  fm::TimelessJa sub(fm::paper_parameters(), sub_cfg);
  for (const double h : sweep.h) sub.apply(h);

  const double err_coarse = std::fabs(coarse.magnetisation() - fine.magnetisation());
  const double err_sub = std::fabs(sub.magnetisation() - fine.magnetisation());
  EXPECT_LT(err_sub, err_coarse);
  EXPECT_GT(sub.stats().integration_steps, coarse.stats().integration_steps);
}

TEST(TimelessJa, UnclampedModelCanGoNonPhysical) {
  // With clamping off, the paper parameters (alpha*Ms = 4800 > k = 4000)
  // produce negative slopes — the CLM5 regime the clamp exists for.
  fm::TimelessConfig cfg = paper_config();
  cfg.clamp_negative_slope = false;
  cfg.clamp_direction = false;
  fm::TimelessJa ja(fm::paper_parameters(), cfg);
  bool saw_negative = false;
  double prev_b = 0.0;
  double prev_h = 0.0;
  bool first = true;
  for (const double h : major_loop(5.0, 1).h) {
    ja.apply(h);
    const double b = ja.flux_density();
    if (!first) {
      const double dh = h - prev_h;
      if (dh != 0.0 && (b - prev_b) / dh < -1e-9) saw_negative = true;
    }
    prev_b = b;
    prev_h = h;
    first = false;
  }
  EXPECT_TRUE(saw_negative);
}

TEST(BhCurve, AccessorsAndCsv) {
  fm::BhCurve curve;
  curve.append(1.0, 2.0, 3.0);
  curve.append({4.0, 5.0, 6.0});
  EXPECT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.h_values()[1], 4.0);
  EXPECT_DOUBLE_EQ(curve.m_values()[0], 2.0);
  EXPECT_DOUBLE_EQ(curve.b_values()[1], 6.0);
  EXPECT_TRUE(curve.write_csv("test_bh_curve.csv"));
  std::remove("test_bh_curve.csv");
}

TEST(CoreGeometry, Conversions) {
  fm::CoreGeometry geom;
  geom.area = 2e-4;
  geom.path_length = 0.2;
  geom.turns = 50;
  EXPECT_DOUBLE_EQ(geom.field_from_current(2.0), 500.0);
  EXPECT_DOUBLE_EQ(geom.current_from_field(500.0), 2.0);
  EXPECT_DOUBLE_EQ(geom.flux_from_b(1.5), 3e-4);
  EXPECT_DOUBLE_EQ(geom.linkage_from_b(1.5), 1.5e-2);
}
