// EnergyBased unit tests: the analytic play-operator staircase (single-cell
// closed forms), the pinning-dissipation bookkeeping (including the
// loop-area identity a dissipation functional must satisfy), the dynamic
// excess-loss term, parameter validation, and the committed golden curve
// (tests/support/gen_energy_golden.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/curve_compare.hpp"
#include "analysis/loop_metrics.hpp"
#include "mag/anhysteretic.hpp"
#include "mag/bh.hpp"
#include "mag/energy_based.hpp"
#include "mag/energy_based_batch.hpp"
#include "support/fixtures.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fu = ferro::util;
namespace ts = ferro::testsupport;

namespace {

/// One play cell carrying the whole hysteretic branch: kappa_0 = kappa_max,
/// omega_0 = 1 - c_rev. Every state is a closed form, which is what makes
/// the staircase assertions below analytic instead of golden.
fm::EnergyBasedParams single_cell() {
  fm::EnergyBasedParams p = fm::energy_reference_parameters();
  p.cells = 1;
  return p;
}

}  // namespace

TEST(EnergyValidate, ReferenceParametersAreValid) {
  EXPECT_TRUE(fm::energy_reference_parameters().is_valid());
  EXPECT_TRUE(fm::EnergyBasedParams{}.is_valid());
}

TEST(EnergyValidate, RejectsDegenerateParameters) {
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.cells = 0;
    EXPECT_FALSE(p.is_valid());
  }
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.kappa_max = -1.0;
    EXPECT_FALSE(p.is_valid());
  }
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.c_rev = 1.0;  // the reversible branch may not carry everything
    EXPECT_FALSE(p.is_valid());
  }
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.tau_dyn = -1e-6;
    EXPECT_FALSE(p.is_valid());
  }
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.ms = std::nan("");
    EXPECT_FALSE(p.is_valid());
  }
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.kind = fm::AnhystereticKind::kDualAtan;
    p.blend = 2.0;
    EXPECT_FALSE(p.is_valid());
  }
  {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.pinning_decay = -0.5;
    EXPECT_FALSE(p.is_valid());
  }
}

TEST(EnergyPlay, CellStaysPinnedBelowThreshold) {
  // |h| <= kappa: the cell never yields, so the response is purely the
  // reversible branch c_rev * man(h).
  const fm::EnergyBasedParams p = single_cell();
  fm::EnergyBased model(p);
  const fm::Anhysteretic an(p.kind, p.a, p.a2, p.blend);

  const double h = 0.5 * p.kappa_max;
  const double m = model.apply(h);
  EXPECT_DOUBLE_EQ(m, p.c_rev * an.man(h));
  EXPECT_EQ(model.stats().cell_updates, 0u);
  EXPECT_EQ(model.stats().pinned_samples, 1u);
  EXPECT_DOUBLE_EQ(model.state().xi[0], 0.0);
  EXPECT_DOUBLE_EQ(model.stats().dissipated_energy, 0.0);
}

TEST(EnergyPlay, YieldFollowsFieldMinusKappa) {
  // h > kappa drags the play state to xi = h - kappa; the magnetisation is
  // the closed-form superposition of both branches.
  const fm::EnergyBasedParams p = single_cell();
  fm::EnergyBased model(p);
  const fm::Anhysteretic an(p.kind, p.a, p.a2, p.blend);

  const double h = 2.0 * p.kappa_max;
  const double m = model.apply(h);
  EXPECT_DOUBLE_EQ(model.state().xi[0], h - p.kappa_max);
  EXPECT_DOUBLE_EQ(
      m, p.c_rev * an.man(h) + (1.0 - p.c_rev) * an.man(h - p.kappa_max));
  EXPECT_EQ(model.stats().cell_updates, 1u);

  // Reversal: the cell re-pins until the field has dropped 2*kappa below
  // the turning point, then follows h + kappa on the way down — the
  // staircase's descending tread.
  const double xi_turn = model.state().xi[0];
  model.apply(h - p.kappa_max);  // still inside the dead zone
  EXPECT_DOUBLE_EQ(model.state().xi[0], xi_turn);
  const double h_down = h - 3.0 * p.kappa_max;
  model.apply(h_down);  // past the dead zone: yields downward
  EXPECT_DOUBLE_EQ(model.state().xi[0], h_down + p.kappa_max);
}

TEST(EnergyPlay, DissipationAccountsEveryYieldExactly) {
  const fm::EnergyBasedParams p = single_cell();
  fm::EnergyBased model(p);
  const fm::Anhysteretic an(p.kind, p.a, p.a2, p.blend);
  const double omega = 1.0 - p.c_rev;

  // First yield: xi moves 0 -> kappa, dM_0 = ms * omega * (man(kappa) - 0).
  model.apply(2.0 * p.kappa_max);
  const double expected =
      fu::kMu0 * p.ms * p.kappa_max * omega * an.man(p.kappa_max);
  EXPECT_DOUBLE_EQ(model.stats().dissipated_energy, expected);

  // A pinned sample adds nothing.
  model.apply(1.5 * p.kappa_max);
  EXPECT_DOUBLE_EQ(model.stats().dissipated_energy, expected);
}

TEST(EnergyPlay, SteadyStateLoopAreaEqualsPinningDissipation) {
  // The defining property of a dissipation functional: over one closed
  // cycle in steady state, the BH loop area (J/m^3 per cycle) equals the
  // pinning energy the model accounted — measured, not inferred.
  const fm::EnergyBasedParams p = fm::energy_reference_parameters();
  fm::EnergyBased model(p);
  const double step = 5.0;
  const double amplitude = 10e3;
  const ferro::wave::HSweep sweep =
      ferro::wave::SweepBuilder(step).cycles(amplitude, 3).build();

  // A closed steady-state contour: the sweep ends at +A, so the window
  // [n - 1 - 2*leg, n - 1] is exactly the last +A -> -A -> +A cycle.
  const auto leg = static_cast<std::size_t>(std::lround(2.0 * amplitude / step));
  const std::size_t begin = sweep.size() - 1 - 2 * leg;
  fm::BhCurve curve;
  double diss_before = 0.0;
  for (std::size_t i = 0; i < sweep.h.size(); ++i) {
    model.apply(sweep.h[i]);
    if (i == begin) diss_before = model.stats().dissipated_energy;
    curve.append(sweep.h[i], model.magnetisation(), model.flux_density());
  }
  const double diss_cycle = model.stats().dissipated_energy - diss_before;
  const fa::LoopMetrics metrics =
      fa::analyze_loop(curve, begin, sweep.size() - 1);
  ASSERT_GT(metrics.area, 0.0);
  EXPECT_NEAR(diss_cycle / metrics.area, 1.0, 0.02);
}

TEST(EnergyPlay, MagnetisationStaysNormalised) {
  const fm::EnergyBasedParams p = fm::energy_reference_parameters();
  fm::EnergyBased model(p);
  for (const double h : {1e5, -1e5, 1e7, -1e7}) {
    const double m = model.apply(h);
    EXPECT_LE(std::fabs(m), 1.0);
    EXPECT_LE(std::fabs(model.magnetisation()), p.ms);
  }
}

TEST(EnergyDynamic, TauZeroTimeAwareApplyIsBitwiseQuasiStatic) {
  const fm::EnergyBasedParams p = fm::energy_reference_parameters();
  fm::EnergyBased timed(p);
  fm::EnergyBased plain(p);
  const ferro::wave::HSweep sweep = ts::major_loop(25.0, 1);
  for (const double h : sweep.h) {
    EXPECT_EQ(timed.apply(h, 1e-4), plain.apply(h));
  }
  EXPECT_EQ(timed.stats().dissipated_energy, plain.stats().dissipated_energy);
}

TEST(EnergyDynamic, ExcessLossTermWidensTheLoop) {
  // Moll et al.'s rate-dependent term: with tau_dyn > 0 the cells see a
  // lagged field, so the same excitation traced faster dissipates more.
  fm::EnergyBasedParams p = fm::energy_reference_parameters();
  p.tau_dyn = 2e-3;
  fm::EnergyBased dynamic(p);
  fm::EnergyBased quasi(fm::energy_reference_parameters());

  const ferro::wave::HSweep sweep =
      ferro::wave::SweepBuilder(25.0).cycles(10e3, 2).build();
  const double dt = 1e-5;  // a fast ramp: rate matters
  fm::BhCurve curve_dyn;
  fm::BhCurve curve_qs;
  for (const double h : sweep.h) {
    dynamic.apply(h, dt);
    curve_dyn.append(h, dynamic.magnetisation(), dynamic.flux_density());
    quasi.apply(h);
    curve_qs.append(h, quasi.magnetisation(), quasi.flux_density());
  }
  const std::size_t n = curve_dyn.size();
  const double area_dyn = fa::analyze_loop(curve_dyn, n / 2, n - 1).area;
  const double area_qs = fa::analyze_loop(curve_qs, n / 2, n - 1).area;
  EXPECT_GT(area_dyn, area_qs * 1.01);
}

// ---------------------------------------------------------------------------
// Golden artefact: tests/data/energy_staircase.csv
// ---------------------------------------------------------------------------

namespace {

fm::BhCurve load_golden() {
  const fu::CsvTable table = fu::read_csv(ts::data_path("energy_staircase.csv"));
  fm::BhCurve curve;
  const int ih = table.column_index("h");
  const int im = table.column_index("m");
  const int ib = table.column_index("b");
  EXPECT_GE(ih, 0);
  EXPECT_GE(im, 0);
  EXPECT_GE(ib, 0);
  if (ih < 0 || im < 0 || ib < 0) return curve;
  for (const auto& row : table.rows) {
    curve.append(row[static_cast<std::size_t>(ih)],
                 row[static_cast<std::size_t>(im)],
                 row[static_cast<std::size_t>(ib)]);
  }
  return curve;
}

fm::BhCurve regenerate() {
  fm::EnergyBased model(fm::energy_reference_parameters());
  return fm::run_sweep(model, ts::major_loop(10.0, 2));
}

}  // namespace

TEST(EnergyGolden, CommittedFileLoads) {
  const fm::BhCurve golden = load_golden();
  ASSERT_GT(golden.size(), 1000u)
      << "tests/data/energy_staircase.csv missing or truncated — regenerate "
         "with ./build/gen_energy_golden";
}

TEST(EnergyGolden, ModelReproducesCommittedCurve) {
  const fm::BhCurve golden = load_golden();
  ASSERT_GT(golden.size(), 0u);
  const fm::BhCurve live = regenerate();
  ASSERT_EQ(live.size(), golden.size());

  const fa::CurveDelta d = fa::compare_pointwise(live, golden);
  // Only the CSV's 12-significant-digit rounding should separate them.
  EXPECT_LT(d.rms_b, 1e-6);
  EXPECT_LT(d.max_b, 1e-5);
  EXPECT_LT(d.rms_m, 1.0);
}

TEST(EnergyGolden, CommittedCurveIsAHysteresisLoop) {
  // Tie the artefact itself to the physics, so a silently
  // regenerated-but-wrong golden cannot pass: a real loop of the reference
  // material, comparable in width/saturation to the JA pairing.
  const fm::BhCurve golden = load_golden();
  ASSERT_GT(golden.size(), 0u);
  const std::size_t n = golden.size();
  const fa::LoopMetrics metrics = fa::analyze_loop(golden, n / 2, n - 1);
  EXPECT_DOUBLE_EQ(metrics.h_peak, 10e3);
  EXPECT_GT(metrics.b_peak, 1.0);
  EXPECT_LT(metrics.b_peak, 2.2);
  EXPECT_GT(metrics.coercivity, 200.0);
  EXPECT_LT(metrics.coercivity, 5000.0);
  EXPECT_GT(metrics.remanence, 0.2);
  EXPECT_GT(metrics.area, 0.0);
}

// ---------------------------------------------------------------------------
// EnergyBasedBatch::run writes into whatever storage the curves hold
// ---------------------------------------------------------------------------

TEST(EnergyBasedBatch, RunRecordsIntoReusedCurvesBitwise) {
  // Ragged lanes of different cell counts plus one zero-length lane; each
  // run starts from recycled-looking curves — longer than the lane, shorter,
  // or NaN-filled — and must match a run from empty curves bit for bit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<fm::EnergyBasedParams> params;
  std::vector<fw::HSweep> sweeps;
  for (int i = 0; i < 5; ++i) {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.cells = 8 + 6 * i;
    p.kappa_max *= 0.8 + 0.1 * i;
    params.push_back(p);
    fw::HSweep sweep = ts::major_loop(25.0 + 5.0 * i, 1 + i % 2);
    sweep.h.resize(i == 3 ? 0 : sweep.h.size() - sweep.h.size() / (2 + i));
    sweeps.push_back(std::move(sweep));
  }
  std::vector<const fw::HSweep*> sweep_ptrs;
  for (const auto& s : sweeps) sweep_ptrs.push_back(&s);

  const auto run_with = [&](int fill) {
    fm::EnergyBasedBatch batch;
    std::vector<fm::BhCurve> curves;
    for (std::size_t i = 0; i < params.size(); ++i) {
      batch.add_lane(params[i]);
      const std::size_t len = sweeps[i].size();
      const std::size_t n = fill == 1 ? len + 41 : fill == 2 ? len / 2 : len;
      curves.emplace_back(std::vector<fm::BhPoint>(
          fill == 0 ? 0 : n, fm::BhPoint{nan, -2.0, nan}));
    }
    if (fill != 0) curves.emplace_back(std::vector<fm::BhPoint>(64));
    batch.run(sweep_ptrs, curves);
    return std::make_pair(std::move(curves), std::move(batch));
  };

  auto [ref_curves, ref_batch] = run_with(0);
  for (const int fill : {1, 2, 3}) {
    auto [curves, batch] = run_with(fill);
    ASSERT_EQ(curves.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_EQ(curves[i].size(), sweeps[i].size())
          << "fill " << fill << " lane " << i;
      for (std::size_t j = 0; j < curves[i].size(); ++j) {
        ASSERT_EQ(std::memcmp(&curves[i].points()[j],
                              &ref_curves[i].points()[j], sizeof(fm::BhPoint)),
                  0)
            << "fill " << fill << " lane " << i << " point " << j;
      }
      EXPECT_EQ(batch.stats(i).samples, ref_batch.stats(i).samples);
      EXPECT_EQ(batch.stats(i).cell_updates, ref_batch.stats(i).cell_updates);
      EXPECT_EQ(batch.stats(i).dissipated_energy,
                ref_batch.stats(i).dissipated_energy);
    }
  }
}
