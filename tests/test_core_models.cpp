// Frontend-equivalence tests (CLM4): the SystemC-style process network must
// match the direct TimelessJa bit-for-bit; the VHDL-AMS-style frontend must
// match within solver tolerance; run_scenario wires them all identically.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/curve_compare.hpp"
#include "analysis/loop_metrics.hpp"
#include "core/ams_ja.hpp"
#include "core/dc_sweep.hpp"
#include "core/scenario.hpp"
#include "core/systemc_ja.hpp"
#include "util/constants.hpp"
#include "wave/standard.hpp"
#include "support/fixtures.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fc = ferro::core;
namespace fh = ferro::hdl;
namespace ts = ferro::testsupport;

namespace {
constexpr double kDhmax = 25.0;

fw::HSweep test_sweep() {
  return ferro::testsupport::major_loop(10.0, 1);
}
}  // namespace

TEST(SystemCModel, MatchesDirectModelExactly) {
  const fm::JaParameters params = fm::paper_parameters();
  const fw::HSweep sweep = test_sweep();

  fm::TimelessConfig cfg;
  cfg.dhmax = kDhmax;
  const auto direct = fc::run_dc_sweep(params, cfg, sweep);
  const auto systemc = fc::run_systemc_sweep(params, kDhmax, sweep);

  ASSERT_EQ(direct.curve.size(), systemc.curve.size());
  for (std::size_t i = 0; i < direct.curve.size(); ++i) {
    // Bit-for-bit: both frontends execute the identical arithmetic sequence.
    EXPECT_DOUBLE_EQ(direct.curve.points()[i].b, systemc.curve.points()[i].b)
        << "sample " << i << " h=" << direct.curve.points()[i].h;
    EXPECT_DOUBLE_EQ(direct.curve.points()[i].m, systemc.curve.points()[i].m)
        << "sample " << i;
  }
}

TEST(SystemCModel, KernelActivityIsEventDriven) {
  const fm::JaParameters params = fm::paper_parameters();
  const fw::HSweep sweep = test_sweep();
  const auto result = fc::run_systemc_sweep(params, kDhmax, sweep);

  // core() runs at least once per distinct H sample; monitor/integral only
  // on events. Activations stay well below samples * 3.
  EXPECT_GT(result.kernel_stats.process_activations, sweep.h.size());
  EXPECT_LT(result.kernel_stats.process_activations, sweep.h.size() * 6);
  EXPECT_GT(result.kernel_stats.delta_cycles, sweep.h.size());
}

TEST(SystemCModel, ModuleExposesState) {
  fh::Kernel kernel;
  fc::JaCoreModule module(kernel, "ja", fm::paper_parameters(), kDhmax);
  EXPECT_EQ(module.name(), "ja");
  EXPECT_DOUBLE_EQ(module.m_irr(), 0.0);

  module.H.write(5000.0);
  kernel.settle();
  EXPECT_GT(module.Msig.read(), 0.0);
  EXPECT_GT(module.m_irr(), 0.0);
  EXPECT_NEAR(module.Bsig.read(),
              ferro::util::kMu0 *
                  (module.params().ms * module.Msig.read() + 5000.0),
              1e-12);
}

TEST(AmsModel, MatchesDirectWithinTolerance) {
  const fm::JaParameters params = fm::paper_parameters();
  const fw::Triangular tri(10e3, 0.02);

  fc::AmsJaConfig cfg;
  cfg.t_start = 0.0;
  cfg.t_end = 0.02;
  cfg.timeless.dhmax = kDhmax;
  cfg.solver.dt_initial = 1e-6;
  cfg.solver.rel_tol = 1e-5;
  const auto ams = fc::run_ams_timeless(params, tri, cfg);
  EXPECT_EQ(ams.solver_stats.hard_failures, 0u);

  fm::TimelessConfig tcfg;
  tcfg.dhmax = kDhmax;
  const fw::HSweep sweep = fw::sweep_from_waveform(tri, 0.0, 0.02, 4001);
  const auto direct = fc::run_dc_sweep(params, tcfg, sweep);

  const fa::CurveDelta delta = fa::compare_by_arc(ams.curve, direct.curve);
  EXPECT_LT(delta.rms_b, 0.05);  // "virtually identical results"
}

TEST(AmsModel, JaNeverEntersSolverResidual) {
  // The excitation quantity is smooth, so the solver should see no Newton
  // failures at all — the defining property of the timeless route.
  const fm::JaParameters params = fm::paper_parameters();
  const fw::Triangular tri(10e3, 0.02);

  fc::AmsJaConfig cfg;
  cfg.t_end = 0.04;
  cfg.timeless.dhmax = kDhmax;
  const auto result = fc::run_ams_timeless(params, tri, cfg);
  EXPECT_EQ(result.solver_stats.steps_rejected_newton, 0u);
  EXPECT_EQ(result.solver_stats.hard_failures, 0u);
  EXPECT_GT(result.stats.field_events, 0u);
}

TEST(DcSweep, StatsAndContinuation) {
  const fm::JaParameters params = fm::paper_parameters();
  fm::TimelessConfig cfg;
  cfg.dhmax = kDhmax;

  const fw::HSweep sweep = test_sweep();
  const auto result = fc::run_dc_sweep(params, cfg, sweep);
  EXPECT_EQ(result.curve.size(), sweep.h.size());
  EXPECT_EQ(result.stats.samples, sweep.h.size());
  EXPECT_GT(result.stats.field_events, 100u);

  // Continuation keeps the magnetic state.
  fm::TimelessJa model(params, cfg);
  (void)fm::run_sweep(model, sweep);
  const double b_mid = model.flux_density();
  fw::SweepBuilder more(10.0, 10e3);
  more.to(9e3);
  (void)fm::run_sweep(model, more.build());
  EXPECT_NE(model.flux_density(), b_mid);
}

TEST(DcSweep, Fig1SweepShape) {
  const fw::HSweep sweep = fc::fig1_sweep(10.0);
  double max_h = -1e30, min_h = 1e30;
  for (const double h : sweep.h) {
    max_h = std::max(max_h, h);
    min_h = std::min(min_h, h);
  }
  EXPECT_DOUBLE_EQ(max_h, 10e3);
  EXPECT_DOUBLE_EQ(min_h, -10e3);
  EXPECT_DOUBLE_EQ(sweep.h.back(), 2500.0);
  EXPECT_GE(sweep.turning_points.size(), 7u);
  EXPECT_EQ(fc::fig1_amplitudes().size(), 4u);
}

TEST(RunScenario, FrontendsAgreeOnSweep) {
  const fm::JaParameters params = fm::paper_parameters();
  const fw::HSweep sweep = fw::SweepBuilder(25.0).cycles(8e3, 1).build();

  const fc::ScenarioResult direct =
      ts::run_ja_frontend(params, {kDhmax}, sweep, fc::Frontend::kDirect);
  const fc::ScenarioResult systemc =
      ts::run_ja_frontend(params, {kDhmax}, sweep, fc::Frontend::kSystemC);
  ASSERT_TRUE(direct.ok()) << direct.error;
  ASSERT_TRUE(systemc.ok()) << systemc.error;
  ASSERT_EQ(direct.curve.size(), systemc.curve.size());
  const fa::CurveDelta d = fa::compare_pointwise(direct.curve, systemc.curve);
  EXPECT_DOUBLE_EQ(d.max_b, 0.0);

  const fc::ScenarioResult ams =
      ts::run_ja_frontend(params, {kDhmax}, sweep, fc::Frontend::kAms);
  ASSERT_TRUE(ams.ok()) << ams.error;
  ASSERT_GT(ams.curve.size(), 10u);
  const fa::CurveDelta da = fa::compare_by_arc(direct.curve, ams.curve);
  EXPECT_LT(da.rms_b, 0.05);
}

TEST(RunScenario, WaveformEntryPoint) {
  fc::Scenario s;
  s.model = fc::JaSpec{fm::paper_parameters(), {kDhmax}};
  s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(10e3, 0.02), 0.0,
                          0.02, 2001};
  const fc::ScenarioResult result = fc::run_scenario(s);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.curve.size(), 2001u);
  const fa::LoopMetrics metrics = fa::analyze_loop(result.curve);
  EXPECT_GT(metrics.b_peak, 1.0);
}

TEST(Frontend, Names) {
  EXPECT_EQ(fc::to_string(fc::Frontend::kDirect), "direct");
  EXPECT_EQ(fc::to_string(fc::Frontend::kSystemC), "systemc");
  EXPECT_EQ(fc::to_string(fc::Frontend::kAms), "ams");
}
