// End-to-end reproduction tests: the full Fig. 1 pipeline and the headline
// claims, asserted at the level EXPERIMENTS.md reports.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "analysis/curve_compare.hpp"
#include "analysis/loop_metrics.hpp"
#include "analysis/stability.hpp"
#include "core/ams_ja.hpp"
#include "core/dc_sweep.hpp"
#include "core/scenario.hpp"
#include "core/systemc_ja.hpp"
#include "mag/classic_ja.hpp"
#include "mag/time_domain_ja.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fc = ferro::core;

using ferro::testsupport::major_loop;
using ferro::testsupport::paper_config;
using ferro::testsupport::run_ja_frontend;

TEST(Fig1, FullPipelineReproducesPublishedShape) {
  // The paper's Fig. 1: decaying triangular DC sweep, major loop +/-10 kA/m
  // with nested non-biased minor loops, B spanning roughly +/-1.5...2 T.
  const fm::JaParameters params = fm::paper_parameters_dual();
  const fm::TimelessConfig cfg = paper_config();

  const fw::HSweep sweep = fc::fig1_sweep(10.0);
  const auto result = fc::run_dc_sweep(params, cfg, sweep);
  ASSERT_EQ(result.curve.size(), sweep.h.size());

  // Field range is exactly the published axis.
  const fa::LoopMetrics metrics = fa::analyze_loop(result.curve);
  EXPECT_DOUBLE_EQ(metrics.h_peak, 10e3);
  // Flux density lands in the published band.
  EXPECT_GT(metrics.b_peak, 1.2);
  EXPECT_LT(metrics.b_peak, 2.2);
  // A real hysteresis loop: coercivity and remanence both present.
  EXPECT_GT(metrics.coercivity, 500.0);
  EXPECT_LT(metrics.coercivity, 4000.0);
  EXPECT_GT(metrics.remanence, 0.3);

  // Physicality over the whole trajectory (the clamp's job).
  const fa::SlopeReport slopes = fa::scan_slopes(result.curve);
  EXPECT_EQ(slopes.negative_segments, 0u);

  // The timeless model never needed a solver: zero failure modes by
  // construction — only clamp events.
  EXPECT_GT(result.stats.field_events, 0u);
}

TEST(Fig1, MinorLoopsAreNestedInsideMajorLoop) {
  const fm::JaParameters params = fm::paper_parameters_dual();
  const fm::TimelessConfig cfg = paper_config();

  // Major-loop envelope: second full cycle at 10 kA/m.
  const fw::HSweep major = major_loop(10.0, 2);
  const fm::BhCurve major_curve = fc::run_dc_sweep(params, cfg, major).curve;

  // Each shrinking cycle of the Fig. 1 excitation must stay inside it.
  fm::TimelessJa ja(params, cfg);
  const fw::HSweep full = fc::fig1_sweep(10.0);
  fm::BhCurve fig1_curve = fm::run_sweep(ja, full);

  // Points beyond the first major cycle belong to the minor loops.
  fm::BhCurve minor_part;
  bool past_major = false;
  double prev_h = 0.0;
  int extremes_seen = 0;
  for (const auto& p : fig1_curve.points()) {
    if (std::fabs(p.h) >= 10e3 - 1e-9) ++extremes_seen;
    if (extremes_seen >= 3) past_major = true;  // +10k, -10k, +10k done
    if (past_major) minor_part.append(p);
    prev_h = p.h;
  }
  (void)prev_h;
  ASSERT_GT(minor_part.size(), 100u);
  EXPECT_TRUE(fa::within_major_envelope(minor_part, major_curve, 5e-3));
}

TEST(Fig1, CsvArtefactWritten) {
  const fm::JaParameters params = fm::paper_parameters_dual();
  const fm::TimelessConfig cfg = paper_config();
  const auto result = fc::run_dc_sweep(params, cfg, fc::fig1_sweep(50.0));
  const std::string path = "test_fig1.csv";
  ASSERT_TRUE(result.curve.write_csv(path));
  EXPECT_GT(std::filesystem::file_size(path), 1000u);
  std::filesystem::remove(path);
}

TEST(Claims, ThreeFrontendsVirtuallyIdentical) {
  // CLM4: SystemC-style, AMS-style and direct implementations of the same
  // technique agree — SystemC vs direct exactly, AMS within tolerance.
  const fm::JaParameters params = fm::paper_parameters();
  const fw::HSweep sweep = major_loop(20.0, 1);

  const fc::ScenarioResult direct =
      run_ja_frontend(params, {25.0}, sweep, fc::Frontend::kDirect);
  const fc::ScenarioResult systemc =
      run_ja_frontend(params, {25.0}, sweep, fc::Frontend::kSystemC);
  const fc::ScenarioResult ams =
      run_ja_frontend(params, {25.0}, sweep, fc::Frontend::kAms);
  ASSERT_TRUE(direct.ok()) << direct.error;
  ASSERT_TRUE(systemc.ok()) << systemc.error;
  ASSERT_TRUE(ams.ok()) << ams.error;

  const fa::CurveDelta d_sc =
      fa::compare_pointwise(direct.curve, systemc.curve);
  EXPECT_EQ(d_sc.max_b, 0.0);

  const fa::CurveDelta d_ams = fa::compare_by_arc(direct.curve, ams.curve);
  EXPECT_LT(d_ams.rms_b, 0.05);
}

TEST(Claims, TimelessAvoidsSolverStressAtTurningPoints) {
  // CLM2: on the same triangular excitation, the `'INTEG`-style route
  // stresses the analogue solver (rejections at turning points) while the
  // timeless route keeps the solver's equations smooth.
  const fm::JaParameters params = fm::paper_parameters();
  const fw::Triangular tri(10e3, 0.02);

  fm::TimeDomainConfig td_cfg;
  td_cfg.t_end = 0.06;
  td_cfg.solver.dt_initial = 1e-7;
  td_cfg.solver.rel_tol = 1e-5;
  td_cfg.solver.abs_tol = 1e-10;
  const auto integ = fm::run_time_domain_ja(params, tri, td_cfg);
  ASSERT_TRUE(integ.completed);

  fc::AmsJaConfig ams_cfg;
  ams_cfg.t_end = 0.06;
  ams_cfg.timeless.dhmax = 25.0;
  ams_cfg.solver.dt_initial = 1e-7;
  ams_cfg.solver.rel_tol = 1e-5;
  ams_cfg.solver.abs_tol = 1e-10;
  ams_cfg.solver.breakpoints = {0.005, 0.015, 0.025, 0.035, 0.045, 0.055};
  const auto timeless = fc::run_ams_timeless(params, tri, ams_cfg);

  const auto integ_rejections =
      integ.stats.steps_rejected_lte + integ.stats.steps_rejected_newton;
  const auto timeless_rejections = timeless.solver_stats.steps_rejected_lte +
                                   timeless.solver_stats.steps_rejected_newton;
  EXPECT_GT(integ_rejections, timeless_rejections);
  EXPECT_EQ(timeless.solver_stats.hard_failures, 0u);
}

TEST(Claims, UnclampedOriginalModelIsNonPhysical) {
  // CLM5 end-to-end: original (classic, unclamped) JA on the paper's
  // parameters shows negative BH slopes; the published (clamped, timeless)
  // model does not.
  const fm::JaParameters params = fm::paper_parameters();

  fm::ClassicConfig raw;
  raw.clamp_negative_slope = false;
  fm::ClassicJa original(params, raw);
  fm::BhCurve original_curve;
  const fw::HSweep sweep = major_loop(25.0, 1);
  for (const double h : sweep.h) {
    original.apply(h);
    original_curve.append(h, original.magnetisation(), original.flux_density());
  }
  EXPECT_GT(fa::scan_slopes(original_curve).negative_segments, 0u);

  const fm::TimelessConfig cfg = paper_config();
  const auto published = fc::run_dc_sweep(params, cfg, sweep);
  EXPECT_EQ(fa::scan_slopes(published.curve).negative_segments, 0u);
}
