// FrontendPlan: the plan stage of the packed pipeline — routability of
// every (frontend, drive, config) combination, the deduplicated JA-free
// trajectory solves, the trace expansion's equivalence to the serial AMS
// frontend, a trajectory solve that gives up as one error on both paths,
// trajectories of a few MA/m that complete, and the MetricsWindow reject-don't-clamp contract on solver-placed kAms
// curves through both the per-scenario and packed paths.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/ams_ja.hpp"
#include "core/batch_runner.hpp"
#include "core/frontend_plan.hpp"
#include "mag/ja_params.hpp"
#include "mag/ja_trace.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fc = ferro::core;
namespace ts = ferro::testsupport;

namespace {

fc::Scenario base_scenario(fc::Frontend frontend) {
  fc::Scenario s;
  s.name = "plan";
  s.ja().params = fm::paper_parameters();
  s.ja().config = ts::paper_config();
  s.frontend = frontend;
  s.drive = ts::major_loop(10.0, 1);
  return s;
}

}  // namespace

TEST(FrontendPlan, RoutesEveryFrontendAndRefusesWhatItCannotReproduce) {
  // Sweep drives: all three frontends pack.
  EXPECT_EQ(fc::plan_route(base_scenario(fc::Frontend::kDirect)),
            fc::PlanRoute::kPackedSweep);
  EXPECT_EQ(fc::plan_route(base_scenario(fc::Frontend::kSystemC)),
            fc::PlanRoute::kPackedSweep);
  EXPECT_EQ(fc::plan_route(base_scenario(fc::Frontend::kAms)),
            fc::PlanRoute::kPackedTrace);

  // Time drives pack too — sampled onto the frontend's own grid by their
  // lane block (or the solver's own steps for kAms) — unless the waveform
  // is missing.
  for (const auto frontend : {fc::Frontend::kDirect, fc::Frontend::kSystemC,
                              fc::Frontend::kAms}) {
    fc::Scenario timed = base_scenario(frontend);
    timed.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(10e3, 0.02),
                                0.0, 0.04, 500};
    EXPECT_NE(fc::plan_route(timed), fc::PlanRoute::kFallback);
    timed.drive = fc::TimeDrive{};
    EXPECT_EQ(fc::plan_route(timed), fc::PlanRoute::kFallback);
  }

  // The kernel's lockstep subset gates the sweep frontends; the trace
  // planner unrolls sub-steps, so it does not gate kAms.
  fc::Scenario substep = base_scenario(fc::Frontend::kDirect);
  substep.ja().config.substep_max = 50.0;
  EXPECT_EQ(fc::plan_route(substep), fc::PlanRoute::kFallback);
  substep.frontend = fc::Frontend::kAms;
  EXPECT_EQ(fc::plan_route(substep), fc::PlanRoute::kPackedTrace);

  // kSystemC routability is the clamp pair the process network hard-codes.
  fc::Scenario clamps = base_scenario(fc::Frontend::kSystemC);
  clamps.ja().config.clamp_direction = false;
  EXPECT_EQ(fc::plan_route(clamps), fc::PlanRoute::kFallback);
  clamps.frontend = fc::Frontend::kAms;  // the trace honours any clamp flags
  EXPECT_EQ(fc::plan_route(clamps), fc::PlanRoute::kPackedTrace);

  // Invalid parameters always fall back (run_scenario owns the error text).
  fc::Scenario invalid = base_scenario(fc::Frontend::kDirect);
  invalid.ja().params.c = 1.5;
  EXPECT_EQ(fc::plan_route(invalid), fc::PlanRoute::kFallback);
}

TEST(FrontendPlan, SharesTrajectorySolvesAcrossMaterialsAndWindows) {
  // Materials and discretisations differ; the excitation does not — the
  // JA-free H(t) solve must be planned once per distinct drive.
  const auto waveform = std::make_shared<fw::Triangular>(10e3, 0.02);
  std::vector<fc::Scenario> scenarios;
  for (int i = 0; i < 4; ++i) {
    fc::Scenario s = base_scenario(fc::Frontend::kAms);
    s.ja().params = fm::material_library()[i % fm::material_library().size()].params;
    s.ja().config.dhmax = 20.0 + 5.0 * i;
    s.drive = fc::TimeDrive{waveform, 0.0, 0.04, 100};
    scenarios.push_back(std::move(s));
  }
  // Same waveform, different window: a separate solve.
  scenarios.push_back(base_scenario(fc::Frontend::kAms));
  scenarios.back().drive = fc::TimeDrive{waveform, 0.0, 0.02, 100};
  // Two sweep-driven lanes with identical sample values: one shared solve.
  scenarios.push_back(base_scenario(fc::Frontend::kAms));
  scenarios.push_back(base_scenario(fc::Frontend::kAms));

  const fc::FrontendPlanSet plans(scenarios);
  EXPECT_EQ(plans.trajectory_jobs(), 3u);
  EXPECT_EQ(plans.plan(0).trajectory, plans.plan(1).trajectory);
  EXPECT_EQ(plans.plan(0).trajectory, plans.plan(3).trajectory);
  EXPECT_NE(plans.plan(0).trajectory, plans.plan(4).trajectory);
  EXPECT_EQ(plans.plan(5).trajectory, plans.plan(6).trajectory);
  EXPECT_NE(plans.plan(5).trajectory, plans.plan(0).trajectory);
}

TEST(FrontendPlan, PlannedTrajectoryMatchesTheRidingAlongSolve) {
  // The JA never enters the solver's residual, so the accepted H sequence
  // of the JA-free planning solve must equal run_ams_timeless's curve
  // fields exactly — solver stats included.
  const fw::Triangular waveform(10e3, 0.02);
  fc::AmsJaConfig config;
  config.t_start = 0.0;
  config.t_end = 0.04;
  config.timeless = ts::paper_config();

  const fc::AmsTrajectory trajectory =
      fc::plan_ams_trajectory(waveform, config);
  const fc::AmsJaResult reference =
      fc::run_ams_timeless(fm::paper_parameters(), waveform, config);

  ASSERT_EQ(trajectory.h.size(), reference.curve.size());
  for (std::size_t j = 0; j < trajectory.h.size(); ++j) {
    ASSERT_EQ(trajectory.h[j], reference.curve.points()[j].h) << "step " << j;
  }
  EXPECT_EQ(trajectory.solver_stats.steps_accepted,
            reference.solver_stats.steps_accepted);
  EXPECT_EQ(trajectory.solver_stats.newton_iterations,
            reference.solver_stats.newton_iterations);
}

/// A 10 kA/m, 50 Hz sine whose time derivative turns NaN from `t_nan` on:
/// no step of the H(t) solve converges there, at any step size.
class SineWithNanSlope final : public fw::Waveform {
 public:
  explicit SineWithNanSlope(double t_nan) : t_nan_(t_nan) {}
  [[nodiscard]] double value(double t) const override {
    return sine_.value(t);
  }
  [[nodiscard]] double derivative(double t) const override {
    return t < t_nan_ ? sine_.derivative(t)
                      : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  fw::Sine sine_{10e3, 50.0};
  double t_nan_;
};

TEST(FrontendPlan, AmsSolveThatGivesUpIsTheSameErrorInBothPaths) {
  // Where the excitation's slope is NaN the analogue solver's Newton
  // iteration fails at dt_min; after 25 forced accepts in a row the solver
  // gives up short of t_end. That is a kSolverDiverged error without a
  // curve, identical from run_scenario and from every BatchRunner path,
  // never an ok result carrying the truncated curve.
  std::vector<fc::Scenario> scenarios;
  for (const double t_nan : {0.005, 0.0}) {
    fc::Scenario s = base_scenario(fc::Frontend::kAms);
    s.name = "NaN slope from " + std::to_string(t_nan) + " s";
    s.drive = fc::TimeDrive{std::make_shared<SineWithNanSlope>(t_nan), 0.0,
                            0.02, 1000};
    scenarios.push_back(std::move(s));
  }
  const std::vector<fc::ScenarioResult> serial = ts::run_each(scenarios);
  for (const fc::ScenarioResult& r : serial) {
    EXPECT_EQ(r.error.code, fc::ErrorCode::kSolverDiverged) << r.name;
    EXPECT_NE(r.error.detail.find("gave up"), std::string::npos) << r.error;
    EXPECT_NE(r.error.detail.find("after 26 hard failures"),
              std::string::npos)
        << r.error;
    EXPECT_EQ(r.curve.size(), 0u) << r.name;
  }

  for (const unsigned threads : {1u, 4u}) {
    for (const auto packing : {fc::Packing::kExact, fc::Packing::kFast}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (packing == fc::Packing::kExact ? ", kExact" : ", kFast"));
      fc::BatchReport report;
      const auto packed = fc::BatchRunner({.threads = threads})
                              .run(scenarios, {.packing = packing}, &report);
      ASSERT_EQ(packed.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(packed[i].error, serial[i].error) << serial[i].name;
        EXPECT_EQ(packed[i].curve.size(), 0u) << serial[i].name;
      }
      EXPECT_EQ(report.failed, serial.size());
    }
  }
}

TEST(FrontendPlan, AmsSolveOfAFewMegaAmperesPerMetreCompletes) {
  // Past |H| = 2^21 A/m the spacing of doubles exceeds 1e-10, so a fixed
  // 1e-10 Newton tolerance can never be met there: these sines used to
  // force-accept 25 steps and give up. The tolerance grows with the
  // iterate, so they complete without a hard failure on every path.
  std::vector<fc::Scenario> scenarios;
  for (const double amplitude : {3e6, 1e7}) {
    const auto sine = std::make_shared<fw::Sine>(amplitude, 50.0);
    fc::AmsJaConfig config;
    config.t_start = 0.0;
    config.t_end = 0.02;
    const fc::AmsTrajectory trajectory = fc::plan_ams_trajectory(*sine, config);
    EXPECT_EQ(trajectory.solver_stats.hard_failures, 0u) << amplitude;
    EXPECT_EQ(trajectory.solver_stats.steps_rejected_newton, 0u) << amplitude;

    fc::Scenario s = base_scenario(fc::Frontend::kAms);
    s.name = "sine " + std::to_string(amplitude) + " A/m";
    s.drive = fc::TimeDrive{sine, 0.0, 0.02, 1000};
    scenarios.push_back(std::move(s));
  }
  const std::vector<fc::ScenarioResult> serial = ts::run_each(scenarios);
  for (const fc::ScenarioResult& r : serial) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.curve.size(), 100u) << r.name;
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    fc::BatchReport report;
    const auto packed =
        fc::BatchRunner({.threads = threads}).run(scenarios, {}, &report);
    ASSERT_EQ(packed.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(packed[i].ok()) << packed[i].error;
      EXPECT_EQ(ts::max_b_deviation(packed[i].curve, serial[i].curve), 0.0)
          << serial[i].name;
    }
    EXPECT_EQ(report.failed, 0u);
  }
}

TEST(FrontendPlan, TraceExpansionCountsMatchTheScalarModel) {
  // build_ja_trace's planned counters are H-only facts; they must agree
  // with the scalar model replaying the same trajectory, across sub-step
  // policies (0 = single-step events, the AMS dhmax default, a custom one).
  const fw::HSweep sweep = ts::major_loop(40.0, 1);
  for (const double substep : {0.0, 25.0, 60.0}) {
    fm::TimelessConfig config = ts::paper_config();
    config.substep_max = substep;

    const fm::JaTrace trace = fm::build_ja_trace(sweep.h, config);
    fm::TimelessJa scalar(fm::paper_parameters(), config);
    for (std::size_t s = 1; s < sweep.h.size(); ++s) scalar.apply(sweep.h[s]);

    EXPECT_EQ(trace.planned.samples, scalar.stats().samples) << substep;
    EXPECT_EQ(trace.planned.field_events, scalar.stats().field_events)
        << substep;
    EXPECT_EQ(trace.planned.integration_steps,
              scalar.stats().integration_steps)
        << substep;
    EXPECT_EQ(trace.record_rows.size(), sweep.h.size() - 1) << substep;
  }
}

TEST(FrontendPlan, AmsMetricsWindowThatFitsIsHonouredInBothPaths) {
  // The solver places its own steps, so a valid window must be sized from
  // the curve kAms actually produces. Plan the trajectory first to learn
  // that length, then run with a window over its second half — run_scenario
  // and the packed path must agree on the metrics exactly.
  fc::Scenario s = base_scenario(fc::Frontend::kAms);
  const fc::AmsSweepDrive drive =
      fc::ams_drive_for_sweep(std::get<fw::HSweep>(s.drive), s.ja().config);
  const std::size_t curve_len =
      fc::plan_ams_trajectory(drive.pwl, drive.config).h.size();
  ASSERT_GT(curve_len, 4u);
  s.metrics_window = fc::MetricsWindow{curve_len / 2, curve_len - 1};

  const fc::ScenarioResult serial = fc::run_scenario(s);
  ASSERT_TRUE(serial.ok()) << serial.error;
  EXPECT_EQ(serial.curve.size(), curve_len);
  EXPECT_NE(serial.metrics.b_peak, 0.0);

  const auto packed = fc::BatchRunner({.threads = 1})
                          .run({s}, {.packing = fc::Packing::kExact});
  ASSERT_TRUE(packed[0].ok()) << packed[0].error;
  EXPECT_EQ(packed[0].metrics.area, serial.metrics.area);
  EXPECT_EQ(packed[0].metrics.b_peak, serial.metrics.b_peak);
  EXPECT_EQ(packed[0].metrics.coercivity, serial.metrics.coercivity);
}

TEST(FrontendPlan, AmsMetricsWindowOverrunIsRejectedInBothPaths) {
  // The documented reject-don't-clamp contract: a window sized from the
  // input sweep overruns the solver-placed curve and must surface as a
  // per-job error (identically through run_scenario and the packed path),
  // never be clamped to the curve that exists.
  fc::Scenario s = base_scenario(fc::Frontend::kAms);
  const std::size_t sweep_len = std::get<fw::HSweep>(s.drive).size();
  s.metrics_window = fc::MetricsWindow{0, sweep_len * 10};

  const fc::ScenarioResult serial = fc::run_scenario(s);
  EXPECT_FALSE(serial.ok());
  EXPECT_NE(serial.error.detail.find("does not fit"), std::string::npos)
      << serial.error;
  // The curve itself completed before the metrics step failed.
  EXPECT_GT(serial.curve.size(), 0u);

  const auto packed = fc::BatchRunner({.threads = 1})
                          .run({s}, {.packing = fc::Packing::kExact});
  EXPECT_FALSE(packed[0].ok());
  EXPECT_EQ(packed[0].error, serial.error);
  EXPECT_EQ(packed[0].curve.size(), serial.curve.size());
}

TEST(FrontendPlan, KamsDedupNeverMergesANonFiniteSweepWithAValidOne) {
  // A kAms sweep with a NaN sample must not share a trajectory with the
  // same sweep without it, in either order: the planner scans each
  // excitation before synthesising its Pwl (the NaN drive falls back, and
  // run_scenario rejects it), and the dedup key compares bit patterns.
  fc::Scenario valid = base_scenario(fc::Frontend::kAms);
  valid.name = "valid";
  fc::Scenario poisoned = valid;
  poisoned.name = "poisoned";
  std::get<fw::HSweep>(poisoned.drive).h[5] =
      std::numeric_limits<double>::quiet_NaN();
  const fc::ScenarioResult reference = fc::run_scenario(valid);
  ASSERT_TRUE(reference.ok()) << reference.error;

  for (const bool poisoned_first : {true, false}) {
    SCOPED_TRACE(poisoned_first ? "[poisoned, valid]" : "[valid, poisoned]");
    const std::vector<fc::Scenario> scenarios =
        poisoned_first ? std::vector<fc::Scenario>{poisoned, valid}
                       : std::vector<fc::Scenario>{valid, poisoned};
    const std::size_t bad = poisoned_first ? 0 : 1;
    const std::size_t good = 1 - bad;

    const fc::FrontendPlanSet plans(scenarios);
    EXPECT_EQ(plans.trajectory_jobs(), 1u);
    EXPECT_EQ(plans.plan(bad).route, fc::PlanRoute::kFallback);
    EXPECT_EQ(plans.plan(good).route, fc::PlanRoute::kPackedTrace);

    fc::BatchReport report;
    const auto packed = fc::BatchRunner({.threads = 1})
                            .run(scenarios, {.packing = fc::Packing::kExact},
                                 &report);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(packed[bad].error, fc::run_scenario(poisoned).error);
    ASSERT_TRUE(packed[good].ok()) << packed[good].error;
    ASSERT_EQ(packed[good].curve.size(), reference.curve.size());
    for (std::size_t j = 0; j < reference.curve.size(); ++j) {
      const auto& p = packed[good].curve.points()[j];
      const auto& q = reference.curve.points()[j];
      ASSERT_TRUE(p.h == q.h && p.m == q.m && p.b == q.b) << "point " << j;
    }
    EXPECT_EQ(packed[good].metrics.area, reference.metrics.area);
    EXPECT_EQ(packed[good].stats.field_events, reference.stats.field_events);
  }
}

TEST(FrontendPlan, WhatValidateRejectsIsNeitherPackableNorPlanned) {
  // Scenarios validate() rejects for their discretisation fall back, so
  // run_scenario issues the verdict — none reaches a lane block or
  // plans a trajectory solve.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    fc::Frontend frontend;
    double dhmax;
    double substep_max;
  };
  const Case cases[] = {
      {"direct dhmax NaN", fc::Frontend::kDirect, nan, 0.0},
      {"direct dhmax +Inf", fc::Frontend::kDirect, inf, 0.0},
      {"ams dhmax +Inf", fc::Frontend::kAms, inf, 0.0},
      {"ams substep -1", fc::Frontend::kAms, 25.0, -1.0},
      {"ams substep NaN", fc::Frontend::kAms, 25.0, nan},
      {"ams substep +Inf", fc::Frontend::kAms, 25.0, inf},
  };
  std::vector<fc::Scenario> scenarios;
  for (const Case& c : cases) {
    fc::Scenario s = base_scenario(c.frontend);
    s.name = c.name;
    s.ja().config.dhmax = c.dhmax;
    s.ja().config.substep_max = c.substep_max;
    EXPECT_FALSE(fc::validate(s).ok()) << c.name;
    EXPECT_EQ(fc::plan_route(s), fc::PlanRoute::kFallback) << c.name;
    scenarios.push_back(std::move(s));
  }
  // Two valid kAms drives (one distinct excitation each) ride along.
  scenarios.push_back(base_scenario(fc::Frontend::kAms));
  scenarios.push_back(base_scenario(fc::Frontend::kAms));
  std::get<fw::HSweep>(scenarios.back().drive) = ts::major_loop(20.0, 1);
  EXPECT_EQ(fc::FrontendPlanSet(scenarios).trajectory_jobs(), 2u);

  for (const auto packing : {fc::Packing::kExact, fc::Packing::kFast}) {
    fc::BatchReport report;
    const auto packed = fc::BatchRunner({.threads = 2})
                            .run(scenarios, {.packing = packing}, &report);
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const fc::ScenarioResult solo = fc::run_scenario(scenarios[i]);
      EXPECT_EQ(solo.error.code, fc::ErrorCode::kInvalidScenario);
      EXPECT_EQ(packed[i].error, solo.error) << cases[i].name;
    }
    EXPECT_TRUE(packed[std::size(cases)].ok());
    EXPECT_TRUE(packed[std::size(cases) + 1].ok());
    EXPECT_EQ(report.failed, std::size(cases));
    EXPECT_EQ(report.quarantined, 0u);
  }
}
