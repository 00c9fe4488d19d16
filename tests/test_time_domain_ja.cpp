// Tests for the `'INTEG`-style time-domain baseline: correctness of the
// trajectory and — crucially — the solver-stress observables of CLM2; plus
// the analogue solver's step placement, pinned bit for bit on both routes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "analysis/curve_compare.hpp"
#include "analysis/loop_metrics.hpp"
#include "core/ams_ja.hpp"
#include "core/dc_sweep.hpp"
#include "mag/time_domain_ja.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fc = ferro::core;

namespace {

fm::TimeDomainConfig config_for(double t_end, double rel_tol = 1e-4) {
  fm::TimeDomainConfig cfg;
  cfg.t_start = 0.0;
  cfg.t_end = t_end;
  cfg.solver.dt_initial = t_end * 1e-5;
  cfg.solver.rel_tol = rel_tol;
  cfg.solver.abs_tol = 1e-9;
  return cfg;
}

}  // namespace

TEST(TimeDomainJa, SystemBasics) {
  const fw::Triangular tri(10e3, 0.02);
  fm::TimeDomainJaSystem system(fm::paper_parameters(), tri, true);
  EXPECT_DOUBLE_EQ(system.initial(), 0.0);
  EXPECT_DOUBLE_EQ(system.total_m(0.0, 0.0), 0.0);
  // total_m solves the fixed point: m - c/(1+c)*man - m_irr = 0.
  const double m = system.total_m(5000.0, 0.5);
  EXPECT_GT(m, 0.5);
  EXPECT_LT(m, 1.0);
}

TEST(TimeDomainJa, DerivativeSignFollowsField) {
  const fw::Triangular tri(10e3, 0.02);
  fm::TimeDomainJaSystem system(fm::paper_parameters(), tri, true);
  // Rising quarter of the triangle: positive dH/dt -> positive dM/dt.
  EXPECT_GT(system.derivative(0.001, 0.0), 0.0);
}

TEST(TimeDomainJa, ProducesClosedMajorLoop) {
  const fw::Triangular tri(10e3, 0.02);
  const auto result =
      run_time_domain_ja(fm::paper_parameters(), tri, config_for(0.06));
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.curve.size(), 100u);

  const fa::LoopMetrics metrics = fa::analyze_loop(result.curve);
  EXPECT_GT(metrics.b_peak, 1.0);
  EXPECT_GT(metrics.remanence, 0.3);
  EXPECT_GT(metrics.coercivity, 500.0);
}

TEST(TimeDomainJa, TurningPointsStressTheSolver) {
  // CLM2 mechanism: the triangular excitation's slope flips discontinuously
  // at each turning point; the adaptive solver reacts with rejections.
  const fw::Triangular tri(10e3, 0.02);
  const auto result =
      run_time_domain_ja(fm::paper_parameters(), tri, config_for(0.06, 1e-5));
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.stats.steps_rejected_lte + result.stats.steps_rejected_newton,
            0u);
}

TEST(TimeDomainJa, MatchesTimelessTrajectory) {
  // Same equations, different integration route: trajectories agree to a
  // few percent of peak B when both are run fine-grained.
  const double amplitude = 10e3;
  const fw::Triangular tri(amplitude, 0.02);
  auto cfg = config_for(0.02, 1e-6);
  const auto td = run_time_domain_ja(fm::paper_parameters(), tri, cfg);
  ASSERT_TRUE(td.completed);

  fm::TimelessConfig tcfg;
  tcfg.dhmax = 5.0;
  const fw::HSweep sweep = fw::sweep_from_waveform(tri, 0.0, 0.02, 8001);
  const auto direct = fc::run_dc_sweep(fm::paper_parameters(), tcfg, sweep);

  const fa::CurveDelta delta = fa::compare_by_arc(td.curve, direct.curve);
  EXPECT_LT(delta.rms_b, 0.08);  // a few percent of ~1.7 T peak
}

TEST(TimeDomainJa, UnclampedRunsWithoutCrashing) {
  const fw::Triangular tri(10e3, 0.02);
  auto cfg = config_for(0.02);
  cfg.clamp_negative_slope = false;
  const auto result = run_time_domain_ja(fm::paper_parameters(), tri, cfg);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.curve.size(), 10u);
}

TEST(TimeDomainJa, SineExcitationWorks) {
  const fw::Sine sine(8e3, 50.0);
  const auto result =
      run_time_domain_ja(fm::paper_parameters(), sine, config_for(0.04));
  ASSERT_TRUE(result.completed);
  const fa::LoopMetrics metrics = fa::analyze_loop(result.curve);
  EXPECT_GT(metrics.b_peak, 0.8);
  EXPECT_EQ(result.stats.hard_failures, 0u);
}

namespace {

/// Every TransientStats field of one run, plus an FNV-1a hash (one 64-bit
/// word per value) of the bit patterns the run published at its accepted
/// steps: equal only when the solver placed every step bitwise the same.
struct SolverPin {
  std::uint64_t steps_accepted;
  std::uint64_t steps_rejected_lte;
  std::uint64_t steps_rejected_newton;
  std::uint64_t newton_iterations;
  std::uint64_t hard_failures;
  double min_dt_used;
  double max_dt_used;
  std::uint64_t hash;
};

std::uint64_t mix_bits(std::uint64_t hash, double value) {
  return (hash ^ std::bit_cast<std::uint64_t>(value)) * 0x100000001b3ULL;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void expect_pin(const ferro::ams::TransientStats& stats, std::uint64_t hash,
                const SolverPin& pin) {
  EXPECT_EQ(stats.steps_accepted, pin.steps_accepted);
  EXPECT_EQ(stats.steps_rejected_lte, pin.steps_rejected_lte);
  EXPECT_EQ(stats.steps_rejected_newton, pin.steps_rejected_newton);
  EXPECT_EQ(stats.newton_iterations, pin.newton_iterations);
  EXPECT_EQ(stats.hard_failures, pin.hard_failures);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.min_dt_used),
            std::bit_cast<std::uint64_t>(pin.min_dt_used));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.max_dt_used),
            std::bit_cast<std::uint64_t>(pin.max_dt_used));
  EXPECT_EQ(hash, pin.hash);
}

std::uint64_t trajectory_hash(const fc::AmsTrajectory& trajectory) {
  std::uint64_t hash = kFnvOffset;
  for (const double h : trajectory.h) hash = mix_bits(hash, h);
  return hash;
}

}  // namespace

TEST(SolverPin, StepPlacementIsPinnedBitForBit) {
  // The analogue solver's step placement is what kAms curves and the
  // 'INTEG-style curves are made of; no other test compares it across
  // revisions of the solver. The kAms runs hash H at every accepted step
  // (y itself); the 'INTEG-style runs hash each curve point's (H, M, B),
  // so t enters through H(t) and y = m_irr through M. The values depend on
  // the C library's sin, cos and anhysteretic transcendentals as well as on
  // the solver: a libm that rounds those differently needs a re-pin, while
  // a solver change must leave them alone.
  {
    SCOPED_TRACE("kAms, 10 kA/m 50 Hz sine");
    const fw::Sine sine(10e3, 50.0);
    fc::AmsJaConfig config;
    config.t_start = 0.0;
    config.t_end = 0.02;
    const fc::AmsTrajectory trajectory = fc::plan_ams_trajectory(sine, config);
    EXPECT_EQ(trajectory.h.size(), 509u);
    expect_pin(trajectory.solver_stats, trajectory_hash(trajectory),
               {508, 15, 0, 983, 0, 0x1.56a403a938586p-21,
                0x1.bcf8c19e89a32p-15, 7656430191692647247ULL});
  }
  {
    SCOPED_TRACE("kAms, Fig. 1 sweep at 50 A/m (a breakpoint per sample)");
    const fc::AmsSweepDrive drive =
        fc::ams_drive_for_sweep(fc::fig1_sweep(50.0), fm::TimelessConfig{});
    const fc::AmsTrajectory trajectory =
        fc::plan_ams_trajectory(drive.pwl, drive.config);
    EXPECT_EQ(trajectory.h.size(), 14160u);
    expect_pin(trajectory.solver_stats, trajectory_hash(trajectory),
               {14159, 59, 0, 135, 0, 0x1.27652d0cp-22,
                0x1.0c6f7a0b5ed8dp-12, 17555396794267049528ULL});
  }
  const fw::Triangular tri(10e3, 0.02);
  const auto integ_run = [&](double rel_tol) {
    fm::TimeDomainConfig cfg;
    cfg.t_end = 0.06;
    cfg.solver.dt_initial = 1e-6;
    cfg.solver.rel_tol = rel_tol;
    cfg.solver.abs_tol = 1e-10;
    const fm::TimeDomainResult result =
        fm::run_time_domain_ja(fm::paper_parameters(), tri, cfg);
    std::uint64_t hash = kFnvOffset;
    for (const fm::BhPoint& p : result.curve.points()) {
      hash = mix_bits(mix_bits(mix_bits(hash, p.h), p.m), p.b);
    }
    return std::pair{result, hash};
  };
  {
    SCOPED_TRACE("'INTEG style, CLM2 triangle, rel_tol 1e-4");
    const auto [result, hash] = integ_run(1e-4);
    EXPECT_EQ(result.curve.size(), 3657u);
    expect_pin(result.stats, hash,
               {3656, 230, 0, 3812, 0, 0x1.7c07376076eap-27,
                0x1.3a92a30553261p-10, 16431574358945350727ULL});
  }
  {
    SCOPED_TRACE("'INTEG style, CLM2 triangle, rel_tol 1e-5");
    const auto [result, hash] = integ_run(1e-5);
    EXPECT_EQ(result.curve.size(), 10889u);
    expect_pin(result.stats, hash,
               {10888, 345, 0, 11037, 0, 0x1.f5d55c72e05ddp-28,
                0x1.3a92a30553261p-10, 10827443777450736450ULL});
  }
}
