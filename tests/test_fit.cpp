// Tests for the parameter-identification layer (src/fit): the resampling
// objective, the ask/tell Nelder-Mead core, the core batch-evaluation
// helper, and the end-to-end acceptance property — a synthetic ground
// truth must be recovered to 1e-3 relative on every parameter, on both
// batch math lanes, deterministically across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/frontend_plan.hpp"
#include "core/scenario.hpp"
#include "fit/fitter.hpp"
#include "fit/objective.hpp"
#include "fit/optimizer.hpp"
#include "mag/ja_params.hpp"
#include "util/interp.hpp"
#include "util/stats.hpp"
#include "wave/sweep.hpp"

namespace fc = ferro::core;
namespace ff = ferro::fit;
namespace fm = ferro::mag;
namespace fu = ferro::util;
namespace fw = ferro::wave;

namespace {

fm::JaParameters ground_truth() {
  fm::JaParameters p;
  p.ms = 1.25e6;
  p.a = 1600.0;
  p.k = 3200.0;
  p.c = 0.18;
  p.alpha = 0.0022;
  return p;
}

fw::HSweep measurement_sweep() {
  return fw::SweepBuilder(25.0).to(8000.0).cycles(8000.0, 1).build();
}

fm::BhCurve simulate(const fm::JaParameters& params,
                     fm::BatchMath math = fm::BatchMath::kExact) {
  const auto scenarios = fc::scenarios_for_parameters(
      {&params, 1}, fm::TimelessConfig{}, measurement_sweep(), "truth/");
  const fc::BatchRunner runner(fc::BatchOptions{1});
  auto results = runner.run(scenarios, {.packing = fc::packing_for(math)});
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  return std::move(results[0].curve);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// [begin, end] of (h, b) as an ascending-h table for util::lerp_at: a
/// falling branch is reversed and samples that do not advance the field
/// are dropped.
void ascending_table(const std::vector<double>& h, const std::vector<double>& b,
                     std::size_t begin, std::size_t end,
                     std::vector<double>& xs, std::vector<double>& ys) {
  xs.clear();
  ys.clear();
  const auto push = [&](std::size_t i) {
    if (!xs.empty() && h[i] <= xs.back()) return;
    xs.push_back(h[i]);
    ys.push_back(b[i]);
  };
  if (h[end] >= h[begin]) {
    for (std::size_t i = begin; i <= end; ++i) push(i);
  } else {
    for (std::size_t i = end + 1; i-- > begin;) push(i);
  }
}

struct ReferenceScore {
  double weighted_rms = 0.0;
  std::vector<double> segment_rms;  ///< empty when weighted_rms is infinite
};

/// The objective's score computed the direct way, as the oracle for its
/// precomputed resampling: per-branch ascending tables of target AND
/// candidate, util::lerp_at onto each branch's uniform grid, then
/// util::rms_diff (all-1 weights) or the region-weighted sum.
ReferenceScore reference_score(const std::vector<double>& target_h,
                               const std::vector<double>& target_b,
                               const fm::BhCurve& candidate,
                               const ff::FitObjectiveOptions& options) {
  ReferenceScore out;
  if (candidate.size() != target_h.size()) {
    out.weighted_rms = kInf;
    return out;
  }
  const std::vector<double> h = candidate.h_values();
  const std::vector<double> b = candidate.b_values();

  std::vector<std::size_t> bounds{0};
  for (const std::size_t t : fw::find_turning_points(target_h)) {
    if (t > bounds.back() && t < target_h.size() - 1) bounds.push_back(t);
  }
  bounds.push_back(target_h.size() - 1);
  double h_max = 0.0;
  for (const double v : target_h) h_max = std::max(h_max, std::fabs(v));

  const ff::FitWeights& w = options.weights;
  std::vector<double> resampled, target, weight;
  std::vector<std::size_t> seg_begin;
  double weight_sum = 0.0;
  std::vector<double> xs, ys;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    seg_begin.push_back(target.size());
    ascending_table(target_h, target_b, bounds[s], bounds[s + 1], xs, ys);
    const std::vector<double> grid =
        fu::linspace(xs.front(), xs.back(), options.grid_per_segment);
    for (const double hq : grid) {
      target.push_back(fu::lerp_at(xs, ys, hq));
      const double ah = std::fabs(hq);
      double wg = 1.0;
      if (ah >= w.tip_fraction * h_max) {
        wg = w.tip;
      } else if (ah <= w.coercive_fraction * h_max) {
        wg = w.coercive;
      }
      weight.push_back(wg);
      weight_sum += wg;
    }
    ascending_table(h, b, bounds[s], bounds[s + 1], xs, ys);
    for (const double hq : grid) resampled.push_back(fu::lerp_at(xs, ys, hq));
  }
  seg_begin.push_back(target.size());

  double r = 0.0;
  if (w.tip == 1.0 && w.coercive == 1.0) {
    r = fu::rms_diff(resampled, target);
  } else {
    double acc = 0.0;
    for (std::size_t g = 0; g < target.size(); ++g) {
      const double d = resampled[g] - target[g];
      acc += weight[g] * d * d;
    }
    r = std::sqrt(acc / weight_sum);
  }
  out.weighted_rms = std::isfinite(r) ? r : kInf;
  if (!std::isfinite(r)) return out;
  for (std::size_t s = 0; s + 1 < seg_begin.size(); ++s) {
    const std::size_t n = seg_begin[s + 1] - seg_begin[s];
    out.segment_rms.push_back(
        fu::rms_diff({resampled.data() + seg_begin[s], n},
                     {target.data() + seg_begin[s], n}));
  }
  return out;
}

/// residual() and every report() figure equal the reference bit for bit.
void expect_matches_reference(const std::vector<double>& target_h,
                              const std::vector<double>& target_b,
                              const ff::FitObjectiveOptions& options,
                              const fm::BhCurve& candidate) {
  const ff::FitObjective objective(target_h, target_b, fm::TimelessConfig{},
                                   options);
  const ReferenceScore ref =
      reference_score(target_h, target_b, candidate, options);
  EXPECT_EQ(bits(objective.residual(candidate)), bits(ref.weighted_rms));
  const ff::ResidualReport rep = objective.report(candidate);
  EXPECT_EQ(bits(rep.weighted_rms), bits(ref.weighted_rms));
  ASSERT_EQ(rep.segments.size(), ref.segment_rms.size());
  for (std::size_t s = 0; s < rep.segments.size(); ++s) {
    EXPECT_EQ(bits(rep.segments[s].rms_b), bits(ref.segment_rms[s]))
        << "segment " << s;
  }
}

fm::BhCurve curve_of(const std::vector<double>& h, const std::vector<double>& b) {
  fm::BhCurve c;
  for (std::size_t i = 0; i < h.size(); ++i) c.append(h[i], 0.0, b[i]);
  return c;
}

void expect_recovered(const fm::JaParameters& fitted,
                      const fm::JaParameters& truth, double tol) {
  EXPECT_NEAR(fitted.ms, truth.ms, tol * truth.ms);
  EXPECT_NEAR(fitted.a, truth.a, tol * truth.a);
  EXPECT_NEAR(fitted.k, truth.k, tol * truth.k);
  EXPECT_NEAR(fitted.c, truth.c, tol * truth.c);
  EXPECT_NEAR(fitted.alpha, truth.alpha, tol * truth.alpha);
}

}  // namespace

// ------------------------------------------------------------- objective --

TEST(FitObjective, ZeroResidualAgainstItself) {
  const fm::BhCurve target = simulate(ground_truth());
  const ff::FitObjective objective(target);
  EXPECT_EQ(objective.residual(target), 0.0);
  EXPECT_EQ(objective.sweep().size(), target.size());
}

TEST(FitObjective, ResidualGrowsWithParameterError) {
  const fm::JaParameters truth = ground_truth();
  const ff::FitObjective objective(simulate(truth));

  fm::JaParameters off = truth;
  off.ms *= 1.01;
  const double small = objective.residual(simulate(off));
  off.ms = truth.ms * 1.2;
  const double large = objective.residual(simulate(off));
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

TEST(FitObjective, SegmentsCoverTheWholeSweep) {
  const ff::FitObjective objective(simulate(ground_truth()));
  // Virgin rise + down branch + up branch.
  const auto rep = objective.report(simulate(ground_truth()));
  ASSERT_EQ(rep.segments.size(), 3u);
  EXPECT_DOUBLE_EQ(rep.segments[0].h_begin, 0.0);
  EXPECT_DOUBLE_EQ(rep.segments[0].h_end, 8000.0);
  EXPECT_DOUBLE_EQ(rep.segments[1].h_end, -8000.0);
  EXPECT_DOUBLE_EQ(rep.segments[2].h_end, 8000.0);
  EXPECT_EQ(rep.weighted_rms, 0.0);
}

TEST(FitObjective, RegionWeightsEmphasiseTheTips) {
  const fm::JaParameters truth = ground_truth();
  const fm::BhCurve target = simulate(truth);

  // A candidate wrong mostly in saturation level: tips disagree, coercive
  // zone is close. Weighting the tips up must raise the score relative to
  // weighting them down.
  fm::JaParameters off = truth;
  off.ms *= 1.1;
  const fm::BhCurve candidate = simulate(off);

  ff::FitObjectiveOptions tips_up;
  tips_up.weights.tip = 10.0;
  ff::FitObjectiveOptions tips_down;
  tips_down.weights.coercive = 10.0;
  const ff::FitObjective obj_up(target, {}, tips_up);
  const ff::FitObjective obj_down(target, {}, tips_down);
  EXPECT_GT(obj_up.residual(candidate), obj_down.residual(candidate));
}

TEST(FitObjective, MismatchedCandidateScoresInfinite) {
  const fm::BhCurve target = simulate(ground_truth());
  const ff::FitObjective objective(target);
  fm::BhCurve short_curve;
  short_curve.append(0.0, 0.0, 0.0);
  short_curve.append(1.0, 0.0, 0.0);
  EXPECT_TRUE(std::isinf(objective.residual(short_curve)));

  // Same length, flux identical to the target, but one field sample off
  // sweep(): the score reads only flux at precomputed sample indices, so a
  // candidate sampled anywhere else cannot be compared.
  std::vector<fm::BhPoint> points = target.points();
  points[7].h += 1.0;
  const fm::BhCurve off_sweep(std::move(points));
  EXPECT_TRUE(std::isinf(objective.residual(off_sweep)));
  EXPECT_TRUE(std::isinf(objective.report(off_sweep).weighted_rms));
  EXPECT_TRUE(objective.report(off_sweep).segments.empty());
}

TEST(FitObjective, RejectsDegenerateTargets) {
  EXPECT_THROW(ff::FitObjective({1.0}, {0.5}), std::invalid_argument);
  EXPECT_THROW(ff::FitObjective({1.0, 2.0}, {0.5}), std::invalid_argument);
  EXPECT_THROW(ff::FitObjective({0.0, 0.0, 0.0}, {0.1, 0.2, 0.3}),
               std::invalid_argument);
  // Non-finite samples in either column.
  const fm::BhCurve target = simulate(ground_truth());
  std::vector<double> h = target.h_values();
  h[5] = std::nan("");
  EXPECT_THROW(ff::FitObjective(h, target.b_values()), std::invalid_argument);
  for (const double bad : {std::nan(""), kInf}) {
    std::vector<double> b = target.b_values();
    b[5] = bad;
    EXPECT_THROW(ff::FitObjective(target.h_values(), b), std::invalid_argument);
  }
}

TEST(FitObjective, RejectsNegativeAndNonFiniteWeights) {
  // A negative weight would reward misfit in its region; a non-finite one
  // poisons every score.
  const fm::BhCurve target = simulate(ground_truth());
  for (const double bad : {-1.0, -1e-300, std::nan(""), kInf}) {
    ff::FitObjectiveOptions tip;
    tip.weights.tip = bad;
    EXPECT_THROW(ff::FitObjective(target, {}, tip), std::invalid_argument)
        << "tip " << bad;
    ff::FitObjectiveOptions coercive;
    coercive.weights.coercive = bad;
    EXPECT_THROW(ff::FitObjective(target, {}, coercive), std::invalid_argument)
        << "coercive " << bad;
  }
  // Zero is a valid weight: the region simply does not count.
  ff::FitObjectiveOptions no_tips;
  no_tips.weights.tip = 0.0;
  EXPECT_NO_THROW(ff::FitObjective(target, {}, no_tips));
}

TEST(FitObjective, ResidualMatchesTheLerpReference) {
  const fm::BhCurve target = simulate(ground_truth());
  ff::FitObjectiveOptions weighted;
  weighted.weights.tip = 4.0;
  weighted.weights.coercive = 0.3;
  for (const ff::FitObjectiveOptions& options :
       {ff::FitObjectiveOptions{}, weighted}) {
    for (const double scale : {1.0, 0.97, 1.004, 1.2}) {
      fm::JaParameters off = ground_truth();
      off.ms *= scale;
      off.k *= 2.0 - scale;
      off.alpha *= scale;
      expect_matches_reference(target.h_values(), target.b_values(), options,
                               simulate(off));
    }
    // A +inf flux at the first sample, which the first grid point reads.
    std::vector<fm::BhPoint> points = simulate(ground_truth()).points();
    points[0].b = kInf;
    const fm::BhCurve poisoned(std::move(points));
    expect_matches_reference(target.h_values(), target.b_values(), options,
                             poisoned);
    EXPECT_TRUE(std::isinf(
        ff::FitObjective(target, {}, options).residual(poisoned)));
  }
}

TEST(FitObjective, ResidualMatchesTheLerpReferenceOnStalledFallingTarget) {
  // A measured-looking loop whose first branch falls, and whose acquisition
  // stalls: every fifth sample and both turning samples repeat, so the
  // branch tables must drop samples that do not advance the field.
  std::vector<double> h;
  const auto leg = [&h](double from, double to, double step) {
    const double dir = to > from ? 1.0 : -1.0;
    for (double x = from; dir * (to - x) > 0.0; x += dir * step) {
      h.push_back(x);
      if (h.size() % 5 == 0) h.push_back(x);
    }
    h.push_back(to);
    h.push_back(to);
  };
  leg(700.0, -6000.0, 173.0);
  leg(-6000.0, 6000.0, 211.0);
  leg(6000.0, -2500.0, 197.0);
  std::vector<double> b(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    const double rising = i > 0 && h[i] > h[i - 1] ? 1.0 : -1.0;
    b[i] = 1.4 * std::tanh(h[i] / 1800.0) - 0.15 * rising;
  }
  ASSERT_GE(fw::find_turning_points(h).size(), 2u);

  ff::FitObjectiveOptions weighted;
  weighted.weights.tip = 2.5;
  weighted.weights.coercive = 6.0;
  for (const ff::FitObjectiveOptions& options :
       {ff::FitObjectiveOptions{}, weighted}) {
    expect_matches_reference(h, b, options, curve_of(h, b));
    std::vector<double> bc = b;
    for (std::size_t i = 0; i < bc.size(); ++i) {
      bc[i] = 1.01 * bc[i] + 0.003 * std::sin(0.37 * static_cast<double>(i));
    }
    expect_matches_reference(h, b, options, curve_of(h, bc));
    bc[0] = kInf;
    expect_matches_reference(h, b, options, curve_of(h, bc));
  }
}

TEST(FitObjective, ScenarioIsPackable) {
  const ff::FitObjective objective(simulate(ground_truth()));
  const fc::Scenario s = objective.scenario(ground_truth());
  EXPECT_NE(fc::plan_route(s), fc::PlanRoute::kFallback);
}

// -------------------------------------------------- core batch helper ----

TEST(ScenariosForParameters, BuildsHomogeneousPackableBatch) {
  const std::vector<fm::JaParameters> params(7, ground_truth());
  const auto scenarios = fc::scenarios_for_parameters(
      params, fm::TimelessConfig{}, measurement_sweep(), "gen/");
  ASSERT_EQ(scenarios.size(), 7u);
  EXPECT_EQ(scenarios.front().name, "gen/0");
  EXPECT_EQ(scenarios.back().name, "gen/6");
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.frontend, fc::Frontend::kDirect);
    EXPECT_NE(fc::plan_route(s), fc::PlanRoute::kFallback);
  }
}

// -------------------------------------------------------------- optimizer --

TEST(NelderMead, MinimisesAShiftedQuadratic) {
  // f(x) = |x - t|^2 with t = (0.3, -1.2, 2.5).
  const std::vector<double> t = {0.3, -1.2, 2.5};
  ff::NelderMead nm({0.0, 0.0, 0.0}, 0.5);
  int safety = 0;
  while (!nm.converged() && ++safety < 2000) {
    const auto points = nm.ask();
    std::vector<double> values;
    for (const auto& x : points) {
      double f = 0.0;
      for (std::size_t i = 0; i < t.size(); ++i) {
        f += (x[i] - t[i]) * (x[i] - t[i]);
      }
      values.push_back(f);
    }
    nm.tell(values);
  }
  ASSERT_TRUE(nm.converged());
  EXPECT_LT(nm.best_value(), 1e-10);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(nm.best()[i], t[i], 1e-4);
  }
}

TEST(NelderMead, TreatsNanAsWorstInsteadOfWedging) {
  // A NaN pocket in the objective must not poison the ordering.
  ff::NelderMead nm({1.0, 1.0}, 0.4);
  int safety = 0;
  while (!nm.converged() && ++safety < 2000) {
    const auto points = nm.ask();
    std::vector<double> values;
    for (const auto& x : points) {
      const double f = x[0] * x[0] + x[1] * x[1];
      values.push_back(f < 0.01 ? std::nan("") : f);
    }
    nm.tell(values);
  }
  ASSERT_TRUE(nm.converged());
  EXPECT_TRUE(std::isfinite(nm.best_value()));
  EXPECT_GE(nm.best_value(), 0.01 - 1e-6);
}

TEST(NelderMead, RestartKeepsTheIncumbent) {
  ff::NelderMead nm({0.0}, 0.25);
  const auto quad = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0);
  };
  int safety = 0;
  while (!nm.converged() && ++safety < 500) {
    std::vector<double> values;
    for (const auto& x : nm.ask()) values.push_back(quad(x));
    nm.tell(values);
  }
  const double best_before = nm.best_value();
  nm.restart(0.1);
  EXPECT_FALSE(nm.converged());
  EXPECT_EQ(nm.best_value(), best_before);  // incumbent survives the re-seed
}

// ----------------------------------------------------------- end to end ---

TEST(FitJaParameters, RecoversGroundTruthExact) {
  const fm::JaParameters truth = ground_truth();
  const ff::FitObjective objective(simulate(truth));
  const ff::FitResult result = ff::fit_ja_parameters(objective, {});
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-8);
  expect_recovered(result.params, truth, 1e-3);
}

TEST(FitJaParameters, RecoversGroundTruthFastMathLane) {
  // Self-consistent on the FastMath lane: the target is generated with
  // kFast too, so the model can reach residual 0 and the acceptance bound
  // applies unchanged.
  const fm::JaParameters truth = ground_truth();
  const ff::FitObjective objective(simulate(truth, fm::BatchMath::kFast));
  ff::FitOptions options;
  options.math = fm::BatchMath::kFast;
  const ff::FitResult result = ff::fit_ja_parameters(objective, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-8);
  expect_recovered(result.params, truth, 1e-3);
}

TEST(FitJaParameters, DeterministicAcrossThreadCounts) {
  // The instances run in contiguous groups of ceil(5 / threads), one pool
  // task per group: 2 threads split them 3 + 2, 3 and 4 threads 2 + 2 + 1,
  // and 7 threads give every instance its own group. A candidate scores the
  // same whichever batch it shares, so on both math lanes every field of
  // the result must match the serial fit bitwise. Loose tolerances retire
  // the instances at different generations, so the groups end at different
  // times; the default ones run every instance to the generation cap.
  const ff::FitObjective objective(simulate(ground_truth()));
  for (const double tol : {0.1, 0.0}) {
    for (const fm::BatchMath math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
      ff::FitOptions options;
      if (tol > 0.0) options.f_tol = options.x_tol = tol;
      options.multistarts = 5;
      options.restarts = 0;
      options.max_generations = 80;
      options.math = math;
      options.threads = 1;
      const ff::FitResult base = ff::fit_ja_parameters(objective, options);
      EXPECT_EQ(base.converged, tol > 0.0);
      EXPECT_EQ(base.generations < 80u, tol > 0.0);
      for (const unsigned threads : {2u, 3u, 4u, 7u, 0u}) {
        SCOPED_TRACE(testing::Message()
                     << "tol=" << tol << " threads=" << threads << " math="
                     << (math == fm::BatchMath::kFast ? "fast" : "exact"));
        options.threads = threads;
        const ff::FitResult r = ff::fit_ja_parameters(objective, options);
        EXPECT_EQ(r.params.ms, base.params.ms);
        EXPECT_EQ(r.params.a, base.params.a);
        EXPECT_EQ(r.params.k, base.params.k);
        EXPECT_EQ(r.params.c, base.params.c);
        EXPECT_EQ(r.params.alpha, base.params.alpha);
        EXPECT_EQ(bits(r.residual), bits(base.residual));
        EXPECT_EQ(r.generations, base.generations);
        EXPECT_EQ(r.evaluations, base.evaluations);
        EXPECT_EQ(r.winning_start, base.winning_start);
        EXPECT_EQ(r.converged, base.converged);
      }
    }
  }
}

TEST(FitJaParameters, ExceptionInAGroupReachesTheCaller) {
  // A first simplex edge of the smallest subnormal converges at once, and
  // the halved restart edge underflows to 0, which NelderMead::restart
  // rejects. That throw happens inside a group's pool task; it must reach
  // the caller, not terminate the worker thread.
  const ff::FitObjective objective(simulate(ground_truth()));
  ff::FitOptions options;
  options.multistarts = 4;
  options.restarts = 1;
  options.initial_scale = std::numeric_limits<double>::denorm_min();
  for (const unsigned threads : {1u, 4u}) {
    options.threads = threads;
    EXPECT_THROW((void)ff::fit_ja_parameters(objective, options),
                 std::invalid_argument)
        << "threads=" << threads;
  }
}

TEST(FitJaParameters, PreCancelledTokenStopsBeforeAnyGeneration) {
  const ff::FitObjective objective(simulate(ground_truth()));
  ff::FitOptions options;
  options.limits.cancel.cancel();
  const ff::FitResult result = ff::fit_ja_parameters(objective, options);
  EXPECT_EQ(result.stop.code, fc::ErrorCode::kCancelled);
  EXPECT_EQ(result.generations, 0u);
  EXPECT_EQ(result.evaluations, 0u);
  EXPECT_FALSE(result.converged);
}

TEST(FitJaParameters, DeadlineStopsAtAGenerationBoundaryWithIncumbent) {
  // An already-expired deadline still runs zero generations; a generous one
  // behaves exactly like no limit. Between the two, whatever generation the
  // clock interrupts, the incumbent from completed generations survives.
  const ff::FitObjective objective(simulate(ground_truth()));

  ff::FitOptions expired;
  expired.limits.deadline_s = 1e-9;
  const ff::FitResult none = ff::fit_ja_parameters(objective, expired);
  EXPECT_EQ(none.stop.code, fc::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(none.generations, 0u);

  ff::FitOptions generous;
  generous.multistarts = 2;
  generous.restarts = 0;
  generous.max_generations = 40;
  generous.limits.deadline_s = 3600.0;
  const ff::FitResult full = ff::fit_ja_parameters(objective, generous);
  EXPECT_TRUE(full.stop.ok());
  EXPECT_GT(full.generations, 0u);
  EXPECT_TRUE(std::isfinite(full.residual));
}

TEST(FitJaParameters, CancellationMidSearchKeepsBestSoFar) {
  // Cancel from another thread while the search is running: the fit must
  // return promptly with stop == kCancelled and, if any generation
  // completed, a finite incumbent — never throw, never wedge.
  const ff::FitObjective objective(simulate(ground_truth()));
  ff::FitOptions options;
  options.threads = 2;
  options.max_generations = 100000;  // the cancel is what ends the search
  std::thread canceller([&options] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    options.limits.cancel.cancel();
  });
  const ff::FitResult result = ff::fit_ja_parameters(objective, options);
  canceller.join();
  // The cancel races natural convergence: on a fast host the search can
  // finish first, which is a legitimate ok() outcome. Either way the fit
  // must return a well-formed result — never throw, never wedge. A
  // cancelled run may have evaluated a generation whose values were
  // discarded before tell(), so the incumbent can still be the initial
  // +inf — but it must never be NaN, and a natural finish must be finite.
  if (result.stop.ok()) {
    EXPECT_TRUE(std::isfinite(result.residual));
  } else {
    EXPECT_EQ(result.stop.code, fc::ErrorCode::kCancelled);
    EXPECT_FALSE(std::isnan(result.residual));
  }
}

TEST(FitJaParameters, RejectsAConfigNoCandidateCanRunWith) {
  // Every candidate would fail validation: the fit stops before evaluating
  // one, the way it stops on a non-JA objective, instead of simulating
  // every generation and returning the start point.
  const fm::BhCurve target = simulate(ground_truth());
  for (const double dhmax : {0.0, -5.0, std::nan("")}) {
    fm::TimelessConfig config;
    config.dhmax = dhmax;
    const ff::FitObjective objective(target, config);
    const ff::FitResult result = ff::fit_ja_parameters(objective, {});
    EXPECT_EQ(result.stop.code, fc::ErrorCode::kInvalidScenario)
        << "dhmax " << dhmax;
    EXPECT_NE(result.stop.detail.find("dhmax"), std::string::npos);
    EXPECT_EQ(result.evaluations, 0u);
    EXPECT_EQ(result.generations, 0u);
    EXPECT_TRUE(std::isinf(result.residual));
  }
  fm::TimelessConfig negative_substep;
  negative_substep.substep_max = -1.0;
  const ff::FitResult result =
      ff::fit_ja_parameters(ff::FitObjective(target, negative_substep), {});
  EXPECT_EQ(result.stop.code, fc::ErrorCode::kInvalidScenario);
  EXPECT_EQ(result.evaluations, 0u);
}

TEST(FitJaParameters, RejectsMalformedOptions) {
  const ff::FitObjective objective(simulate(ground_truth()));
  ff::FitOptions bad_bounds;
  bad_bounds.bounds.ms_lo = -1.0;
  EXPECT_THROW((void)ff::fit_ja_parameters(objective, bad_bounds),
               std::invalid_argument);
  ff::FitOptions no_starts;
  no_starts.multistarts = 0;
  EXPECT_THROW((void)ff::fit_ja_parameters(objective, no_starts),
               std::invalid_argument);
  // No generation would run: the fit used to return default parameters,
  // an infinite residual and an ok stop.
  ff::FitOptions no_generations;
  no_generations.max_generations = 0;
  EXPECT_THROW((void)ff::fit_ja_parameters(objective, no_generations),
               std::invalid_argument);
  // A negative budget used to mean unlimited restarts.
  ff::FitOptions negative_restarts;
  negative_restarts.restarts = -1;
  EXPECT_THROW((void)ff::fit_ja_parameters(objective, negative_restarts),
               std::invalid_argument);
}
