#include "ams/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace ferro::ams {

namespace {

/// |g| at acceptance for the iterate y: 1e-10, or four spacings of doubles
/// around a finite y once that is larger (|y| above ~1.1e5). A residual
/// evaluated at y cannot resolve much below the spacing around y, which
/// exceeds 1e-10 itself from |y| = 2^21 on.
double acceptance_tolerance(double y) {
  constexpr double kTolerance = 1e-10;
  const double spacings =
      4.0 * std::numeric_limits<double>::epsilon() * std::fabs(y);
  return std::isfinite(spacings) ? std::max(kTolerance, spacings) : kTolerance;
}

}  // namespace

bool solve_newton(const std::function<double(double)>& g, double& y,
                  std::uint64_t& iterations) {
  constexpr int kMaxIterations = 50;
  constexpr double kStepTolerance = 1e-14;  // |dy| at acceptance
  constexpr int kMaxHalvings = 12;          // line-search halvings per iteration
  constexpr double kFdEpsilon = 1e-8;       // forward-difference perturbation scale

  double f = g(y);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    if (std::fabs(f) <= acceptance_tolerance(y)) {
      iterations += static_cast<std::uint64_t>(iter);
      return true;
    }

    const double h = kFdEpsilon * (1.0 + std::fabs(y));
    const double slope = (g(y + h) - f) * (1.0 / h);
    if (std::fabs(slope) < 1e-300) {
      iterations += static_cast<std::uint64_t>(iter + 1);
      return false;
    }
    const double dy = -f / slope;

    // Damped update: halve the step until the residual stops growing.
    double lambda = 1.0;
    double y_trial = y;
    double f_trial = f;
    bool improved = false;
    for (int halving = 0; halving <= kMaxHalvings; ++halving) {
      y_trial = y + lambda * dy;
      f_trial = g(y_trial);
      if (std::fabs(f_trial) < std::fabs(f) ||
          std::fabs(f_trial) <= acceptance_tolerance(y_trial)) {
        improved = true;
        break;
      }
      lambda *= 0.5;
    }
    // Full stall: take the smallest step if it at least moves y, else
    // report divergence.
    if (!improved && std::fabs(dy) * lambda <= kStepTolerance) {
      iterations += static_cast<std::uint64_t>(iter + 1);
      return false;
    }
    y = y_trial;
    f = f_trial;
    if (std::fabs(dy) <= kStepTolerance &&
        std::fabs(f) <= acceptance_tolerance(y)) {
      iterations += static_cast<std::uint64_t>(iter + 1);
      return true;
    }
  }
  iterations += static_cast<std::uint64_t>(kMaxIterations);
  return std::fabs(f) <= acceptance_tolerance(y);
}

TransientSolver::TransientSolver(TransientOptions options)
    : options_(std::move(options)) {}

bool TransientSolver::run(const OdeSystem& system,
                          const StepCallback& on_accept) {
  stats_ = TransientStats{};

  double y = system.initial();

  std::vector<double> breakpoints = options_.breakpoints;
  std::sort(breakpoints.begin(), breakpoints.end());
  std::size_t next_bp = 0;

  const double horizon = options_.t_end - options_.t_start;
  const double dt_max =
      options_.dt_max > 0.0 ? options_.dt_max : horizon / 50.0;
  double t = options_.t_start;
  double dt = std::min(options_.dt_initial, dt_max);

  double f_old = system.derivative(t, y);
  if (on_accept) on_accept(t, y);

  const double t_eps = 1e-12 * std::max(1.0, std::fabs(options_.t_end));

  // Give-up guard for the force-accept path: a permanently hostile system
  // (e.g. NaN derivatives) would otherwise crawl forward at dt_min forever.
  constexpr std::uint64_t kMaxConsecutiveFailures = 25;
  std::uint64_t consecutive_failures = 0;

  while (t < options_.t_end - t_eps) {
    // Respect the horizon and the next breakpoint.
    while (next_bp < breakpoints.size() && breakpoints[next_bp] <= t + t_eps) {
      ++next_bp;
    }
    double dt_limit = options_.t_end - t;
    if (next_bp < breakpoints.size()) {
      dt_limit = std::min(dt_limit, breakpoints[next_bp] - t);
    }
    dt = std::min({dt, dt_max, dt_limit});
    if (dt < options_.dt_min) dt = std::min(options_.dt_min, dt_limit);

    // Trapezoidal step to t + dt, started at the explicit-Euler predictor.
    const double t_new = t + dt;
    double y_new = y + dt * f_old;
    const bool converged = solve_newton(
        [&](double y_trial) {
          return y_trial - y -
                 0.5 * dt * (system.derivative(t_new, y_trial) + f_old);
        },
        y_new, stats_.newton_iterations);

    if (!converged) {
      if (dt > options_.dt_min * 4.0) {
        ++stats_.steps_rejected_newton;
        dt *= 0.25;
        continue;
      }
      // Hard failure: the solver cannot converge even at the minimum step.
      // Force-accept the best iterate and move on (commercial-solver
      // behaviour after a convergence warning) — but give up entirely when
      // failures persist back to back.
      ++stats_.hard_failures;
      if (++consecutive_failures > kMaxConsecutiveFailures) return false;
    } else {
      consecutive_failures = 0;
    }

    // Local error estimate: deviation of the implicit solution from the
    // explicit-Euler predictor, scaled by the tolerances. Conservative;
    // SPICE kernels use the same divided-difference idea.
    const double e = (y_new - (y + dt * f_old)) /
                     (options_.abs_tol + options_.rel_tol * std::fabs(y_new));
    const double enorm = std::sqrt(e * e);

    if (converged && enorm > 1.0 && dt > options_.dt_min * 4.0) {
      ++stats_.steps_rejected_lte;
      dt *= std::clamp(0.9 / std::sqrt(enorm), 0.2, 0.9);
      continue;
    }

    // Accept.
    y = y_new;
    t += dt;
    ++stats_.steps_accepted;
    if (stats_.min_dt_used == 0.0 || dt < stats_.min_dt_used) {
      stats_.min_dt_used = dt;
    }
    stats_.max_dt_used = std::max(stats_.max_dt_used, dt);

    f_old = system.derivative(t, y);
    if (on_accept) on_accept(t, y);

    // Step-size growth, capped; restart cautiously after a breakpoint.
    const double grow =
        enorm > 0.0 ? std::clamp(0.9 / std::sqrt(enorm), 0.5, 4.0) : 4.0;
    dt *= grow;
    if (next_bp < breakpoints.size() &&
        std::fabs(t - breakpoints[next_bp]) <= t_eps) {
      ++next_bp;
      dt = std::min(dt, options_.dt_initial);
    }
  }
  return true;
}

}  // namespace ferro::ams
