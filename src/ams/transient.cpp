#include "ams/transient.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ferro::ams {

TransientSolver::TransientSolver(TransientOptions options)
    : options_(std::move(options)), newton_(options_.newton) {}

double TransientSolver::error_norm(std::span<const double> err,
                                   std::span<const double> y_ref) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    const double scale =
        options_.abs_tol + options_.rel_tol * std::fabs(y_ref[i]);
    const double e = err[i] / scale;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(err.size()));
}

bool TransientSolver::implicit_step(OdeSystem& system, double t_old, double dt,
                                    std::span<const double> y_old,
                                    std::span<const double> y_prev,
                                    double dt_prev,
                                    std::span<const double> f_old,
                                    std::span<double> y_new) {
  const std::size_t n = system.size();
  const double t_new = t_old + dt;

  IntegrationMethod method = options_.method;
  if (method == IntegrationMethod::kGear2 && dt_prev <= 0.0) {
    method = IntegrationMethod::kBackwardEuler;  // BDF2 needs two back points
  }

  std::vector<double> f_new(n);
  ResidualFn residual;
  switch (method) {
    case IntegrationMethod::kBackwardEuler:
      residual = [&](std::span<const double> y, std::span<double> g) {
        system.derivative(t_new, y, f_new);
        for (std::size_t i = 0; i < n; ++i) {
          g[i] = y[i] - y_old[i] - dt * f_new[i];
        }
      };
      break;
    case IntegrationMethod::kTrapezoidal:
      residual = [&](std::span<const double> y, std::span<double> g) {
        system.derivative(t_new, y, f_new);
        for (std::size_t i = 0; i < n; ++i) {
          g[i] = y[i] - y_old[i] - 0.5 * dt * (f_new[i] + f_old[i]);
        }
      };
      break;
    case IntegrationMethod::kGear2: {
      const double r = dt / dt_prev;
      const double a0 = (1.0 + r) * (1.0 + r) / (1.0 + 2.0 * r);
      const double a1 = r * r / (1.0 + 2.0 * r);
      const double b0 = dt * (1.0 + r) / (1.0 + 2.0 * r);
      residual = [&, a0, a1, b0](std::span<const double> y, std::span<double> g) {
        system.derivative(t_new, y, f_new);
        for (std::size_t i = 0; i < n; ++i) {
          g[i] = y[i] - a0 * y_old[i] + a1 * y_prev[i] - b0 * f_new[i];
        }
      };
      break;
    }
  }

  // Explicit-Euler predictor as the Newton starting point.
  for (std::size_t i = 0; i < n; ++i) y_new[i] = y_old[i] + dt * f_old[i];

  const NewtonResult result = newton_.solve(n, residual, y_new);
  stats_.newton_iterations += static_cast<std::uint64_t>(result.iterations);
  return result.converged;
}

bool TransientSolver::run(OdeSystem& system, const StepCallback& on_accept) {
  const std::size_t n = system.size();
  assert(n > 0);
  stats_ = TransientStats{};

  std::vector<double> y(n), y_new(n), y_prev(n), f_old(n), err(n);
  system.initial(y);

  std::vector<double> breakpoints = options_.breakpoints;
  std::sort(breakpoints.begin(), breakpoints.end());
  std::size_t next_bp = 0;

  const double horizon = options_.t_end - options_.t_start;
  const double dt_max =
      options_.dt_max > 0.0 ? options_.dt_max : horizon / 50.0;
  double t = options_.t_start;
  double dt = std::min(options_.dt_initial, dt_max);
  double dt_prev = 0.0;
  bool have_prev = false;

  system.derivative(t, y, f_old);
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

    const bool converged = implicit_step(
        system, t, dt, y, have_prev ? std::span<const double>(y_prev)
                                    : std::span<const double>(y),
        have_prev ? dt_prev : 0.0, f_old, y_new);

    if (!converged) {
      if (dt > options_.dt_min * 4.0) {
        ++stats_.steps_rejected_newton;
        dt *= 0.25;
        continue;
      }
      // Hard failure: the solver cannot converge even at the minimum step.
      ++stats_.hard_failures;
      if (options_.abort_on_failure) return false;
      // Force-accept the best iterate and move on (commercial-solver
      // behaviour after a convergence warning) — but give up entirely when
      // failures persist back to back.
      if (++consecutive_failures > kMaxConsecutiveFailures) return false;
    } else {
      consecutive_failures = 0;
    }

    // Local error estimate: deviation of the implicit solution from the
    // explicit-Euler predictor, scaled by the tolerances. Conservative and
    // method-agnostic; SPICE kernels use the same divided-difference idea.
    for (std::size_t i = 0; i < n; ++i) {
      err[i] = y_new[i] - (y[i] + dt * f_old[i]);
    }
    const double enorm = error_norm(err, y_new);

    if (converged && enorm > 1.0 && dt > options_.dt_min * 4.0) {
      ++stats_.steps_rejected_lte;
      const double shrink =
          std::clamp(0.9 / std::sqrt(enorm), 0.2, 0.9);
      dt *= shrink;
      continue;
    }

    // Accept.
    y_prev = y;
    dt_prev = dt;
    have_prev = true;
    y = y_new;
    t += dt;
    ++stats_.steps_accepted;
    if (stats_.min_dt_used == 0.0 || dt < stats_.min_dt_used) {
      stats_.min_dt_used = dt;
    }
    stats_.max_dt_used = std::max(stats_.max_dt_used, dt);

    system.on_step_accepted(t, y);
    system.derivative(t, y, f_old);
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
