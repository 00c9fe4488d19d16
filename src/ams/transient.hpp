// Adaptive trapezoidal engine for one quantity — the stand-in for the
// VHDL-AMS analogue solver of the paper's comparison (README "Frontend
// packing" describes the kAms frontend built on it).
//
// Either route of the comparison hands the solver a single quantity: the
// excitation H(t) when the timeless model keeps the JA slope out of the
// solver (core/ams_ja), or m_irr when the `'INTEG` route adds dM/dt as a
// quantity (mag/time_domain_ja). So the engine integrates one scalar ODE
// y' = f(t, y) by the trapezoidal rule. Per step it solves the implicit
// formula with damped Newton, estimates the local truncation error against
// the explicit-Euler predictor, and accepts/rejects with step-size control.
// The rejection and Newton-failure counters are the observables of
// experiment CLM2: a model whose equations are discontinuous in time (the
// `'INTEG`-style JA conversion) drives these counters up at every field
// turning point, while the timeless model keeps the solver's equations
// smooth.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ferro::ams {

/// A scalar first-order ODE y' = f(t, y).
///
/// Implementations must be re-evaluable at arbitrary (t, y): the adaptive
/// engine retries rejected steps and Newton probes trial states. A model
/// with discrete state keeps it out of derivative() and replays the
/// accepted steps afterwards (core::run_ams_timeless).
class OdeSystem {
 public:
  virtual ~OdeSystem() = default;

  /// Initial condition at t_start.
  [[nodiscard]] virtual double initial() const = 0;

  /// f(t, y).
  [[nodiscard]] virtual double derivative(double t, double y) const = 0;
};

struct TransientOptions {
  double t_start = 0.0;
  double t_end = 1.0;
  double dt_initial = 1e-6;
  double dt_min = 1e-13;
  double dt_max = 0.0;  ///< 0 = (t_end - t_start)/50
  double rel_tol = 1e-4;
  double abs_tol = 1e-9;
  /// Mandatory time points (source breakpoints); the engine never steps
  /// across one.
  std::vector<double> breakpoints;
};

struct TransientStats {
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected_lte = 0;     ///< rejected by error control
  std::uint64_t steps_rejected_newton = 0;  ///< rejected by non-convergence
  std::uint64_t newton_iterations = 0;
  std::uint64_t hard_failures = 0;  ///< non-convergence at dt_min
  double min_dt_used = 0.0;
  double max_dt_used = 0.0;
};

/// Callback fired after each accepted step: (t, y).
using StepCallback = std::function<void(double, double)>;

/// Damped Newton on one unknown: solves g(y) = 0 from `y` (updated in
/// place) with a forward-difference slope, at most 50 iterations of up to
/// 12 step halvings each. Converged once |g(y)| <= max(1e-10, 4 eps |y|)
/// (eps the double epsilon; exactly 1e-10 for |y| <= 1e5, and 1e-10 for a
/// non-finite y), so an iterate of a few MA/m, whose residual cannot
/// resolve 1e-10, converges too. Fails on a slope below 1e-300 in
/// magnitude, on a stalled step that no longer moves y, or at the
/// iteration cap. Adds the iterations it took to `iterations`.
bool solve_newton(const std::function<double(double)>& g, double& y,
                  std::uint64_t& iterations);

class TransientSolver {
 public:
  explicit TransientSolver(TransientOptions options = {});

  /// Integrates `system` from t_start to t_end. A step whose Newton solve
  /// fails even at dt_min is a hard failure and is force-accepted (what
  /// commercial solvers do after a convergence warning). Returns false, the
  /// run stopping short of t_end, when 25 consecutive hard failures have
  /// been force-accepted and the next step fails as well.
  bool run(const OdeSystem& system, const StepCallback& on_accept = {});

  [[nodiscard]] const TransientStats& stats() const { return stats_; }

 private:
  TransientOptions options_;
  TransientStats stats_;
};

}  // namespace ferro::ams
