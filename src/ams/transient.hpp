// Adaptive implicit transient engine — the stand-in for the VHDL-AMS
// analogue solver of the paper's comparison (README "Frontend packing"
// describes the kAms frontend built on it).
//
// Per step it solves the implicit formula with damped Newton, estimates the
// local truncation error against an embedded lower-order solution, and
// accepts/rejects with step-size control. The rejection and Newton-failure
// counters are the observables of experiment CLM2: a model whose equations
// are discontinuous in time (the `'INTEG`-style JA conversion) drives these
// counters up at every field turning point, while the timeless model keeps
// the solver's equations smooth.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ams/integrator.hpp"
#include "ams/newton.hpp"
#include "ams/ode.hpp"

namespace ferro::ams {

struct TransientOptions {
  double t_start = 0.0;
  double t_end = 1.0;
  double dt_initial = 1e-6;
  double dt_min = 1e-13;
  double dt_max = 0.0;  ///< 0 = (t_end - t_start)/50
  double rel_tol = 1e-4;
  double abs_tol = 1e-9;
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  NewtonOptions newton;
  /// Mandatory time points (source breakpoints); the engine never steps
  /// across one.
  std::vector<double> breakpoints;
  /// When Newton cannot converge even at dt_min: if true, abort the run;
  /// if false, force-accept the best iterate and continue (what commercial
  /// solvers do after emitting a convergence warning).
  bool abort_on_failure = false;
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
using StepCallback = std::function<void(double, std::span<const double>)>;

class TransientSolver {
 public:
  explicit TransientSolver(TransientOptions options = {});

  /// Integrates `system` from t_start to t_end. Returns false when it stops
  /// short of t_end: at a hard failure (no Newton convergence at dt_min)
  /// under abort_on_failure, or otherwise when 25 consecutive hard failures
  /// have been force-accepted and the next step fails as well.
  bool run(OdeSystem& system, const StepCallback& on_accept = {});

  [[nodiscard]] const TransientStats& stats() const { return stats_; }

 private:
  /// Solves one implicit step to `t_new`; returns Newton convergence.
  bool implicit_step(OdeSystem& system, double t_old, double dt,
                     std::span<const double> y_old,
                     std::span<const double> y_prev, double dt_prev,
                     std::span<const double> f_old, std::span<double> y_new);

  /// Weighted RMS norm of the error estimate against the tolerances.
  double error_norm(std::span<const double> err, std::span<const double> y_ref) const;

  TransientOptions options_;
  TransientStats stats_;
  NewtonSolver newton_;
};

}  // namespace ferro::ams
