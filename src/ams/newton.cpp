#include "ams/newton.hpp"

#include <cmath>
#include <limits>

namespace ferro::ams {

double inf_norm(std::span<const double> v) {
  double worst = 0.0;
  for (const double x : v) {
    if (std::isnan(x)) {
      // Propagate: a NaN residual must read as "not converged", never as 0.
      return std::numeric_limits<double>::quiet_NaN();
    }
    const double a = std::fabs(x);
    if (a > worst) worst = a;
  }
  return worst;
}

void NewtonSolver::numeric_jacobian(std::size_t n, const ResidualFn& residual,
                                    std::span<const double> x,
                                    std::span<const double> f0, Matrix& j) {
  x_pert_.assign(x.begin(), x.end());
  f_pert_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    const double h = options_.fd_epsilon * (1.0 + std::fabs(x[c]));
    const double saved = x_pert_[c];
    x_pert_[c] = saved + h;
    residual(x_pert_, f_pert_);
    x_pert_[c] = saved;
    const double inv_h = 1.0 / h;
    for (std::size_t r = 0; r < n; ++r) {
      j.at(r, c) = (f_pert_[r] - f0[r]) * inv_h;
    }
  }
}

NewtonResult NewtonSolver::solve(std::size_t n, ResidualFn residual,
                                 std::span<double> x, const JacobianFn& jacobian) {
  NewtonResult result;
  f_.resize(n);
  dx_.resize(n);
  x_trial_.resize(n);
  f_trial_.resize(n);
  jac_.resize(n, n);

  residual(x, f_);
  double f_norm = inf_norm(f_);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (f_norm <= options_.tolerance) {
      result.converged = true;
      result.iterations = iter;
      result.residual_norm = f_norm;
      return result;
    }

    if (jacobian) {
      jacobian(x, jac_);
    } else {
      numeric_jacobian(n, residual, x, f_, jac_);
    }
    if (!lu_.factor(jac_)) {
      result.singular_jacobian = true;
      result.iterations = iter + 1;
      result.residual_norm = f_norm;
      return result;
    }
    // Solve J dx = -F.
    for (std::size_t i = 0; i < n; ++i) f_[i] = -f_[i];
    lu_.solve(f_, dx_);

    // Damped update: halve the step until the residual stops growing.
    double lambda = 1.0;
    bool improved = false;
    for (int halving = 0; halving <= options_.max_damping_halvings; ++halving) {
      for (std::size_t i = 0; i < n; ++i) x_trial_[i] = x[i] + lambda * dx_[i];
      residual(x_trial_, f_trial_);
      const double trial_norm = inf_norm(f_trial_);
      if (trial_norm < f_norm || trial_norm <= options_.tolerance) {
        std::copy(x_trial_.begin(), x_trial_.end(), x.begin());
        f_ = f_trial_;
        f_norm = trial_norm;
        improved = true;
        break;
      }
      lambda *= 0.5;
    }
    if (!improved) {
      // Full stall: accept the smallest step if it at least moves x, else
      // report divergence.
      const double dx_norm = inf_norm(dx_);
      if (dx_norm * lambda <= options_.step_tolerance) {
        result.iterations = iter + 1;
        result.residual_norm = f_norm;
        return result;
      }
      std::copy(x_trial_.begin(), x_trial_.end(), x.begin());
      residual(x, f_);
      f_norm = inf_norm(f_);
    }
    if (inf_norm(dx_) <= options_.step_tolerance && f_norm <= options_.tolerance) {
      result.converged = true;
      result.iterations = iter + 1;
      result.residual_norm = f_norm;
      return result;
    }
  }

  result.converged = f_norm <= options_.tolerance;
  result.iterations = options_.max_iterations;
  result.residual_norm = f_norm;
  return result;
}

}  // namespace ferro::ams
