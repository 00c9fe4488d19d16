// Damped Newton-Raphson for small nonlinear systems F(x) = 0.
//
// This is the iteration loop every analogue solver runs per implicit time
// step; its failure statistics are exactly what the paper's CLM2 experiment
// counts when the `'INTEG`-style JA model hits a field turning point.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ams/matrix.hpp"

namespace ferro::ams {

/// Residual evaluator: writes F(x) into `f` (both of size n).
using ResidualFn = std::function<void(std::span<const double> x, std::span<double> f)>;

/// Optional analytic Jacobian: writes dF/dx into `j` (n x n). When absent
/// the solver builds a forward-difference Jacobian.
using JacobianFn = std::function<void(std::span<const double> x, Matrix& j)>;

struct NewtonOptions {
  int max_iterations = 50;
  double tolerance = 1e-10;        ///< infinity-norm of F at acceptance
  double step_tolerance = 1e-14;   ///< infinity-norm of dx at acceptance
  int max_damping_halvings = 12;   ///< line-search halvings per iteration
  double fd_epsilon = 1e-8;        ///< forward-difference perturbation scale
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;
  bool singular_jacobian = false;
};

/// Solves F(x) = 0 starting from `x` (updated in place).
class NewtonSolver {
 public:
  explicit NewtonSolver(NewtonOptions options = {}) : options_(options) {}

  NewtonResult solve(std::size_t n, ResidualFn residual, std::span<double> x,
                     const JacobianFn& jacobian = {});

 private:
  void numeric_jacobian(std::size_t n, const ResidualFn& residual,
                        std::span<const double> x, std::span<const double> f0,
                        Matrix& j);

  NewtonOptions options_;
  // scratch buffers reused across calls to avoid per-step allocation
  Matrix jac_;
  std::vector<double> f_, dx_, x_trial_, f_trial_, x_pert_, f_pert_;
  LuSolver lu_;
};

/// Infinity norm helper shared with the transient engine.
[[nodiscard]] double inf_norm(std::span<const double> v);

}  // namespace ferro::ams
