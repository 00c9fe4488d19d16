#include "ckt/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

namespace ferro::ckt {

namespace {

/// Assigns branch indices and returns the total unknown count.
std::size_t layout_unknowns(Circuit& circuit) {
  std::size_t branch = 0;
  for (const auto& device : circuit.devices()) {
    device->assign_branches(branch);
    branch += device->branch_count();
  }
  return circuit.node_count() + branch;
}

[[nodiscard]] bool any_nonlinear(const Circuit& circuit) {
  for (const auto& device : circuit.devices()) {
    if (device->nonlinear()) return true;
  }
  return false;
}

enum class NewtonOutcome {
  kSingular,   ///< the MNA matrix did not factor; the iterate is unchanged
  kNonFinite,  ///< the solve came back NaN/Inf; the iterate is unchanged
  kMoving,     ///< the iterate moved past the tolerances
  kSettled,    ///< converged, and past the seed iterate if the circuit is nonlinear
};

/// The stamp half of one Newton (successive-linearisation) iteration at the
/// iterate `x`: zero the MNA system, stamp every device at ctx.iteration,
/// and add gmin from every node to ground.
void stamp_system(Circuit& circuit, EvalContext& ctx,
                  const EngineOptions& options, std::span<const double> x,
                  detail::NewtonScratch& scratch) {
  const std::size_t nodes = circuit.node_count();
  scratch.a.fill(0.0);
  std::fill(scratch.z.begin(), scratch.z.end(), 0.0);
  ctx.x = x;

  Stamper stamper(scratch.a, scratch.z, x, nodes);
  for (const auto& device : circuit.devices()) {
    device->stamp(stamper, ctx);
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    scratch.a.at(i, i) += options.gmin;
  }
}

/// The linear solve between the halves: LU-factor the stamped system and
/// solve it into scratch.x_new. False when the matrix is singular.
bool solve_system(detail::NewtonScratch& scratch) {
  if (!scratch.lu.factor(scratch.a)) return false;
  scratch.lu.solve(scratch.z, scratch.x_new);
  return true;
}

/// The conclude half: count the iteration, test convergence of `x_new`
/// against `x`, and move `x` to the new iterate. A non-finite `x_new` is a
/// failed iteration that leaves `x` alone: the tolerance test below is
/// false for NaN, so it would otherwise settle.
NewtonOutcome conclude_iteration(const EvalContext& ctx,
                                 const EngineOptions& options, bool nonlinear,
                                 std::size_t nodes, bool solved,
                                 std::vector<double>& x,
                                 std::span<const double> x_new,
                                 CircuitStats& stats) {
  if (!solved) {
    ++stats.singular_matrices;
    return NewtonOutcome::kSingular;
  }
  ++stats.newton_iterations;
  for (const double v : x_new) {
    if (!std::isfinite(v)) return NewtonOutcome::kNonFinite;
  }

  // Convergence: voltages and currents checked against their own
  // tolerances (SPICE reltol simplified to absolute tolerances here).
  bool converged = true;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double tol = i < nodes ? options.v_tolerance : options.i_tolerance;
    const double scale = 1.0 + std::fabs(x_new[i]) * 1e-3 / tol;
    if (std::fabs(x_new[i] - x[i]) > tol * scale) {
      converged = false;
      break;
    }
  }
  std::copy(x_new.begin(), x_new.end(), x.begin());
  return converged && (ctx.iteration > 0 || !nonlinear)
             ? NewtonOutcome::kSettled
             : NewtonOutcome::kMoving;
}

/// A whole Newton solve at fixed (t, dt) for the DC analyses. `x` carries
/// the initial iterate in and the solution out.
bool solve_point(Circuit& circuit, EvalContext ctx, const EngineOptions& options,
                 std::vector<double>& x, CircuitStats& stats) {
  detail::NewtonScratch scratch(x.size());
  const bool nonlinear = any_nonlinear(circuit);
  const int max_iters = nonlinear ? options.max_newton_iterations : 1;
  for (ctx.iteration = 0; ctx.iteration < max_iters; ++ctx.iteration) {
    stamp_system(circuit, ctx, options, x, scratch);
    const bool solved = solve_system(scratch);
    switch (conclude_iteration(ctx, options, nonlinear, circuit.node_count(),
                               solved, x, scratch.x_new, stats)) {
      case NewtonOutcome::kSingular:
      case NewtonOutcome::kNonFinite:
        return false;
      case NewtonOutcome::kSettled:
        return true;
      case NewtonOutcome::kMoving:
        break;
    }
  }
  return !nonlinear;
}

[[nodiscard]] core::Error invalid(std::string detail) {
  return core::make_error(core::ErrorCode::kInvalidScenario, std::move(detail));
}

}  // namespace

core::Error validate(const EngineOptions& o) {
  if (o.max_newton_iterations < 1) {
    return invalid("max_newton_iterations must be >= 1");
  }
  if (!(std::isfinite(o.v_tolerance) && o.v_tolerance > 0.0)) {
    return invalid("v_tolerance must be finite and > 0");
  }
  if (!(std::isfinite(o.i_tolerance) && o.i_tolerance > 0.0)) {
    return invalid("i_tolerance must be finite and > 0");
  }
  if (!(std::isfinite(o.gmin) && o.gmin >= 0.0)) {
    return invalid("gmin must be finite and >= 0");
  }
  return {};
}

core::Error validate(const TransientOptions& o) {
  // Negated comparisons so NaN options fail too.
  if (!(o.dt_initial > 0.0)) return invalid("dt_initial must be > 0");
  if (!(o.dt_min > 0.0)) return invalid("dt_min must be > 0");
  if (!(o.dt_min <= o.dt_initial)) {
    return invalid("dt_min must not exceed dt_initial");
  }
  if (!(o.dt_max >= 0.0)) {
    return invalid("dt_max must be >= 0 (0 = horizon/100)");
  }
  if (o.dt_max > 0.0 && o.dt_max < o.dt_initial) {
    return invalid("explicit dt_max is below dt_initial; raise dt_max or "
                   "lower dt_initial (dt_max = 0 derives horizon/100)");
  }
  if (!std::isfinite(o.t_start)) return invalid("t_start must be finite");
  if (!std::isfinite(o.t_end)) return invalid("t_end must be finite");
  if (!(o.t_end > o.t_start)) return invalid("t_end must exceed t_start");
  if (!(o.dt_growth >= 1.0)) return invalid("dt_growth must be >= 1");
  return validate(o.engine);
}

core::Error solve_dc(Circuit& circuit, std::vector<double>& x,
                     const EngineOptions& options, CircuitStats* stats) {
  if (core::Error err = validate(options); !err.ok()) return err;
  const std::size_t n = layout_unknowns(circuit);
  x.assign(n, 0.0);

  EvalContext ctx;
  ctx.dc = true;
  ctx.t = 0.0;
  ctx.dt = 0.0;
  ctx.node_count = circuit.node_count();
  CircuitStats local;
  if (!solve_point(circuit, ctx, options, x, stats ? *stats : local)) {
    return core::make_error(core::ErrorCode::kSolverDiverged,
                            "DC operating point did not converge");
  }
  return {};
}

TransientMachine::TransientMachine(Circuit& circuit,
                                   const TransientOptions& options,
                                   SolutionCallback on_accept,
                                   CircuitStats* stats, core::RunGate* gate)
    : circuit_(circuit),
      options_(options),
      on_accept_(std::move(on_accept)),
      stats_(stats ? stats : &stats_local_),
      gate_(gate) {
  const std::size_t n = layout_unknowns(circuit_);
  nodes_ = circuit_.node_count();
  x_.assign(n, 0.0);
  x_prev_.assign(n, 0.0);
  x_trial_.assign(n, 0.0);
  newton_ = detail::NewtonScratch(n);

  needs_iteration_ = any_nonlinear(circuit_);
  max_iters_ = needs_iteration_ ? options_.engine.max_newton_iterations : 1;

  // Initial condition: DC operating point at t_start.
  EvalContext dc_ctx;
  dc_ctx.dc = true;
  dc_ctx.node_count = nodes_;
  if (!solve_point(circuit_, dc_ctx, options_.engine, x_, *stats_)) {
    ++stats_->hard_failures;
    if (error_.ok()) {
      error_ = core::make_error(core::ErrorCode::kSolverDiverged,
                                "DC operating point did not converge");
    }
    std::fill(x_.begin(), x_.end(), 0.0);
  } else {
    // Let devices latch their DC state as the t_start history.
    dc_ctx.x = x_;
    for (const auto& device : circuit_.devices()) {
      device->commit(dc_ctx, x_);
    }
  }

  if (on_accept_) {
    on_accept_(Solution{options_.t_start, nodes_, x_});
  }

  const double horizon = options_.t_end - options_.t_start;
  dt_max_ = options_.dt_max > 0.0 ? options_.dt_max : horizon / 100.0;
  t_ = options_.t_start;
  dt_ = std::min(options_.dt_initial, dt_max_);
  t_eps_ = 1e-12 * std::max(1.0, std::fabs(options_.t_end));

  prepare_step();
}

void TransientMachine::prepare_step() {
  if (!(t_ < options_.t_end - t_eps_)) {
    done_ = true;
    return;
  }
  if (gate_ != nullptr && gate_->stopped()) {
    if (error_.ok()) error_ = gate_->stop_error();
    done_ = true;
    return;
  }
  dt_ = std::min({dt_, dt_max_, options_.t_end - t_});

  ctx_.dc = false;
  ctx_.t = t_ + dt_;
  ctx_.dt = dt_;
  ctx_.node_count = nodes_;

  // Iterate seed: the predictor, or the last accepted solution itself.
  if (predict_) {
    const double r = dt_ / dt_prev_;
    for (std::size_t i = 0; i < x_.size(); ++i) {
      x_trial_[i] = x_[i] + r * (x_[i] - x_prev_[i]);
    }
  } else {
    std::copy(x_.begin(), x_.end(), x_trial_.begin());
  }
  ctx_.iteration = 0;
}

void TransientMachine::accept_step(bool converged) {
  // x_prev_ <- x_ <- x_trial_; the old x_prev_ storage becomes the next
  // iterate, which prepare_step() overwrites.
  x_prev_.swap(x_);
  x_.swap(x_trial_);
  dt_prev_ = dt_;
  predict_ = needs_iteration_ && converged;
  t_ += dt_;
  ++stats_->steps_accepted;
  ctx_.x = x_;
  for (const auto& device : circuit_.devices()) {
    device->commit(ctx_, x_);
  }
  if (on_accept_) {
    on_accept_(Solution{t_, nodes_, x_});
  }
  dt_ *= options_.dt_growth;
  prepare_step();
}

void TransientMachine::reject_step(bool non_finite) {
  ++stats_->steps_rejected;
  if (dt_ <= options_.dt_min * 4.0) {
    ++stats_->hard_failures;
    if (non_finite) {
      // A non-finite state is never accepted: the run ends here.
      if (error_.ok()) {
        error_ = core::make_error(
            core::ErrorCode::kNonFinite,
            "transient step produced a non-finite solution at dt_min (t = " +
                std::to_string(ctx_.t) + " s); run stopped");
      }
      done_ = true;
      return;
    }
    ++stats_->forced_accepts;
    if (error_.ok()) {
      error_ = core::make_error(
          core::ErrorCode::kSolverDiverged,
          "transient step failed to converge at dt_min (t = " +
              std::to_string(ctx_.t) + " s); forced acceptance");
    }
    // Force-accept to make progress, as commercial solvers do following a
    // convergence warning.
    accept_step(/*converged=*/false);
  } else {
    dt_ *= 0.25;
    prepare_step();
  }
}

void TransientMachine::stamp() {
  assert(!done_);
  stamp_system(circuit_, ctx_, options_.engine, x_trial_, newton_);
}

bool TransientMachine::solve() { return solve_system(newton_); }

void TransientMachine::conclude(bool solved) {
  assert(!done_);
  switch (conclude_iteration(ctx_, options_.engine, needs_iteration_, nodes_,
                             solved, x_trial_, newton_.x_new, *stats_)) {
    case NewtonOutcome::kSingular:
      reject_step(false);
      return;
    case NewtonOutcome::kNonFinite:
      reject_step(true);
      return;
    case NewtonOutcome::kSettled:
      accept_step(/*converged=*/true);
      return;
    case NewtonOutcome::kMoving:
      break;
  }
  if (++ctx_.iteration >= max_iters_) {
    // A linear circuit is accepted after its single solve either way
    // (solve_point's `return !nonlinear` fall-through).
    if (needs_iteration_) {
      reject_step(false);
    } else {
      accept_step(/*converged=*/true);
    }
  }
}

void TransientMachine::advance() {
  if (done_) return;
  stamp();
  conclude(solve());
}

core::Error run_transient(Circuit& circuit, const TransientOptions& options,
                          const SolutionCallback& on_accept,
                          CircuitStats* stats, const core::RunLimits& limits) {
  if (core::Error err = validate(options); !err.ok()) return err;
  core::RunGate gate(limits);
  TransientMachine machine(circuit, options, on_accept, stats, &gate);
  while (!machine.done()) machine.advance();
  return machine.error();
}

}  // namespace ferro::ckt
