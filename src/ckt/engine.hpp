// Analysis engines: DC operating point and adaptive transient.
//
// Per trial step the engine runs SPICE-style successive linearisation
// (rebuild companion stamps at the iterate, LU-solve, repeat until the
// iterate settles). Non-convergence shrinks the step; devices only commit
// state on acceptance. One Newton-iteration body (engine.cpp: stamp, solve,
// conclude) serves both analyses, and EvalContext::iteration tells devices
// which iterate of the trial step they stamp at: the JA cores latch their
// field-event decision at the seed iterate (ckt/core_companion.hpp), which
// is what makes their steps converge in a few iterations.
//
// A transient trial step of a nonlinear circuit is seeded at the predicted
// solution, the linear extrapolation of the last two accepted solutions
// (see TransientMachine); it still settles one iterate past its seed at
// the earliest. Linear circuits seed at the last accepted solution, the DC
// solve at zero.
//
// Two layers:
//   * run_transient()/solve_dc() — the structured API: options validated up
//     front (core::ErrorCode::kInvalidScenario), Newton non-convergence and
//     dt-collapse latched as kSolverDiverged, a persistently non-finite
//     solution as kNonFinite, RunLimits honoured as
//     kCancelled/kDeadlineExceeded. What the engine had to do along the way
//     (singular matrices, forced accepts) is counted in CircuitStats, not
//     logged.
//   * TransientMachine — the same transient loop decomposed into one Newton
//     iteration per advance() call, bitwise identical to run_transient()
//     (which is implemented on top of it). This is the seam the circuit
//     Monte-Carlo uses to step many corners in lockstep. advance() is split
//     into a stamp half and a conclude half around its ams::LuSolver call,
//     so a lockstep group can solve the stamped systems of all its corners
//     together instead (ckt::LaneLu, bitwise equal to LuSolver).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ams/matrix.hpp"
#include "ckt/netlist.hpp"
#include "core/cancel.hpp"
#include "core/error.hpp"

namespace ferro::ckt {

struct EngineOptions {
  int max_newton_iterations = 100;
  double v_tolerance = 1e-6;   ///< node-voltage convergence [V]
  double i_tolerance = 1e-9;   ///< branch-current convergence [A]
  double gmin = 1e-12;         ///< node-to-ground leak keeping matrices regular
};

struct TransientOptions {
  double t_start = 0.0;
  double t_end = 0.1;
  double dt_initial = 1e-6;
  double dt_min = 1e-12;
  double dt_max = 0.0;  ///< 0 = (t_end - t_start)/100; an explicit value must
                        ///< be >= dt_initial (validate() rejects it otherwise)
  EngineOptions engine;
  /// Grow factor applied to dt after an accepted step (shrink on rejection
  /// is fixed at 1/4).
  double dt_growth = 1.5;
};

struct CircuitStats {
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  std::uint64_t newton_iterations = 0;
  std::uint64_t hard_failures = 0;      ///< DC failures, forced accepts and
                                        ///< non-finite stops
  std::uint64_t singular_matrices = 0;  ///< iterations on a singular MNA matrix
  std::uint64_t forced_accepts = 0;     ///< steps accepted unconverged at dt_min
};

namespace detail {

/// Scratch of one Newton iteration: MNA matrix, right-hand side, next
/// iterate and LU factorisation, sized for n unknowns.
struct NewtonScratch {
  explicit NewtonScratch(std::size_t n = 0)
      : a(n, n), z(n, 0.0), x_new(n, 0.0) {}

  ams::Matrix a;
  std::vector<double> z;
  std::vector<double> x_new;
  ams::LuSolver lu;
};

}  // namespace detail

/// Solution view passed to callbacks: node voltages then branch currents.
struct Solution {
  double t = 0.0;
  std::size_t node_count = 0;
  std::span<const double> x;

  [[nodiscard]] double v(NodeId node) const {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] double branch_current(std::size_t branch) const {
    return x[node_count + branch];
  }
};

using SolutionCallback = std::function<void(const Solution&)>;

/// Checks the Newton settings: max_newton_iterations >= 1, finite positive
/// v_tolerance and i_tolerance, finite non-negative gmin. kInvalidScenario
/// otherwise (a NaN tolerance passes every iterate; a negative one never
/// settles); Error{} (ok) when the options are runnable.
[[nodiscard]] core::Error validate(const EngineOptions& options);

/// Checks a transient configuration before any device is touched. Rejects
/// non-positive or inconsistent step bounds — in particular an explicit
/// dt_max below dt_initial, which the engine used to clamp silently — a
/// non-finite t_start or t_end, and the engine settings
/// validate(EngineOptions) rejects, with kInvalidScenario naming the field;
/// Error{} (ok) when the options are runnable.
[[nodiscard]] core::Error validate(const TransientOptions& options);

/// Computes the DC operating point into `x` (resized). kInvalidScenario
/// (before anything is touched) when validate(options) fails;
/// kSolverDiverged when the Newton iteration does not settle or the MNA
/// matrix is singular.
[[nodiscard]] core::Error solve_dc(Circuit& circuit, std::vector<double>& x,
                                   const EngineOptions& options = {},
                                   CircuitStats* stats = nullptr);

/// Adaptive transient from a DC operating point (or zero state when DC does
/// not converge — the run continues, the DC failure is the latched error).
///
/// The returned Error is the FIRST structured failure of the run:
///   * kInvalidScenario — options rejected by validate(); nothing ran;
///   * kSolverDiverged  — the DC point failed, or a trial step collapsed to
///     dt_min and was force-accepted (the waveform still completes — the
///     error reports that its accuracy is compromised; stats->forced_accepts
///     counts every such step);
///   * kNonFinite — Newton iterates kept coming back NaN/Inf down to dt_min.
///     A non-finite iterate never settles and is never force-accepted: the
///     run stops at the last accepted (finite) point;
///   * kCancelled / kDeadlineExceeded — `limits` stopped the run at a step
///     boundary; the waveform up to that point was delivered;
///   * Error{} (ok) — clean run. stats->hard_failures counts every
///     kSolverDiverged case, not just the first.
[[nodiscard]] core::Error run_transient(Circuit& circuit,
                                        const TransientOptions& options,
                                        const SolutionCallback& on_accept,
                                        CircuitStats* stats = nullptr,
                                        const core::RunLimits& limits = {});

/// The adaptive transient loop as an externally-stepped state machine: the
/// constructor performs unknown layout, the DC solve, the DC commit, and the
/// t_start callback; each advance() then runs exactly ONE Newton iteration
/// of the current trial step, plus whatever step control it triggers
/// (acceptance + device commit + callback, rejection + dt shrink, dt_min
/// force-accept, RunLimits stop). Driving advance() to done() reproduces
/// run_transient() bitwise — run_transient() IS this loop.
///
/// The point of the decomposition is cross-instance batching: advance()
/// comes in halves — stamp(), then conclude() on a solution the caller
/// computed — so a caller holding N machines over a shared topology can
/// stamp every machine and solve their systems together (ckt::LaneLu)
/// before concluding each.
///
/// The seed of each trial step (iterate() while seeding()) is the predicted
/// solution: with x_n the last accepted solution, x_{n-1} the one before it
/// and r = dt / dt_prev the ratio of the trial step to the step that led
/// from x_{n-1} to x_n, every unknown is seeded at
///
///     x_trial[i] = x_n[i] + r * (x_n[i] - x_{n-1}[i]).
///
///   * First step after DC: no history, so the seed is the DC solution (the
///     zero state when DC failed and the machine starts from it).
///   * Retry after a rejection: the same history with the new, smaller r.
///   * Step after a forced accept: the forced solution never converged, so
///     the history is cleared and the seed is the forced solution itself
///     until a step converges again.
///   * Linear circuit: the single solve never reads the iterate, so the seed
///     stays the last accepted solution and nothing is extrapolated.
///
/// The DC solve keeps its zero seed.
///
/// `options` must satisfy validate() (run_transient enforces it; direct
/// constructions assert via the DC solve behaving as documented only then).
/// `gate` (optional, non-owning) is polled at trial-step boundaries.
class TransientMachine {
 public:
  TransientMachine(Circuit& circuit, const TransientOptions& options,
                   SolutionCallback on_accept, CircuitStats* stats = nullptr,
                   core::RunGate* gate = nullptr);

  TransientMachine(const TransientMachine&) = delete;
  TransientMachine& operator=(const TransientMachine&) = delete;

  /// True once t_end was reached, the gate stopped the run or a non-finite
  /// solution persisted to dt_min; advance() is a no-op afterwards.
  [[nodiscard]] bool done() const { return done_; }

  /// First structured failure latched so far (ok while the run is clean).
  /// A kSolverDiverged latch does NOT stop the machine — the waveform
  /// continues under force-accept, matching the serial engine.
  [[nodiscard]] const core::Error& error() const { return error_; }

  /// The pending iteration's iterate (node voltages then branch currents):
  /// what the next advance() will stamp devices at — the predicted solution
  /// while seeding(). Valid while !done().
  [[nodiscard]] std::span<const double> iterate() const { return x_trial_; }

  /// True while the pending iteration is a trial step's seed
  /// (EvalContext::iteration 0), the iterate the JA cores latch their event
  /// decision at and take their wide slope around.
  [[nodiscard]] bool seeding() const { return !done_ && ctx_.iteration == 0; }

  [[nodiscard]] std::size_t node_count() const { return nodes_; }
  [[nodiscard]] const CircuitStats& stats() const { return *stats_; }

  /// One Newton iteration of the current trial step, plus step control:
  /// stamp(), then solve(), then conclude() with its verdict.
  void advance();

  /// The stamp half of advance(): zeroes the MNA system, stamps every
  /// device at iterate() and adds gmin. system() and rhs() then hold the
  /// linearised system until conclude(). Only while !done().
  void stamp();

  /// The stamped system A x = z, and where its solution goes.
  [[nodiscard]] const ams::Matrix& system() const { return newton_.a; }
  [[nodiscard]] std::span<const double> rhs() const { return newton_.z; }
  [[nodiscard]] std::span<double> solution() { return newton_.x_new; }

  /// The solve advance() runs between the halves: ams::LuSolver on
  /// system() into solution(). False when the matrix is singular.
  bool solve();

  /// The conclude half of advance(): `solved` false counts a singular
  /// matrix and rejects the step; otherwise tests the convergence of
  /// solution() against iterate(), moves the iterate, and runs the step
  /// control that triggers. The run stays bitwise identical to
  /// run_transient() as long as the caller's verdict and every entry of
  /// solution() are bitwise what solve() would have produced.
  void conclude(bool solved);

 private:
  /// Computes the next trial step's dt and seed (or ends the run).
  void prepare_step();
  /// Commits iterate() as the new accepted solution; `converged` false (a
  /// forced accept) clears the predictor's history.
  void accept_step(bool converged);
  /// Shrinks dt, or at dt_min force-accepts — unless the failed iteration
  /// was `non_finite`, which ends the run with kNonFinite instead.
  void reject_step(bool non_finite);

  Circuit& circuit_;
  TransientOptions options_;
  SolutionCallback on_accept_;
  CircuitStats stats_local_;
  CircuitStats* stats_;
  core::RunGate* gate_;

  std::size_t nodes_ = 0;
  bool needs_iteration_ = false;
  int max_iters_ = 1;
  double dt_max_ = 0.0;
  double t_eps_ = 0.0;

  double t_ = 0.0;
  double dt_ = 0.0;
  bool done_ = false;
  core::Error error_;

  EvalContext ctx_;
  std::vector<double> x_;        ///< last accepted solution
  std::vector<double> x_prev_;   ///< accepted solution before x_
  std::vector<double> x_trial_;  ///< current Newton iterate
  double dt_prev_ = 0.0;         ///< the step that led from x_prev_ to x_
  /// Seed trial steps by extrapolation: a nonlinear circuit whose last
  /// accepted step converged (so x_prev_ and dt_prev_ are its history).
  bool predict_ = false;
  detail::NewtonScratch newton_;
};

}  // namespace ferro::ckt
