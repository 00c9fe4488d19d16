// VHDL-AMS-style frontend of the timeless model.
//
// In the paper's VHDL-AMS implementation the analogue solver owns simulated
// time and the continuous quantities, while the model integrates dM/dH
// itself at solver steps ("the integral is calculated using increments of
// the magnetic field H rather than time steps"). We reproduce that split in
// two stages: the TransientSolver integrates the excitation quantity H(t)
// (a smooth, JA-free ODE) and records H at every *accepted* step
// (plan_ams_trajectory), then the TimelessJa replays those fields in order
// (run_ams_timeless). The JA equations never enter the solver's residual,
// so turning points cannot cause Newton failures — that is the whole point
// of the technique. The `'INTEG`-style route it is compared with is
// mag::run_time_domain_ja.
#pragma once

#include <vector>

#include "ams/transient.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/pwl.hpp"
#include "wave/sweep.hpp"
#include "wave/waveform.hpp"

namespace ferro::core {

struct AmsJaConfig {
  double t_start = 0.0;
  double t_end = 0.06;
  mag::TimelessConfig timeless;
  ams::TransientOptions solver;
};

struct AmsJaResult {
  mag::BhCurve curve;            ///< (H, M, B) at accepted solver steps
  ams::TransientStats solver_stats;
  /// Discretisation counters of the timeless model replayed over the
  /// solver-placed trajectory.
  mag::TimelessStats stats;
};

/// The field trajectory the analogue solver placed: H at the initial point
/// and at every accepted step. Because the H(t) ODE is JA-free — the model
/// only replays the accepted fields and never enters the residual — this
/// sequence is independent of the hysteresis state, so one solve serves any
/// number of materials driven by the same excitation (the plan stage of
/// BatchRunner's packed kAms pipeline).
struct AmsTrajectory {
  std::vector<double> h;
  ams::TransientStats solver_stats;
};

/// Stage 1 of the VHDL-AMS frontend: integrates the excitation quantity
/// H(t) over [config.t_start, config.t_end] with the analogue solver and no
/// hysteresis riding along. `config.timeless` is not consulted. Throws
/// std::runtime_error when the solver gives up short of t_end
/// (TransientSolver::run returns false), so no truncated trajectory ever
/// reaches a caller; run_scenario and the packed planner both report the
/// throw as kSolverDiverged with its message.
[[nodiscard]] AmsTrajectory plan_ams_trajectory(const wave::Waveform& h_of_t,
                                                const AmsJaConfig& config);

/// The discretisation the AMS frontend actually runs: an accepted solver
/// step can span many dhmax thresholds in one go, and the VHDL-AMS process
/// fires at *every* threshold crossing, which sub-stepping reproduces — so
/// substep_max defaults to dhmax unless the user set it explicitly. Shared
/// by run_ams_timeless and the packed planner so both expand identically.
[[nodiscard]] mag::TimelessConfig ams_effective_timeless(
    const mag::TimelessConfig& timeless);

/// The excitation run_scenario synthesises for a timeless sweep handed to
/// the kAms frontend: a 1 s piecewise-linear traversal of the sweep samples,
/// with the corners as solver breakpoints. One definition so run_scenario
/// and the packed planner cannot drift. `sweep` must be non-empty.
struct AmsSweepDrive {
  wave::Pwl pwl;
  AmsJaConfig config;
};
[[nodiscard]] AmsSweepDrive ams_drive_for_sweep(
    const wave::HSweep& sweep, const mag::TimelessConfig& timeless);

/// Runs the VHDL-AMS-style timeless model over the excitation `h_of_t`:
/// plan_ams_trajectory() for the solver-placed H sequence (throwing as it
/// does), then the JA update replayed over the accepted increments
/// (stage 2). The solver's decisions never depend on the JA state, so the
/// replay applies exactly the fields a model riding along with the solver
/// would see, in the same order.
[[nodiscard]] AmsJaResult run_ams_timeless(const mag::JaParameters& params,
                                           const wave::Waveform& h_of_t,
                                           const AmsJaConfig& config);

}  // namespace ferro::core
