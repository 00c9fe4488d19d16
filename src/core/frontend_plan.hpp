// FrontendPlan — the plan stage of BatchRunner's packed pipeline.
//
// The paper's timeless discretisation is solver-agnostic: every frontend
// ultimately feeds the same JA update a sequence of accepted H values, and
// nothing about that sequence depends on the hysteresis state. So where a
// drive is turned into H work is a scheduling choice:
//
//   * kDirect / kSystemC — the SoA kernel's threshold row program (energy
//     lanes: their play update) over the sweep samples as-is; a time drive
//     is sampled onto the uniform grid the frontend itself would use by its
//     lane block, on the worker, just before the kernel reads it — the
//     plan holds no samples;
//   * kAms — the cheap JA-free H(t) ODE (plan_ams_trajectory) solved ONCE
//     per distinct excitation and shared by every scenario that drives it
//     (the trajectory cannot depend on the material), then unrolled per
//     scenario into a planner-trace row program (mag/ja_trace.hpp) that the
//     SoA kernel replays bitwise-identically to the serial frontend.
//
// Routability also lives here — whether a scenario passes validate_setup()
// and its config is inside what the packed executor reproduces bit for bit
// (the kernel's lockstep subset; for kSystemC additionally the clamp pair
// the process network hard-codes, JaCoreModule::clamps_match) — so
// BatchRunner carries no per-frontend special cases of its own.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/ams_ja.hpp"
#include "core/scenario.hpp"
#include "wave/sweep.hpp"

namespace ferro::core {

/// How the execute stage runs a planned scenario.
enum class PlanRoute {
  kFallback,     ///< per-scenario run_scenario (the frontend executes itself)
  kPackedSweep,  ///< SoA kernel, threshold-driven sweep samples
  kPackedTrace,  ///< SoA kernel, planner-decided trace rows (kAms)
};

/// Routability of one scenario — the single definition of "packable":
/// whatever validate_setup() rejects falls back, so run_scenario issues the
/// verdict. Sample scans are not part of it (see FrontendPlanSet and
/// BatchRunner's lane blocks).
[[nodiscard]] PlanRoute plan_route(const Scenario& scenario);

/// One shared JA-free trajectory solve: the excitation (a borrowed TimeDrive
/// waveform or the Pwl synthesised from a sweep, owned here) plus the solver
/// window, and after solve_trajectory() the accepted H sequence or the
/// captured failure.
struct TrajectoryJob {
  std::shared_ptr<const wave::Waveform> waveform;  ///< TimeDrive excitation
  std::optional<wave::Pwl> pwl;  ///< sweep-synthesised excitation
  AmsJaConfig config;
  AmsTrajectory result;
  /// kOk on success; a failed solve (kSolverDiverged) propagates to every
  /// scenario sharing this trajectory, a skipped one (batch stopped early)
  /// carries the gate's kCancelled/kDeadlineExceeded verdict.
  Error error;

  [[nodiscard]] const wave::Waveform& source() const {
    return pwl ? static_cast<const wave::Waveform&>(*pwl) : *waveform;
  }
};

/// Stage-1 output for one scenario. Plain data, freely copyable.
struct FrontendPlan {
  PlanRoute route = PlanRoute::kFallback;
  /// kPackedTrace: index of the shared TrajectoryJob this scenario consumes.
  std::size_t trajectory = 0;
};

/// Plans a whole batch: per-scenario routes immediately (cheap), and the
/// deduplicated trajectory jobs as work items the caller fans across
/// its thread pool — solve_trajectory(j) touches only job j, so distinct
/// jobs run concurrently; every job must be solved before the plans that
/// reference it are executed. Sweep excitations dedup by the bit patterns
/// of their samples, and each distinct one is scanned (validate_samples)
/// before its Pwl is synthesised: a kAms scenario whose sweep holds a
/// non-finite sample falls back, with no trajectory job. A scenario whose
/// planning throws falls back too: run_scenario reproduces the failure as
/// its per-job error.
class FrontendPlanSet {
 public:
  explicit FrontendPlanSet(const std::vector<Scenario>& scenarios);

  [[nodiscard]] const FrontendPlan& plan(std::size_t i) const {
    return plans_[i];
  }
  /// The HSweep drive of scenario i (valid while the scenario vector the
  /// set was built from lives). Sweep drives only: a time drive has no
  /// samples until its lane block takes them.
  [[nodiscard]] const wave::HSweep& sweep(std::size_t i) const {
    return std::get<wave::HSweep>((*scenarios_)[i].drive);
  }
  [[nodiscard]] std::size_t trajectory_jobs() const { return jobs_.size(); }
  [[nodiscard]] const TrajectoryJob& trajectory(std::size_t j) const {
    return jobs_[j];
  }

  /// Runs trajectory job j, capturing exceptions into the job's error.
  void solve_trajectory(std::size_t j);

  /// Marks job j as not run (batch cancelled before its solve started):
  /// the plans referencing it report `reason` instead of executing.
  void skip_trajectory(std::size_t j, const Error& reason);

 private:
  const std::vector<Scenario>* scenarios_;
  std::vector<FrontendPlan> plans_;
  std::vector<TrajectoryJob> jobs_;
};

}  // namespace ferro::core
