// FrontendPlan — the plan stage of BatchRunner's packed pipeline.
//
// The paper's timeless discretisation is solver-agnostic: every frontend
// ultimately feeds the same JA update a sequence of accepted H values, and
// nothing about that sequence depends on the hysteresis state. Planning
// exploits this by turning each scenario into concrete H work up front:
//
//   * kDirect / kSystemC — the sweep samples as-is (time drives are sampled
//     onto the uniform grid the frontend itself would use), executed by the
//     SoA kernel's threshold row program;
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

/// Stage-1 output for one scenario. Plain data, freely copyable; the
/// planned sample sequence is reached through FrontendPlanSet::sweep(),
/// which resolves to `owned_sweep` or the scenario's own drive.
struct FrontendPlan {
  PlanRoute route = PlanRoute::kFallback;
  /// kPackedSweep from a TimeDrive: the samples planned onto the uniform
  /// grid the frontend itself would use (sweep drives pass through as-is).
  std::optional<wave::HSweep> owned_sweep;
  /// kPackedTrace: index of the shared TrajectoryJob this scenario consumes.
  std::size_t trajectory = 0;
};

/// Plans a whole batch: per-scenario routes/sweeps immediately (cheap), and
/// the deduplicated trajectory jobs as work items the caller fans across
/// its thread pool — solve_trajectory(j) touches only job j, so distinct
/// jobs run concurrently; every job must be solved before the plans that
/// reference it are executed. Sweep excitations dedup by the bit patterns
/// of their samples, and each distinct one is scanned (validate_samples)
/// before its Pwl is synthesised: a kAms scenario whose sweep holds a
/// non-finite sample falls back, with no trajectory job. A scenario whose
/// planning throws falls back to the per-scenario path too, which
/// reproduces the failure as a per-job error exactly like run() would.
class FrontendPlanSet {
 public:
  explicit FrontendPlanSet(const std::vector<Scenario>& scenarios);

  [[nodiscard]] const FrontendPlan& plan(std::size_t i) const {
    return plans_[i];
  }
  /// The planned sample sequence of a kPackedSweep scenario: the plan's
  /// owned TimeDrive sampling when present, else the scenario's own HSweep
  /// drive (valid while the scenario vector the set was built from lives).
  [[nodiscard]] const wave::HSweep& sweep(std::size_t i) const;
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
