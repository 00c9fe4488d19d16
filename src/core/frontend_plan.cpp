#include "core/frontend_plan.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <map>
#include <new>
#include <tuple>
#include <variant>

#include "core/fault_injection.hpp"
#include "core/systemc_ja.hpp"
#include "mag/energy_based_batch.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace ferro::core {

PlanRoute plan_route(const Scenario& scenario) {
  // What validate() rejects falls back, so run_scenario issues the verdict.
  // The per-sample scans are left to where the samples are read: each lane
  // block scans its sweeps just before its kernel, the planner scans kAms
  // sweeps as it synthesises their excitation.
  if (!validate_setup(scenario).ok()) return PlanRoute::kFallback;

  // Flux drives run the per-sample inverse solve — no SoA row program.
  if (std::holds_alternative<FluxDrive>(scenario.drive)) {
    return PlanRoute::kFallback;
  }

  if (const auto* energy = std::get_if<EnergySpec>(&scenario.model)) {
    // Energy jobs (direct frontend only, as validated) pack with
    // quasi-static parameters: EnergyBasedBatch's lockstep subset.
    return mag::EnergyBasedBatch::supports(energy->params)
               ? PlanRoute::kPackedSweep
               : PlanRoute::kFallback;
  }

  const JaSpec& ja = std::get<JaSpec>(scenario.model);
  if (scenario.frontend == Frontend::kAms) {
    // The trace planner unrolls sub-stepping too, so every kAms drive
    // packs except an empty sweep.
    const auto* sweep = std::get_if<wave::HSweep>(&scenario.drive);
    return sweep != nullptr && sweep->empty() ? PlanRoute::kFallback
                                              : PlanRoute::kPackedTrace;
  }

  if (!mag::TimelessJaBatch::supports(ja.config)) {
    return PlanRoute::kFallback;
  }
  // kSystemC's process network wraps the same core update but hard-codes
  // both clamps, so only configs whose flags say what the network actually
  // does are routable — anything else must really run the network to
  // reproduce run_scenario's bits.
  if (scenario.frontend == Frontend::kSystemC &&
      !JaCoreModule::clamps_match(ja.config)) {
    return PlanRoute::kFallback;
  }
  return PlanRoute::kPackedSweep;
}

namespace {

/// Orders sweep-keyed trajectory jobs by excitation *content*, so scenarios
/// that drive identical sweeps share one solve. Samples compare by bit
/// pattern, a strict total order: under operator< a NaN would compare
/// equivalent to any value and merge two different drives.
struct SampleBitsLess {
  bool operator()(const std::vector<double>* a,
                  const std::vector<double>* b) const {
    return std::lexicographical_compare(
        a->begin(), a->end(), b->begin(), b->end(), [](double x, double y) {
          return std::bit_cast<std::uint64_t>(x) <
                 std::bit_cast<std::uint64_t>(y);
        });
  }
};

/// The sweep_jobs entry of a drive validate() rejects for a sample: its
/// scenarios fall back, and run_scenario issues the verdict.
constexpr std::size_t kRejectedDrive = static_cast<std::size_t>(-1);

}  // namespace

FrontendPlanSet::FrontendPlanSet(const std::vector<Scenario>& scenarios)
    : scenarios_(&scenarios) {
  plans_.resize(scenarios.size());

  // Trajectory dedup: the JA-free H(t) solve depends only on the excitation
  // and the solver window — never on the material or the discretisation —
  // so scenarios sharing a drive share one job. TimeDrive excitations key
  // on (waveform identity, window); sweep drives key on the sample bits.
  std::map<std::tuple<const wave::Waveform*, double, double>, std::size_t>
      time_jobs;
  std::map<const std::vector<double>*, std::size_t, SampleBitsLess>
      sweep_jobs;

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    FrontendPlan& p = plans_[i];
    try {
      p.route = plan_route(s);
      if (p.route == PlanRoute::kPackedTrace) {
        if (const auto* drive = std::get_if<TimeDrive>(&s.drive)) {
          const auto key = std::make_tuple(drive->waveform.get(), drive->t0,
                                           drive->t1);
          const auto it = time_jobs.find(key);
          if (it != time_jobs.end()) {
            p.trajectory = it->second;
          } else {
            TrajectoryJob job;
            job.waveform = drive->waveform;
            job.config.t_start = drive->t0;
            job.config.t_end = drive->t1;
            // Register the job before the dedup entry: an allocation
            // failure between the two must never leave the map pointing at
            // a job that does not exist.
            jobs_.push_back(std::move(job));
            p.trajectory = jobs_.size() - 1;
            time_jobs.emplace(key, p.trajectory);
          }
        } else {
          const auto& sweep = std::get<wave::HSweep>(s.drive);
          auto it = sweep_jobs.find(&sweep.h);
          if (it == sweep_jobs.end()) {
            // First sight of this excitation: scan its samples before
            // synthesising the Pwl from them.
            std::size_t job = kRejectedDrive;
            if (validate_samples(sweep).ok()) {
              AmsSweepDrive drive = ams_drive_for_sweep(sweep, s.ja().config);
              TrajectoryJob planned;
              planned.pwl = std::move(drive.pwl);
              planned.config = drive.config;
              jobs_.push_back(std::move(planned));
              job = jobs_.size() - 1;
            }
            it = sweep_jobs.emplace(&sweep.h, job).first;
          }
          if (it->second == kRejectedDrive) {
            p.route = PlanRoute::kFallback;
          } else {
            p.trajectory = it->second;
          }
        }
      }
    } catch (...) {
      // Whatever planning tripped over, the serial frontend will trip over
      // identically — let run_scenario report it as the per-job error.
      p = FrontendPlan{};
    }
  }
}

void FrontendPlanSet::solve_trajectory(std::size_t j) {
  TrajectoryJob& job = jobs_[j];
  try {
    (void)FERRO_FAULT_HIT(FaultSite::kTrajectorySolve);
    job.result = plan_ams_trajectory(job.source(), job.config);
  } catch (const std::bad_alloc&) {
    job.error = {ErrorCode::kInternal, "allocation failure"};
  } catch (const std::exception& e) {
    job.error = {ErrorCode::kSolverDiverged, e.what()};
  } catch (...) {
    job.error = {ErrorCode::kSolverDiverged, "unknown exception"};
  }
}

void FrontendPlanSet::skip_trajectory(std::size_t j, const Error& reason) {
  jobs_[j].error = reason;
}

}  // namespace ferro::core
