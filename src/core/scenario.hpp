// Scenario — the unit of batch work: everything needed to run one
// (material, discretisation, excitation, frontend) simulation and name its
// result, plus run_scenario(), the serial kernel BatchRunner fans out.
//
// Split out of batch_runner.hpp so the streaming layers (core/result_queue,
// core/result_sink, core/stream_sinks) can speak ScenarioResult without
// depending on the runner itself.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/loop_metrics.hpp"
#include "core/error.hpp"
#include "core/model_spec.hpp"
#include "mag/bh.hpp"
#include "mag/energy_based.hpp"
#include "mag/ja_params.hpp"
#include "mag/model.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"
#include "wave/waveform.hpp"

namespace ferro::core {

/// Which implementation executes the discretisation.
enum class Frontend {
  kDirect,   ///< plain in-process model object (fastest)
  kSystemC,  ///< the paper's process network on the event kernel (JA only)
  kAms,      ///< VHDL-AMS-style: analogue solver drives H(t) (JA only)
};

[[nodiscard]] std::string_view to_string(Frontend f);

/// Time-driven excitation: sample `waveform` over [t0, t1] at `n_samples`
/// >= 2 uniform points (kAms lets the analogue solver pick its own steps).
struct TimeDrive {
  std::shared_ptr<const wave::Waveform> waveform;
  double t0 = 0.0;
  double t1 = 1.0;
  std::size_t n_samples = 1000;
};

/// Flux-driven excitation (the inverse workload RHINO-MAG frames): the
/// drive prescribes flux-density targets and the scenario recovers the
/// field per sample through the flux-driven model (mag/inverse_ja.hpp),
/// committing hysteresis state only on converged solves. kDirect only and
/// never packed — the per-sample Newton/bisection solve has no SoA row
/// program. A sample whose bracket expansion fails surfaces as a
/// kBracketFailure result (an exhausted iteration budget as
/// kSolverDiverged) instead of committing a wrong field.
struct FluxDrive {
  std::vector<double> b;      ///< target flux densities [T], in drive order
  double tolerance_b = 1e-9;  ///< per-sample |B - target| acceptance [T]
  int max_iterations = 60;    ///< solve budget per sample
};

/// Closed index window [begin, end] of the *result curve* over which the
/// loop metrics are computed (e.g. the converged second cycle of a 2-cycle
/// sweep). The window must fit the curve the frontend actually produced —
/// kDirect/kSystemC sweep jobs emit one point per sweep sample, but kAms
/// places its own solver steps, so a window sized from the input sweep is
/// rejected there as a per-job error rather than silently clamped.
struct MetricsWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One batch job: everything needed to run a simulation and name its result.
/// The physics backend is selected by `model` (core/model_spec.hpp); the
/// default is a paper-faithful JA job, exactly what the pre-contract
/// Scenario (with bare `params`/`config` members) described.
struct Scenario {
  std::string name;
  ModelSpec model = JaSpec{};
  std::variant<wave::HSweep, TimeDrive, FluxDrive> drive;
  Frontend frontend = Frontend::kDirect;
  /// When absent, metrics cover the whole curve.
  std::optional<MetricsWindow> metrics_window;

  [[nodiscard]] mag::ModelKind kind() const { return model_kind(model); }

  /// Checked spec views (std::get semantics: throws std::bad_variant_access
  /// on a model mismatch). The mutable overloads let builders write
  /// `s.ja().params.ms = ...` where they used to write `s.params.ms = ...`.
  [[nodiscard]] JaSpec& ja() { return std::get<JaSpec>(model); }
  [[nodiscard]] const JaSpec& ja() const { return std::get<JaSpec>(model); }
  [[nodiscard]] EnergySpec& energy() { return std::get<EnergySpec>(model); }
  [[nodiscard]] const EnergySpec& energy() const {
    return std::get<EnergySpec>(model);
  }
};

struct ScenarioResult {
  std::string name;
  /// Which backend produced the result (echoed by the file sinks).
  mag::ModelKind model = mag::ModelKind::kJilesAtherton;
  mag::BhCurve curve;
  analysis::LoopMetrics metrics;
  /// JA discretisation counters, populated for every JA frontend: the
  /// direct model's own, the SystemC module's (counted where its processes
  /// fire), or the stats of the AMS replay over the solver-placed
  /// trajectory. Zero for energy-based jobs. The packed paths reproduce
  /// them bitwise.
  mag::TimelessStats stats;
  /// The energy model's counters (play-cell yields, pinning dissipation).
  /// Zero for JA jobs — each model reports through its own surface rather
  /// than a lossy common denominator.
  mag::EnergyStats energy_stats;
  /// kOk on success; otherwise the structured failure (core/error.hpp) —
  /// branch on error.code, print error.detail.
  Error error;

  [[nodiscard]] bool ok() const { return error.ok(); }
};

/// Validation: rejects non-finite/degenerate parameters, discretisation,
/// and drives before any solver runs. Returns kOk for a runnable scenario,
/// else kInvalidScenario with the reason: validate_setup()'s verdict first,
/// then the per-sample scan of a sweep drive (validate_samples) or of a
/// flux drive's targets. run_scenario applies it first thing. BatchRunner
/// reaches the same verdicts without scanning every sample up front:
/// plan_route packs only scenarios validate_setup() accepts; a sweep lane
/// block scans a lane's samples only after its kernel, when the lane's
/// finish reports a non-finite point (which a non-finite sample always
/// causes), and emits validate()'s verdict for it; the kAms planner scans
/// each distinct sweep before solving it. So both reject identically.
[[nodiscard]] Error validate(const Scenario& scenario);

/// validate() without the per-sample scans: the model parameters, the
/// discretisation, the frontend/drive pairing, a time drive's waveform,
/// window and (for the frontends that sample it) n_samples >= 2, and a flux
/// drive's solver settings.
[[nodiscard]] Error validate_setup(const Scenario& scenario);

/// The JA discretisation check validate_setup() applies: dhmax finite and
/// > 0, substep_max finite and >= 0; kInvalidScenario naming the field.
[[nodiscard]] Error validate_config(const mag::TimelessConfig& config);

/// validate()'s scan of a sweep drive: kOk, or kInvalidScenario naming the
/// first non-finite sample. (A TimeDrive's samples are not scanned: a NaN
/// waveform surfaces as the kNonFinite curve it produces.)
[[nodiscard]] Error validate_samples(const wave::HSweep& sweep);

/// Index of the first curve point whose h/m/b is not finite, or
/// curve.size() when the whole curve is finite.
[[nodiscard]] std::size_t first_non_finite(const mag::BhCurve& curve);

/// Runs one scenario in the calling thread — the unit of work BatchRunner
/// fans out, exposed for tests and for callers that want serial control.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& scenario);

/// Computes the loop metrics of `result.curve` over `window` (or the whole
/// curve when absent) into `result.metrics`; a window that does not fit the
/// curve becomes a per-job error. No non-finite check: that is
/// finish_result's job.
void fill_metrics(ScenarioResult& result,
                  const std::optional<MetricsWindow>& window);

/// Finishes a computed result in one walk over its curve: the non-finite
/// guardrail and fill_metrics together, with the verdicts of running them
/// in that order. A curve holding NaN/Inf becomes a kNonFinite error naming
/// its first such point, and the call returns false; otherwise it returns
/// true with the metrics filled or the window error set. run_scenario
/// finishes through it.
bool finish_result(ScenarioResult& result,
                   const std::optional<MetricsWindow>& window);

/// The CurveFinish a curve of `points` points accumulates its finish into:
/// the metrics rows of `window` (the whole curve when absent), none below
/// two points or for a window that does not fit.
[[nodiscard]] analysis::CurveFinish start_finish(
    std::size_t points, const std::optional<MetricsWindow>& window);

/// Finishes a computed result from the CurveFinish its producer accumulated
/// (started by start_finish for this curve's length and `window`) — the
/// verdicts of finish_result(result, window), which walks the curve through
/// this same step. A non-finite finish sets kNonFinite (without a point
/// index) and returns false. The packed lane blocks finish through it with
/// what their kernels accumulated, so the two paths cannot drift apart.
bool finish_result(ScenarioResult& result,
                   const analysis::CurveFinish& finish,
                   const std::optional<MetricsWindow>& window);

/// Maps candidate parameter sets onto a homogeneous kDirect batch sharing
/// one discretisation and one excitation — the shape the packed path turns into
/// pure SoA lane blocks with no per-scenario fallback. This is how the
/// parameter-identification layer (src/fit) evaluates a whole optimizer
/// generation as a single batch. Scenario i is named "<prefix><i>".
[[nodiscard]] std::vector<Scenario> scenarios_for_parameters(
    std::span<const mag::JaParameters> params,
    const mag::TimelessConfig& config, const wave::HSweep& sweep,
    std::string_view name_prefix = "candidate/");

/// Model-agnostic overload: one spec per scenario, any mix of backends.
/// Homogeneous sub-batches still pack (the dispatcher groups lanes by
/// model), so a pure-energy sweep routes through the energy SoA kernel the
/// same way a pure-JA sweep always has.
[[nodiscard]] std::vector<Scenario> scenarios_for_parameters(
    std::span<const ModelSpec> specs, const wave::HSweep& sweep,
    std::string_view name_prefix = "candidate/");

}  // namespace ferro::core
