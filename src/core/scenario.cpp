#include "core/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/ams_ja.hpp"
#include "core/dc_sweep.hpp"
#include "core/systemc_ja.hpp"
#include "mag/inverse_ja.hpp"
#include "wave/sweep.hpp"

namespace ferro::core {
namespace {

std::string join_violations(const std::vector<std::string>& violations) {
  std::string out = "invalid parameters: ";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) out += "; ";
    out += violations[i];
  }
  return out;
}

/// Runs a sweep-driven JA frontend, keeping each one's discretisation
/// counters: the direct model's, the SystemC module's, or the stats of the
/// AMS replay. kAms synthesises a 1 s excitation from the sweep
/// (ams_drive_for_sweep, which the packed planner shares).
void run_sweep_frontend(const Scenario& scenario, const wave::HSweep& sweep,
                        ScenarioResult& result) {
  const JaSpec& ja = scenario.ja();
  switch (scenario.frontend) {
    case Frontend::kDirect: {
      auto dc = run_dc_sweep(ja.params, ja.config, sweep);
      result.curve = std::move(dc.curve);
      result.stats = dc.stats;
      break;
    }
    case Frontend::kSystemC: {
      auto sc = run_systemc_sweep(ja.params, ja.config.dhmax, sweep);
      result.curve = std::move(sc.curve);
      result.stats = sc.stats;
      break;
    }
    case Frontend::kAms: {
      const AmsSweepDrive drive = ams_drive_for_sweep(sweep, ja.config);
      auto ams = run_ams_timeless(ja.params, drive.pwl, drive.config);
      result.curve = std::move(ams.curve);
      result.stats = ams.stats;
      break;
    }
  }
}

/// Runs a flux-driven scenario through the inverse model, committing state
/// only on converged solves. A failed sample stops the drive there: the
/// partial curve is kept for diagnostics under a kBracketFailure (the
/// bracket expansion found no sign change — PR 6's surfaced failure mode)
/// or kSolverDiverged (iteration budget exhausted) error.
void run_flux_drive(const Scenario& scenario, const FluxDrive& flux,
                    ScenarioResult& result) {
  const JaSpec& ja = scenario.ja();
  mag::InverseConfig config;
  config.forward = ja.config;
  config.tolerance_b = flux.tolerance_b;
  config.max_iterations = flux.max_iterations;
  mag::InverseTimelessJa inverse(ja.params, config);

  result.curve.reserve(flux.b.size());
  for (std::size_t j = 0; j < flux.b.size(); ++j) {
    const std::uint64_t failures_before = inverse.bracket_failures();
    const double h = inverse.apply_b(flux.b[j]);
    if (!inverse.converged()) {
      const bool bracket = inverse.bracket_failures() > failures_before;
      const std::string where = " at sample " + std::to_string(j) +
                                " (target B=" + std::to_string(flux.b[j]) +
                                " T)";
      result.error =
          bracket ? Error{ErrorCode::kBracketFailure,
                          "inverse solve failed to bracket the target" + where}
                  : Error{ErrorCode::kSolverDiverged,
                          "inverse solve exhausted its iteration budget" +
                              where};
      break;
    }
    result.curve.append(h, inverse.magnetisation(), inverse.flux_density());
  }
  result.stats = inverse.forward().stats();
}

/// Runs an energy-based scenario (kDirect only — validate() rejects the
/// rest): sweeps apply the quasi-static update, time drives sample the
/// waveform onto a uniform grid and feed dt to the dynamic term.
void run_energy(const Scenario& scenario, ScenarioResult& result) {
  mag::EnergyBased model(scenario.energy().params);
  if (const auto* time = std::get_if<TimeDrive>(&scenario.drive)) {
    const wave::HSweep sweep = wave::sweep_from_waveform(
        *time->waveform, time->t0, time->t1, time->n_samples);
    const double dt =
        (time->t1 - time->t0) / static_cast<double>(sweep.size() - 1);
    result.curve.reserve(sweep.size());
    for (const double h : sweep.h) {
      model.apply(h, dt);
      result.curve.append(h, model.magnetisation(), model.flux_density());
    }
  } else {
    result.curve =
        mag::run_sweep(model, std::get<wave::HSweep>(scenario.drive));
  }
  result.energy_stats = model.stats();
}

/// Index of the first non-finite value of `x`, or x.size(). Each block is
/// tested with integer ops the compiler vectorises: an exponent field of
/// all ones (+-inf or NaN) plus one carries into the sign bit, which the
/// OR keeps. Only a flagged block is searched value by value.
std::size_t first_non_finite_value(std::span<const double> x) {
  constexpr std::size_t kBlock = 256;
  constexpr std::uint64_t kExponent = 0x7ff0000000000000ull;
  constexpr std::uint64_t kExponentOne = 1ull << 52;
  for (std::size_t begin = 0; begin < x.size(); begin += kBlock) {
    const std::size_t end = std::min(x.size(), begin + kBlock);
    std::uint64_t flagged = 0;
    for (std::size_t j = begin; j < end; ++j) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[j]);
      flagged |= (bits & kExponent) + kExponentOne;
    }
    if ((flagged >> 63) == 0) continue;
    for (std::size_t j = begin; j < end; ++j) {
      if (!std::isfinite(x[j])) return j;
    }
  }
  return x.size();
}

Error validate_ja_spec(const JaSpec& ja) {
  const auto violations = ja.params.validate();
  if (!violations.empty()) {
    return {ErrorCode::kInvalidScenario, join_violations(violations)};
  }
  return validate_config(ja.config);
}

Error validate_energy_spec(const Scenario& scenario, const EnergySpec& spec) {
  const auto violations = spec.params.validate();
  if (!violations.empty()) {
    return {ErrorCode::kInvalidScenario, join_violations(violations)};
  }
  if (scenario.frontend != Frontend::kDirect) {
    return {ErrorCode::kInvalidScenario,
            "energy-based model supports the direct frontend only"};
  }
  if (std::holds_alternative<FluxDrive>(scenario.drive)) {
    return {ErrorCode::kInvalidScenario,
            "energy-based model has no flux-driven (inverse) solver"};
  }
  if (spec.params.tau_dyn > 0.0 &&
      !std::holds_alternative<TimeDrive>(scenario.drive)) {
    return {ErrorCode::kInvalidScenario,
            "energy-based dynamic term (tau_dyn > 0) needs a time-driven "
            "scenario"};
  }
  return {};
}

}  // namespace

std::string_view to_string(Frontend f) {
  switch (f) {
    case Frontend::kDirect: return "direct";
    case Frontend::kSystemC: return "systemc";
    case Frontend::kAms: return "ams";
  }
  return "?";
}

Error validate_setup(const Scenario& scenario) {
  Error spec_error;
  if (const auto* ja = std::get_if<JaSpec>(&scenario.model)) {
    spec_error = validate_ja_spec(*ja);
  } else {
    spec_error = validate_energy_spec(scenario, scenario.energy());
  }
  if (!spec_error.ok()) return spec_error;

  if (const auto* time = std::get_if<TimeDrive>(&scenario.drive)) {
    if (!time->waveform) {
      return {ErrorCode::kInvalidScenario,
              "time-driven scenario has no waveform"};
    }
    if (!std::isfinite(time->t0) || !std::isfinite(time->t1) ||
        time->t1 <= time->t0) {
      return {ErrorCode::kInvalidScenario,
              "time-driven scenario needs a finite window with t1 > t0"};
    }
    // kAms places its own steps; every other frontend samples the uniform
    // grid, which needs both ends.
    if (scenario.frontend != Frontend::kAms && time->n_samples < 2) {
      return {ErrorCode::kInvalidScenario,
              "time-driven scenario needs n_samples >= 2"};
    }
  } else if (const auto* flux = std::get_if<FluxDrive>(&scenario.drive)) {
    if (scenario.frontend != Frontend::kDirect) {
      return {ErrorCode::kInvalidScenario,
              "flux drive supports the direct frontend only"};
    }
    if (!std::isfinite(flux->tolerance_b) || flux->tolerance_b <= 0.0 ||
        flux->max_iterations < 1) {
      return {ErrorCode::kInvalidScenario,
              "flux drive needs tolerance_b > 0 and max_iterations >= 1"};
    }
  }
  return {};
}

Error validate_config(const mag::TimelessConfig& config) {
  if (!std::isfinite(config.dhmax) || config.dhmax <= 0.0) {
    return {ErrorCode::kInvalidScenario,
            "invalid config: dhmax must be finite and > 0"};
  }
  if (!std::isfinite(config.substep_max) || config.substep_max < 0.0) {
    return {ErrorCode::kInvalidScenario,
            "invalid config: substep_max must be finite and >= 0"};
  }
  return {};
}

Error validate_samples(const wave::HSweep& sweep) {
  const std::size_t bad = first_non_finite_value(sweep.h);
  if (bad == sweep.h.size()) return {};
  return {ErrorCode::kInvalidScenario,
          "non-finite field sample at index " + std::to_string(bad)};
}

Error validate(const Scenario& scenario) {
  Error setup = validate_setup(scenario);
  if (!setup.ok()) return setup;

  if (const auto* sweep = std::get_if<wave::HSweep>(&scenario.drive)) {
    return validate_samples(*sweep);
  }
  if (const auto* flux = std::get_if<FluxDrive>(&scenario.drive)) {
    const std::size_t bad = first_non_finite_value(flux->b);
    if (bad != flux->b.size()) {
      return {ErrorCode::kInvalidScenario,
              "non-finite flux target at index " + std::to_string(bad)};
    }
  }
  return {};
}

namespace {

bool finite(const mag::BhPoint& p) {
  // Non-short-circuit: one branch per point instead of three.
  return std::isfinite(p.h) & std::isfinite(p.m) & std::isfinite(p.b);
}

/// kOk when `window` fits a curve of `size` >= 2 points, else the per-job
/// error. A window that does not fit is an error, not something to clamp
/// silently: frontends like kAms place their own steps, so a window sized
/// from the input sweep can miss the actual trajectory entirely.
Error window_error(const MetricsWindow& window, std::size_t size) {
  if (window.begin < window.end && window.end <= size - 1) return {};
  return {ErrorCode::kInvalidScenario,
          "metrics window [" + std::to_string(window.begin) + ", " +
              std::to_string(window.end) + "] does not fit a curve of " +
              std::to_string(size) + " points"};
}

}  // namespace

std::size_t first_non_finite(const mag::BhCurve& curve) {
  const auto& points = curve.points();
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (!finite(points[j])) return j;
  }
  return points.size();
}

void fill_metrics(ScenarioResult& result,
                  const std::optional<MetricsWindow>& window) {
  if (result.curve.size() < 2) return;
  if (window) {
    Error misfit = window_error(*window, result.curve.size());
    if (!misfit.ok()) {
      result.error = std::move(misfit);
      return;
    }
    result.metrics = analysis::analyze_loop(result.curve, window->begin,
                                            window->end);
  } else {
    result.metrics = analysis::analyze_loop(result.curve);
  }
}

analysis::CurveFinish start_finish(
    std::size_t points, const std::optional<MetricsWindow>& window) {
  // No metrics below two points or for a misfit window, whose error waits
  // until the finite check has passed, so that a non-finite curve reports
  // kNonFinite first.
  analysis::CurveFinish finish;
  if (points < 2) return finish;
  if (!window) {
    finish.count = points;
  } else if (window_error(*window, points).ok()) {
    finish.begin = window->begin;
    finish.count = window->end - window->begin + 1;
  }
  return finish;
}

bool finish_result(ScenarioResult& result,
                   const analysis::CurveFinish& finish,
                   const std::optional<MetricsWindow>& window) {
  if (!finish.finite) {
    result.error = {ErrorCode::kNonFinite,
                    "non-finite value in simulated curve"};
    return false;
  }
  const std::size_t n = result.curve.size();
  if (n >= 2 && window) {
    Error misfit = window_error(*window, n);
    if (!misfit.ok()) {
      result.error = std::move(misfit);
      return true;
    }
  }
  if (finish.count != 0) result.metrics = finish.loop.metrics();
  return true;
}

bool finish_result(ScenarioResult& result,
                   const std::optional<MetricsWindow>& window) {
  const auto& points = result.curve.points();
  analysis::CurveFinish finish = start_finish(points.size(), window);
  finish.add_rows(points.data(), 0, points.size());
  if (!finish.finite) {
    result.error = {ErrorCode::kNonFinite,
                    "non-finite value in simulated curve at point " +
                        std::to_string(first_non_finite(result.curve))};
    return false;
  }
  return finish_result(result, finish, window);
}

ScenarioResult run_scenario(const Scenario& scenario) {
  ScenarioResult result;
  result.name = scenario.name;
  result.model = scenario.kind();

  result.error = validate(scenario);
  if (!result.error.ok()) return result;

  try {
    if (std::holds_alternative<EnergySpec>(scenario.model)) {
      run_energy(scenario, result);
    } else if (const auto* drive = std::get_if<TimeDrive>(&scenario.drive)) {
      if (scenario.frontend == Frontend::kAms) {
        // The analogue solver owns the time axis and places its own steps.
        AmsJaConfig config;
        config.t_start = drive->t0;
        config.t_end = drive->t1;
        config.timeless = scenario.ja().config;
        auto ams =
            run_ams_timeless(scenario.ja().params, *drive->waveform, config);
        result.curve = std::move(ams.curve);
        result.stats = ams.stats;
      } else {
        // kDirect/kSystemC sample the waveform onto a uniform grid and run
        // it as a timeless sweep.
        const wave::HSweep sweep = wave::sweep_from_waveform(
            *drive->waveform, drive->t0, drive->t1, drive->n_samples);
        run_sweep_frontend(scenario, sweep, result);
      }
    } else if (const auto* flux = std::get_if<FluxDrive>(&scenario.drive)) {
      run_flux_drive(scenario, *flux, result);
      if (!result.error.ok()) return result;
    } else {
      run_sweep_frontend(scenario, std::get<wave::HSweep>(scenario.drive),
                         result);
    }
  } catch (const std::bad_alloc&) {
    result.error = {ErrorCode::kInternal, "allocation failure"};
    return result;
  } catch (const std::exception& e) {
    result.error = {ErrorCode::kSolverDiverged, e.what()};
    return result;
  } catch (...) {
    result.error = {ErrorCode::kSolverDiverged, "unknown exception"};
    return result;
  }

  // Post-run guardrail: a frontend that silently produced NaN/Inf (e.g. a
  // pathological waveform fed through the kernel) is a kNonFinite error,
  // never a "successful" garbage curve. The packed lane quarantine finishes
  // through the same call, so the two agree.
  finish_result(result, scenario.metrics_window);
  return result;
}

std::vector<Scenario> scenarios_for_parameters(
    std::span<const mag::JaParameters> params,
    const mag::TimelessConfig& config, const wave::HSweep& sweep,
    std::string_view name_prefix) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Scenario s;
    s.name = std::string(name_prefix) + std::to_string(i);
    s.model = JaSpec{params[i], config};
    s.drive = sweep;
    s.frontend = Frontend::kDirect;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::vector<Scenario> scenarios_for_parameters(std::span<const ModelSpec> specs,
                                               const wave::HSweep& sweep,
                                               std::string_view name_prefix) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Scenario s;
    s.name = std::string(name_prefix) + std::to_string(i);
    s.model = specs[i];
    s.drive = sweep;
    s.frontend = Frontend::kDirect;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace ferro::core
