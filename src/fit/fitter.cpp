#include "fit/fitter.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/scenario.hpp"
#include "core/thread_pool.hpp"
#include "fit/optimizer.hpp"

namespace ferro::fit {

namespace {

constexpr std::size_t kDim = 5;  // (ms, a, k, c, alpha)

/// Steepness of the out-of-box penalty [T per unit of normalised
/// violation]: large against any physical flux residual (a few tesla at
/// most), so the simplex is pushed back into the box within a step or two,
/// yet finite and smooth so Nelder-Mead can still rank exterior points.
constexpr double kPenaltyScale = 10.0;

struct Encoding {
  FitBounds bounds;

  [[nodiscard]] static double log_encode(double v, double lo, double hi) {
    return std::log(v / lo) / std::log(hi / lo);
  }
  [[nodiscard]] static double log_decode(double x, double lo, double hi) {
    return lo * std::pow(hi / lo, std::clamp(x, 0.0, 1.0));
  }

  [[nodiscard]] std::vector<double> encode(const mag::JaParameters& p) const {
    return {log_encode(p.ms, bounds.ms_lo, bounds.ms_hi),
            log_encode(p.a, bounds.a_lo, bounds.a_hi),
            log_encode(p.k, bounds.k_lo, bounds.k_hi),
            (p.c - bounds.c_lo) / (bounds.c_hi - bounds.c_lo),
            log_encode(p.alpha, bounds.alpha_lo, bounds.alpha_hi)};
  }

  /// Decodes normalised coordinates into a valid parameter set (coordinates
  /// clamp into the box); non-identified fields come from `tmpl`.
  [[nodiscard]] mag::JaParameters decode(const std::vector<double>& x,
                                         const mag::JaParameters& tmpl) const {
    mag::JaParameters p = tmpl;
    p.ms = log_decode(x[0], bounds.ms_lo, bounds.ms_hi);
    p.a = log_decode(x[1], bounds.a_lo, bounds.a_hi);
    p.k = log_decode(x[2], bounds.k_lo, bounds.k_hi);
    p.c = bounds.c_lo +
          std::clamp(x[3], 0.0, 1.0) * (bounds.c_hi - bounds.c_lo);
    p.alpha = log_decode(x[4], bounds.alpha_lo, bounds.alpha_hi);
    return p;
  }

  /// Smooth exterior penalty: linear in the total box violation.
  [[nodiscard]] static double penalty(const std::vector<double>& x) {
    double viol = 0.0;
    for (const double xi : x) {
      viol += std::max(0.0, -xi) + std::max(0.0, xi - 1.0);
    }
    return kPenaltyScale * viol;
  }

  [[nodiscard]] bool valid() const {
    return 0.0 < bounds.ms_lo && bounds.ms_lo < bounds.ms_hi &&
           0.0 < bounds.a_lo && bounds.a_lo < bounds.a_hi &&
           0.0 < bounds.k_lo && bounds.k_lo < bounds.k_hi &&
           0.0 <= bounds.c_lo && bounds.c_lo < bounds.c_hi &&
           bounds.c_hi < 1.0 && 0.0 < bounds.alpha_lo &&
           bounds.alpha_lo < bounds.alpha_hi;
  }
};

/// One multistart instance and its restart budget.
struct Instance {
  NelderMead nm;
  int restarts_left = 0;
  double scale = 0.0;
  bool done = false;
  bool converged_once = false;
};

/// What one group of instances hands back to the fit.
struct GroupOutcome {
  std::size_t generations = 0;
  std::size_t evaluations = 0;
  bool stopped = false;  ///< the gate ended this group's search early
  std::exception_ptr error;
};

/// The generation loop over one group of instances: gather every live
/// instance's pending points, evaluate them as one packed batch through a
/// serial runner, and tell each instance its slice of the values. Ends at a
/// generation boundary once `gate` stops (a generation it interrupted is
/// not told) or another group has `failed`.
GroupOutcome run_group(std::span<Instance> group, const FitObjective& objective,
                       const FitOptions& options, const Encoding& enc,
                       const core::RunGate& gate,
                       const std::atomic<bool>& failed) {
  GroupOutcome out;
  const core::BatchRunner runner(core::BatchOptions{1});
  for (int gen = 0; gen < options.max_generations; ++gen) {
    if (failed.load(std::memory_order_relaxed)) break;
    if (gate.stopped()) {
      out.stopped = true;
      break;
    }
    // Gather every live instance's pending points; converged instances
    // spend a restart or retire.
    std::vector<std::size_t> owner;           // flat point -> instance
    std::vector<std::vector<double>> points;  // flat normalised coordinates
    for (std::size_t i = 0; i < group.size(); ++i) {
      Instance& inst = group[i];
      if (inst.done) continue;
      if (inst.nm.converged()) {
        inst.converged_once = true;
        if (inst.restarts_left == 0) {
          inst.done = true;
          continue;
        }
        --inst.restarts_left;
        inst.scale *= 0.5;
        inst.nm.restart(inst.scale);
      }
      for (auto& p : inst.nm.ask()) {
        owner.push_back(i);
        points.push_back(std::move(p));
      }
    }
    if (points.empty()) break;

    // Decode and evaluate the whole generation as one packed batch.
    std::vector<mag::JaParameters> params;
    params.reserve(points.size());
    for (const auto& x : points) params.push_back(enc.decode(x, options.start));
    const auto scenarios = core::scenarios_for_parameters(
        params, objective.config(), objective.sweep(), "fit/gen/");
    core::RunLimits batch_limits;
    batch_limits.cancel = options.limits.cancel;
    if (options.limits.deadline_s > 0.0) {
      batch_limits.deadline_s = gate.remaining_seconds();
    }
    const auto evaluated = runner.run(
        scenarios,
        core::RunOptions{core::packing_for(options.math), batch_limits, {}},
        nullptr);
    ++out.generations;
    out.evaluations += evaluated.size();
    if (gate.stopped()) {
      // A generation interrupted mid-batch carries kCancelled results;
      // telling those into the simplices would poison the incumbents, so
      // the search ends at this boundary with the pre-generation state.
      out.stopped = true;
      break;
    }

    std::vector<double> values(points.size());
    for (std::size_t j = 0; j < evaluated.size(); ++j) {
      const double base = evaluated[j].ok()
                              ? objective.residual(evaluated[j].curve)
                              : std::numeric_limits<double>::infinity();
      values[j] = base + Encoding::penalty(points[j]);
    }

    // Route each instance's slice of values back, in ask order.
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::vector<double> mine;
      for (std::size_t j = cursor; j < owner.size() && owner[j] == i; ++j) {
        mine.push_back(values[j]);
      }
      if (mine.empty()) continue;
      cursor += mine.size();
      group[i].nm.tell(mine);
    }
  }
  return out;
}

}  // namespace

FitResult fit_ja_parameters(const FitObjective& objective,
                            const FitOptions& options) {
  const Encoding enc{options.bounds};
  if (!enc.valid()) {
    throw std::invalid_argument("fit_ja_parameters: malformed bounds");
  }
  if (options.multistarts < 1) {
    throw std::invalid_argument("fit_ja_parameters: multistarts < 1");
  }
  if (options.max_generations < 1) {
    throw std::invalid_argument("fit_ja_parameters: max_generations < 1");
  }
  if (options.restarts < 0) {
    throw std::invalid_argument("fit_ja_parameters: restarts < 0");
  }
  // Model-contract gate: this entry point identifies JA parameters, so an
  // objective built over any other ModelSpec is a structured mismatch (the
  // candidates it would score cannot run on that spec), reported like every
  // other pre-run rejection rather than thrown. So is a JA discretisation
  // no candidate could run with: every evaluation would fail validation.
  core::Error rejected;
  if (!std::holds_alternative<core::JaSpec>(objective.model())) {
    rejected = {core::ErrorCode::kInvalidScenario,
                "objective is built over model '" +
                    std::string(mag::to_string(
                        core::model_kind(objective.model()))) +
                    "', not 'ja'"};
  } else {
    rejected = core::validate_config(objective.config());
  }
  if (!rejected.ok()) {
    FitResult none;
    none.residual = std::numeric_limits<double>::infinity();
    none.stop = {rejected.code, "fit_ja_parameters: " + rejected.detail};
    return none;
  }

  // Start points: the template first (clamped into the box), then seeded
  // uniform positions kept away from the box faces. mt19937 with a fixed
  // seed makes the whole placement — and with kExact evaluation the whole
  // fit — deterministic.
  std::mt19937 rng(options.seed);
  std::uniform_real_distribution<double> uniform(0.15, 0.85);
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(options.multistarts));
  for (int s = 0; s < options.multistarts; ++s) {
    std::vector<double> x0(kDim);
    if (s == 0) {
      x0 = enc.encode(options.start);
      for (double& xi : x0) {
        if (!std::isfinite(xi)) xi = 0.5;
        xi = std::clamp(xi, 0.0, 1.0);
      }
    } else {
      for (double& xi : x0) xi = uniform(rng);
    }
    NelderMeadOptions nm_opts;
    nm_opts.f_tol = options.f_tol;
    nm_opts.x_tol = options.x_tol;
    instances.push_back(Instance{
        NelderMead(std::move(x0), options.initial_scale, nm_opts),
        options.restarts, options.initial_scale, false, false});
  }

  // One gate for the whole fit: the deadline is anchored here, and every
  // generation's batch gets the same token plus whatever wall-clock is
  // left, so a deadline can interrupt even a single long generation.
  core::RunGate gate(options.limits);

  // Instances share nothing until the winner is picked, so contiguous
  // groups of ceil(M / threads) run as independent pool tasks with no
  // barrier between them. An instance's trajectory does not depend on
  // which others share its batches (packed lanes are partition-invariant),
  // so the result is bitwise the same for every thread count.
  const unsigned threads =
      core::resolve_workers(options.threads, instances.size());
  const std::size_t per_group = (instances.size() + threads - 1) / threads;
  const std::size_t n_groups = (instances.size() + per_group - 1) / per_group;
  std::vector<GroupOutcome> outcomes(n_groups);
  std::atomic<bool> failed{false};
  core::ThreadPool pool(static_cast<unsigned>(n_groups));
  pool.parallel_for(n_groups, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const std::size_t first = g * per_group;
      const std::size_t count = std::min(per_group, instances.size() - first);
      // An exception is kept per group and rethrown to the caller once
      // every group has returned, the lowest group's first, whatever the
      // timing.
      try {
        outcomes[g] = run_group({instances.data() + first, count}, objective,
                                options, enc, gate, failed);
      } catch (...) {
        outcomes[g].error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });

  FitResult result;
  result.residual = std::numeric_limits<double>::infinity();
  for (const GroupOutcome& o : outcomes) {
    if (o.error) std::rethrow_exception(o.error);
    result.generations = std::max(result.generations, o.generations);
    result.evaluations += o.evaluations;
    if (o.stopped) result.stop = gate.stop_error();
  }

  // Winner: smallest incumbent across instances.
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    if (inst.nm.best_value() < result.residual) {
      result.residual = inst.nm.best_value();
      result.params = enc.decode(inst.nm.best(), options.start);
      result.winning_start = static_cast<int>(i);
      result.converged = inst.converged_once || inst.nm.converged();
    }
  }
  return result;
}

}  // namespace ferro::fit
