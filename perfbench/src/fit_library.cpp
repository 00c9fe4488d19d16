// fit_library — complete fit_ja_parameters runs (default options: kExact,
// multistart Nelder-Mead; threads = nproc) against synthetic loops made
// from seeded perturbations of the six library materials. Each fit starts
// from its material's catalogue values, which also carry the anhysteretic
// kind and shape fields the fit does not identify.
//
// Every generation is a packed batch of ~6 candidates, so the fixed
// per-batch costs of the core batch layer (planning, pool fan-out, lane
// setup, loop metrics the objective never reads) dominate — the opposite
// use of that layer from sweep_stream.
//
// Traced mode replays fit_ja_parameters (src/fit/fitter.cpp) from its
// public parts — NelderMead ask/tell, scenarios_for_parameters,
// BatchRunner::run, FitObjective::residual — with spans per generation.
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/batch_runner.hpp"
#include "fit/fitter.hpp"
#include "fit/objective.hpp"
#include "fit/optimizer.hpp"
#include "mag/bh.hpp"
#include "mag/timeless_ja.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "wave/sweep.hpp"

namespace perfbench {
namespace {

namespace core = ferro::core;
namespace fit = ferro::fit;
namespace mag = ferro::mag;
namespace wave = ferro::wave;

constexpr double kRecoveryTolerance = 1e-3;

struct Target {
  std::string material;
  mag::JaParameters truth;
  mag::JaParameters start;
  std::unique_ptr<fit::FitObjective> objective;
};

/// One synthetic target per library material: every identified parameter
/// scaled by a seeded factor in [0.95, 1.05], one major loop sampled at a
/// material-relative step, the model discretised with dhmax = amplitude/300.
/// (At +/-10 % the default search stalls on 7 of 40 paper-2006 targets, at
/// residuals of 0.02-0.13 T; at +/-5 % it recovered 400 of 400 targets.)
std::vector<Target> make_targets(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Target> targets;
  for (const mag::Material& m : mag::material_library()) {
    Target t;
    t.material = m.name;
    t.start = m.params;
    t.truth = m.params;
    t.truth.ms *= rng.uniform(0.95, 1.05);
    t.truth.a *= rng.uniform(0.95, 1.05);
    t.truth.k *= rng.uniform(0.95, 1.05);
    t.truth.c *= rng.uniform(0.95, 1.05);
    t.truth.alpha *= rng.uniform(0.95, 1.05);
    const double amp = 5.0 * (t.truth.a + t.truth.k);
    mag::TimelessConfig config;
    config.dhmax = amp / 300.0;
    const wave::HSweep sweep = wave::SweepBuilder(amp / 150.0).cycles(amp, 1).build();
    mag::TimelessJa model(t.truth, config);
    const mag::BhCurve curve = mag::run_sweep(model, sweep);
    t.objective = std::make_unique<fit::FitObjective>(curve, config);
    targets.push_back(std::move(t));
  }
  return targets;
}

fit::FitOptions fit_options(const Target& t, unsigned threads) {
  fit::FitOptions options;
  options.threads = threads;
  options.start = t.start;
  return options;
}

double recovery_error(const mag::JaParameters& got, const mag::JaParameters& want) {
  double worst = 0.0;
  const double pairs[][2] = {{got.ms, want.ms}, {got.a, want.a}, {got.k, want.k},
                             {got.c, want.c}, {got.alpha, want.alpha}};
  for (const auto& p : pairs) {
    worst = std::max(worst, std::fabs(p[0] - p[1]) / std::fabs(p[1]));
  }
  return std::isfinite(worst) ? worst : INFINITY;
}

std::uint64_t fit_digest(const fit::FitResult& r) {
  Digest d;
  for (const double v : {r.params.ms, r.params.a, r.params.k, r.params.c,
                         r.params.alpha, r.residual}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(r.generations));
  d.add(static_cast<std::uint64_t>(r.evaluations));
  d.add(static_cast<std::uint64_t>(r.winning_start + 1));
  d.add(static_cast<std::uint64_t>(r.converged));
  return ferro::util::SplitMix64::mix(d.value());
}

// ------------------------------------------------------------- replay ----

/// fit_ja_parameters' search-space encoding (src/fit/fitter.cpp).
struct Encoding {
  fit::FitBounds b;
  static double log_encode(double v, double lo, double hi) {
    return std::log(v / lo) / std::log(hi / lo);
  }
  static double log_decode(double x, double lo, double hi) {
    return lo * std::pow(hi / lo, std::clamp(x, 0.0, 1.0));
  }
  std::vector<double> encode(const mag::JaParameters& p) const {
    return {log_encode(p.ms, b.ms_lo, b.ms_hi), log_encode(p.a, b.a_lo, b.a_hi),
            log_encode(p.k, b.k_lo, b.k_hi), (p.c - b.c_lo) / (b.c_hi - b.c_lo),
            log_encode(p.alpha, b.alpha_lo, b.alpha_hi)};
  }
  mag::JaParameters decode(const std::vector<double>& x,
                           const mag::JaParameters& tmpl) const {
    mag::JaParameters p = tmpl;
    p.ms = log_decode(x[0], b.ms_lo, b.ms_hi);
    p.a = log_decode(x[1], b.a_lo, b.a_hi);
    p.k = log_decode(x[2], b.k_lo, b.k_hi);
    p.c = b.c_lo + std::clamp(x[3], 0.0, 1.0) * (b.c_hi - b.c_lo);
    p.alpha = log_decode(x[4], b.alpha_lo, b.alpha_hi);
    return p;
  }
  static double penalty(const std::vector<double>& x) {
    double viol = 0.0;
    for (const double xi : x) viol += std::max(0.0, -xi) + std::max(0.0, xi - 1.0);
    return 10.0 * viol;
  }
};

struct Instance {
  fit::NelderMead nm;
  int restarts_left = 0;
  double scale = 0.0;
  bool done = false;
  bool converged_once = false;
};

/// fit_ja_parameters with spans; every generation's candidate set is kept
/// in `generations` for the kernel-only timing done after the fit.
fit::FitResult replay_fit(const fit::FitObjective& objective,
                          const fit::FitOptions& options, Tracer* tracer,
                          std::vector<std::vector<mag::JaParameters>>& generations) {
  PB_SPAN(tracer, "fit.run");
  const Encoding enc{options.bounds};
  std::mt19937 rng(options.seed);
  std::uniform_real_distribution<double> uniform(0.15, 0.85);
  std::vector<Instance> instances;
  for (int s = 0; s < options.multistarts; ++s) {
    std::vector<double> x0(5);
    if (s == 0) {
      x0 = enc.encode(options.start);
      for (double& xi : x0) {
        if (!std::isfinite(xi)) xi = 0.5;
        xi = std::clamp(xi, 0.0, 1.0);
      }
    } else {
      for (double& xi : x0) xi = uniform(rng);
    }
    fit::NelderMeadOptions nm_opts;
    nm_opts.f_tol = options.f_tol;
    nm_opts.x_tol = options.x_tol;
    instances.push_back(Instance{fit::NelderMead(std::move(x0), options.initial_scale, nm_opts),
                                 options.restarts, options.initial_scale, false, false});
  }

  core::BatchRunner runner(core::BatchOptions{options.threads});
  fit::FitResult result;
  result.residual = std::numeric_limits<double>::infinity();
  for (int gen = 0; gen < options.max_generations; ++gen) {
    std::vector<std::size_t> owner;
    std::vector<std::vector<double>> points;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = instances[i];
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

    std::vector<mag::JaParameters> params;
    for (const auto& x : points) params.push_back(enc.decode(x, options.start));
    std::vector<core::ScenarioResult> evaluated;
    {
      PB_SPAN(tracer, "fit.batch");
      const auto scenarios = core::scenarios_for_parameters(
          params, objective.config(), objective.sweep(), "fit/gen/");
      evaluated = runner.run(
          scenarios, core::RunOptions{core::packing_for(options.math), {}, {}}, nullptr);
    }
    generations.push_back(std::move(params));
    ++result.generations;
    result.evaluations += evaluated.size();

    std::vector<double> values(points.size());
    {
      PB_SPAN(tracer, "fit.objective");
      for (std::size_t j = 0; j < evaluated.size(); ++j) {
        const double base = evaluated[j].ok()
                                ? objective.residual(evaluated[j].curve)
                                : std::numeric_limits<double>::infinity();
        values[j] = base + Encoding::penalty(points[j]);
      }
    }
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      std::vector<double> mine;
      for (std::size_t j = cursor; j < owner.size() && owner[j] == i; ++j) {
        mine.push_back(values[j]);
      }
      if (mine.empty()) continue;
      cursor += mine.size();
      instances[i].nm.tell(mine);
    }
  }
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

/// The kernel alone on one generation's candidates: what a generation
/// costs without the batch layer around it.
double kernel_only_s(const fit::FitObjective& objective,
                     const std::vector<mag::JaParameters>& params) {
  const double t0 = now_s();
  mag::TimelessJaBatch batch(mag::BatchMath::kExact);
  std::vector<const wave::HSweep*> sweeps;
  for (const auto& p : params) {
    batch.add_lane(p, objective.config());
    sweeps.push_back(&objective.sweep());
  }
  std::vector<mag::BhCurve> curves;
  batch.run(sweeps, curves);
  return now_s() - t0;
}

// ---------------------------------------------------------------- runs ---

struct RoundTotals {
  std::uint64_t generations = 0, evaluations = 0, digest = 0;
};

void run_untraced(const Args& args, Report& report) {
  std::vector<double> setup_walls;
  std::vector<Target> targets;
  for (int k = 0; k < kSetupRepeats; ++k) {
    targets.clear();
    const double t0 = now_s();
    targets = make_targets(args.seed);
    // First pool spin-up: one generation-sized packed batch.
    core::BatchRunner warm(core::BatchOptions{args.threads});
    const std::vector<mag::JaParameters> six(6, targets.front().start);
    (void)warm.run(core::scenarios_for_parameters(six, targets.front().objective->config(),
                                                  targets.front().objective->sweep()),
                   {.packing = core::Packing::kExact});
    setup_walls.push_back(now_s() - t0);
  }

  std::vector<RoundTotals> rounds;
  std::vector<double> worst_error(targets.size(), 0.0);
  double cpu_s = 0.0;
  const std::vector<double> walls =
      measure_passes(args.seconds, 2, cpu_s, [&] {
        RoundTotals totals;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          const fit::FitResult r = fit::fit_ja_parameters(
              *targets[t].objective, fit_options(targets[t], args.threads));
          totals.generations += r.generations;
          totals.evaluations += r.evaluations;
          totals.digest += fit_digest(r);
          worst_error[t] = std::max(worst_error[t], recovery_error(r.params, targets[t].truth));
        }
        rounds.push_back(totals);
      });
  const double rss = peak_rss_mib();

  const std::size_t items = walls.size() * targets.size();
  report.attempted += items;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (!(worst_error[t] <= kRecoveryTolerance)) {
      report.fail("fit_library: " + targets[t].material + " recovered with relative error " +
                  std::to_string(worst_error[t]));
    }
  }
  for (const RoundTotals& r : rounds) {
    if (r.digest != rounds.front().digest) {
      report.fail("fit_library: fit results differ between rounds");
    }
  }
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(double(targets.size()) / w);
  report.metric("items_per_s", median(rates), "1/s");
  report.info.emplace_back("fit_library.pass_items_per_s", quantile_summary(rates));
  report.metric("setup_s", median(setup_walls), "s");
  report.metric("peak_rss_mib", rss, "MiB");
  report.metric("cpu_ms_per_item", 1e3 * cpu_s / double(items), "ms");
  report.count("fit.generations", rounds.front().generations);
  report.count("fit.evaluations", rounds.front().evaluations);
  report.count("fit_library.digest", rounds.front().digest);
  report.info.emplace_back("fit_library.rounds", std::to_string(walls.size()));
}

void run_traced(const Args& args, Report& report) {
  const std::vector<Target> targets = make_targets(args.seed);
  Tracer tracer;
  double real_wall = 0.0, replay_wall = 0.0, kernel_s = 0.0;
  std::uint64_t generations = 0, evaluations = 0, digest = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const fit::FitOptions options = fit_options(targets[t], args.threads);
    double t0 = now_s();
    const fit::FitResult real = fit::fit_ja_parameters(*targets[t].objective, options);
    real_wall += now_s() - t0;

    std::vector<std::vector<mag::JaParameters>> gens;
    tracer.set_run(static_cast<std::uint32_t>(t));
    t0 = now_s();
    const fit::FitResult replay = replay_fit(*targets[t].objective, options, &tracer, gens);
    replay_wall += now_s() - t0;
    for (const auto& g : gens) kernel_s += kernel_only_s(*targets[t].objective, g);

    report.attempted += 2;
    if (fit_digest(real) != fit_digest(replay)) {
      report.fail("fit_library: replay of " + targets[t].material +
                  " differs from fit_ja_parameters");
    }
    if (!(recovery_error(real.params, targets[t].truth) <= kRecoveryTolerance)) {
      report.fail("fit_library: " + targets[t].material + " not recovered");
    }
    generations += real.generations;
    evaluations += real.evaluations;
    digest += fit_digest(real);
  }
  tracer.write_jsonl(args.out_dir + "/trace.jsonl");

  const double batch_s = tracer.busy("fit.batch");
  const double objective_s = tracer.busy("fit.objective");
  report.metric("fit.generations", double(generations), "count");
  report.metric("fit.evaluations", double(evaluations), "count");
  report.metric("fit.candidates_per_generation",
                double(evaluations) / double(generations), "count");
  report.metric("fit.batch.busy_s", batch_s, "s");
  report.metric("fit.objective.busy_s", objective_s, "s");
  report.metric("fit.optimizer.self_s", tracer.self("fit.run"), "s");
  report.metric("core.batch_fixed_us", 1e6 * (batch_s - kernel_s) / double(generations),
                "us");
  report.metric("trace.fit_library.overhead_s", replay_wall - real_wall, "s");
  report.count("fit.generations", generations);
  report.count("fit.evaluations", evaluations);
  report.count("fit_library.digest", digest);
}

}  // namespace

void run_fit_library(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
