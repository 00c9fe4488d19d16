// FIT — parameter-identification throughput: how fast can the fitter
// evaluate optimizer generations, and what does the packed SoA path buy
// over evaluating candidates one by one?
//
// The workload is the identification inner loop isolated: N candidate
// parameter sets (one optimizer generation) simulated over the same
// measured excitation. BM_GenerationPacked drives them through one
// BatchRunner::run with Packing::kExact on a hardware-sized runner (the
// fitter instead gives each instance group a serial runner and runs the
// groups concurrently, which only BM_FitSynthetic exercises);
// BM_GenerationSerial runs the same candidates through run_scenario one at
// a time in the calling thread — the way a fitter without the batch layer
// would. BM_FitSynthetic times a complete (budget-capped) fit.
//
// The report section is the acceptance check: a synthetic ground-truth
// identification must recover every generating parameter to 1e-3 relative,
// and its residual is printed for the record.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "core/scenario.hpp"
#include "fit/fitter.hpp"
#include "fit/objective.hpp"
#include "mag/ja_params.hpp"
#include "wave/sweep.hpp"

namespace {

using namespace ferro;

mag::JaParameters hidden_truth() {
  mag::JaParameters p;
  p.ms = 1.25e6;
  p.a = 1600.0;
  p.k = 3200.0;
  p.c = 0.18;
  p.alpha = 0.0022;
  return p;
}

wave::HSweep measurement_sweep() {
  return wave::SweepBuilder(25.0).to(8000.0).cycles(8000.0, 1).build();
}

mag::BhCurve measured_curve() {
  const auto truth = hidden_truth();
  return core::run_scenario(core::scenarios_for_parameters(
                                {&truth, 1}, {}, measurement_sweep(), "t/")[0])
      .curve;
}

/// One optimizer generation: n candidates spread around the truth the way a
/// mid-fit simplex population is (distinct but same order of magnitude).
std::vector<mag::JaParameters> generation(std::size_t n) {
  const mag::JaParameters truth = hidden_truth();
  std::vector<mag::JaParameters> params;
  params.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mag::JaParameters p = truth;
    const double jitter = 0.8 + 0.05 * static_cast<double>(i % 9);
    p.ms = truth.ms * jitter;
    p.a = truth.a * (2.0 - jitter);
    p.k = truth.k * jitter;
    p.c = truth.c * (0.5 + 0.1 * static_cast<double>(i % 6));
    p.alpha = truth.alpha * (2.0 - jitter);
    params.push_back(p);
  }
  return params;
}

void BM_GenerationPacked(benchmark::State& state) {
  const auto params = generation(static_cast<std::size_t>(state.range(0)));
  const wave::HSweep sweep = measurement_sweep();
  const fit::FitObjective objective(measured_curve());
  const core::BatchRunner runner;
  for (auto _ : state) {
    const auto scenarios =
        core::scenarios_for_parameters(params, objective.config(), sweep);
    auto results =
        runner.run(scenarios, {.packing = core::Packing::kExact});
    double acc = 0.0;
    for (const auto& r : results) acc += objective.residual(r.curve);
    benchmark::DoNotOptimize(acc);
  }
  state.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * params.size()),
      benchmark::Counter::kIsRate);
}

void BM_GenerationSerial(benchmark::State& state) {
  const auto params = generation(static_cast<std::size_t>(state.range(0)));
  const wave::HSweep sweep = measurement_sweep();
  const fit::FitObjective objective(measured_curve());
  for (auto _ : state) {
    const auto scenarios =
        core::scenarios_for_parameters(params, objective.config(), sweep);
    double acc = 0.0;
    for (const auto& s : scenarios) {
      acc += objective.residual(core::run_scenario(s).curve);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * params.size()),
      benchmark::Counter::kIsRate);
}

void BM_FitSynthetic(benchmark::State& state) {
  const fit::FitObjective objective(measured_curve());
  fit::FitOptions options;
  options.multistarts = 4;
  options.restarts = 0;
  options.max_generations = 120;  // budget-capped: throughput, not polish
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const fit::FitResult result = fit::fit_ja_parameters(objective, options);
    evaluations += result.evaluations;
    benchmark::DoNotOptimize(result.residual);
  }
  state.counters["curves/s"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_GenerationPacked)->Arg(8)->Arg(32)->UseRealTime();
BENCHMARK(BM_GenerationSerial)->Arg(8)->Arg(32)->UseRealTime();
BENCHMARK(BM_FitSynthetic)->UseRealTime();

void report() {
  benchutil::header("FIT", "JA parameter identification (src/fit)");
  const mag::JaParameters truth = hidden_truth();
  const fit::FitObjective objective(measured_curve());
  const fit::FitResult result = fit::fit_ja_parameters(objective, {});

  std::printf("  synthetic ground-truth recovery (%zu curves, %zu packed "
              "generations):\n",
              result.evaluations, result.generations);
  std::printf("  %-8s %14s %14s %12s\n", "param", "true", "fitted", "rel err");
  double worst = 0.0;
  const auto row = [&](const char* name, double t, double f) {
    const double rel = std::fabs(f - t) / std::fabs(t);
    worst = std::max(worst, rel);
    std::printf("  %-8s %14.6e %14.6e %12.2e\n", name, t, f, rel);
  };
  row("ms", truth.ms, result.params.ms);
  row("a", truth.a, result.params.a);
  row("k", truth.k, result.params.k);
  row("c", truth.c, result.params.c);
  row("alpha", truth.alpha, result.params.alpha);
  std::printf("  residual %.3e T RMS\n", result.residual);
  std::printf("  acceptance (all rel err <= 1e-3): %s\n",
              worst <= 1e-3 ? "PASS" : "FAIL");
  benchutil::footnote(
      "packed vs serial: the generation benchmarks share one workload, so "
      "candidates/s compares the SoA batch path against per-candidate "
      "evaluation directly.");
}

}  // namespace

FERRO_BENCH_MAIN(report)
