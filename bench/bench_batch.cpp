// BATCH — scenario throughput through BatchRunner (which plans and packs
// every run into SoA lane blocks) against a serial run_scenario loop.
//
// Two workloads:
//   * heterogeneous: the material library tiled with per-scenario dhmax
//     jitter (the original determinism workload);
//   * homogeneous: 64 scenarios of one material and one sweep shape with
//     dhmax jitter only — the shape the packed path is built for.
//
// The report section checks that run() at every thread count reproduces
// run_scenario bit-for-bit; the timing section measures scenarios/second
// for the serial run_scenario baseline and for packed-exact and
// packed-fast runs.
#include <cstdio>

#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "wave/sweep.hpp"

namespace {

using namespace ferro;

constexpr std::size_t kScenarios = 64;

std::vector<core::Scenario> heterogeneous_workload() {
  const auto& library = mag::material_library();
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = 5.0 * (material.params.a + material.params.k);
    core::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    core::JaSpec spec;
    spec.params = material.params;
    // Jitter the event threshold so jobs are distinct work units.
    spec.config.dhmax = amp / (300.0 + 10.0 * static_cast<double>(i % 8));
    s.model = spec;
    wave::HSweep sweep = wave::SweepBuilder(amp / 1500.0).cycles(amp, 2).build();
    s.metrics_window = core::MetricsWindow{sweep.size() / 2, sweep.size() - 1};
    s.drive = std::move(sweep);
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::vector<core::Scenario> homogeneous_workload() {
  const auto& material = mag::material_library().front();
  const double amp = 5.0 * (material.params.a + material.params.k);
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    core::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    core::JaSpec spec;
    spec.params = material.params;
    spec.config.dhmax = amp / (300.0 + 10.0 * static_cast<double>(i % 8));
    s.model = spec;
    wave::HSweep sweep = wave::SweepBuilder(amp / 1500.0).cycles(amp, 2).build();
    s.metrics_window = core::MetricsWindow{sweep.size() / 2, sweep.size() - 1};
    s.drive = std::move(sweep);
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

bool identical(const std::vector<core::ScenarioResult>& a,
               const std::vector<core::ScenarioResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& pa = a[i].curve.points();
    const auto& pb = b[i].curve.points();
    if (a[i].name != b[i].name || a[i].error != b[i].error ||
        pa.size() != pb.size()) {
      return false;
    }
    for (std::size_t j = 0; j < pa.size(); ++j) {
      // Bitwise: any reordering of the arithmetic would show up here.
      if (pa[j].h != pb[j].h || pa[j].m != pb[j].m || pa[j].b != pb[j].b) {
        return false;
      }
    }
  }
  return true;
}

/// The per-scenario oracle: run_scenario over the batch on this thread.
std::vector<core::ScenarioResult> run_serial(
    const std::vector<core::Scenario>& scenarios) {
  std::vector<core::ScenarioResult> results;
  results.reserve(scenarios.size());
  for (const auto& s : scenarios) results.push_back(core::run_scenario(s));
  return results;
}

void report() {
  benchutil::header("BATCH", "BatchRunner determinism across thread counts");

  const auto scenarios = heterogeneous_workload();
  const auto serial = run_serial(scenarios);

  std::printf("  %-16s %10s %10s\n", "threads", "jobs", "identical");
  for (const unsigned threads : {1u, 2u, 4u, 8u, 0u}) {
    const core::BatchRunner runner({.threads = threads});
    const auto packed = runner.run(scenarios);
    std::printf("  %-16u %10zu %10s\n",
                runner.resolved_threads(scenarios.size()), packed.size(),
                identical(serial, packed) ? "yes" : "NO");
  }
  benchutil::footnote(
      "rows are run() (packed, kExact) against a serial run_scenario loop: "
      "lane blocks are claimed in order from one shared cursor and "
      "write their own result slots, and kExact lanes execute the exact "
      "scalar arithmetic, so every row must compare bitwise equal.");
}

void bm_batch(benchmark::State& state) {
  const auto scenarios = heterogeneous_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    auto results = runner.run(scenarios);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
  state.counters["threads"] =
      static_cast<double>(runner.resolved_threads(scenarios.size()));
}
BENCHMARK(bm_batch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The acceptance workload: 64 homogeneous kDirect sweeps, the serial
/// run_scenario baseline vs the SoA packed path.
void bm_homogeneous_serial(benchmark::State& state) {
  const auto scenarios = homogeneous_workload();
  for (auto _ : state) {
    auto results = run_serial(scenarios);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_homogeneous_serial)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void bm_homogeneous_run_packed(benchmark::State& state) {
  const auto scenarios = homogeneous_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  const auto math = state.range(1) == 0 ? mag::BatchMath::kExact
                                        : mag::BatchMath::kFast;
  for (auto _ : state) {
    auto results = runner.run(scenarios, {.packing = core::packing_for(math)});
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
  state.SetLabel(std::string(to_string(math)));
}
BENCHMARK(bm_homogeneous_run_packed)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// 64 homogeneous kAms scenarios: one material and one sweep shape, dhmax
/// jitter only. The serial frontend re-solves the H(t) ODE per scenario;
/// the packed planner solves it once (it is JA-free, so the trajectory
/// cannot depend on the material or dhmax) and replays every lane over the
/// shared trajectory as planner-trace rows.
std::vector<core::Scenario> ams_workload() {
  const auto& material = mag::material_library().front();
  const double amp = 5.0 * (material.params.a + material.params.k);
  const wave::HSweep sweep =
      wave::SweepBuilder(amp / 1500.0).cycles(amp, 2).build();
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    core::Scenario s;
    s.name = material.name + "#ams" + std::to_string(i);
    core::JaSpec spec;
    spec.params = material.params;
    spec.config.dhmax = amp / (300.0 + 10.0 * static_cast<double>(i % 8));
    s.model = spec;
    s.frontend = core::Frontend::kAms;
    s.drive = sweep;  // identical samples -> one shared trajectory solve
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// The kAms pair: the serial run_scenario baseline (solver re-run per
/// scenario) vs the packed plan/execute pipeline, exact and fast. The bar
/// is packed at one thread beating the baseline on this workload.
void bm_ams_serial(benchmark::State& state) {
  const auto scenarios = ams_workload();
  for (auto _ : state) {
    auto results = run_serial(scenarios);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_ams_serial)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void bm_packed_ams(benchmark::State& state) {
  const auto scenarios = ams_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  const auto math = state.range(1) == 0 ? mag::BatchMath::kExact
                                        : mag::BatchMath::kFast;
  for (auto _ : state) {
    auto results = runner.run(scenarios, {.packing = core::packing_for(math)});
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
  state.SetLabel(std::string(to_string(math)));
}
BENCHMARK(bm_packed_ams)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Width sweep of the acceptance workload: Packing::kFast on the 64
/// homogeneous scenarios with the FastMath dispatch pinned to each SIMD
/// width, single-threaded so the numbers isolate the vector width. Items
/// are field samples, so the JSON reports samples/sec per width; the
/// acceptance bar is the widest available width at >= 1.5x the W=2 (SSE2
/// pair) rate. Lane results are bitwise identical at every width — the
/// sweep measures pure throughput.
void bm_packed_fast_width(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const benchutil::ScopedSimdWidth pin(width);
  if (!pin.ok()) {
    state.SkipWithError("SIMD width not available on this build/CPU");
    return;
  }
  const auto scenarios = homogeneous_workload();
  std::int64_t samples = 0;
  for (const auto& s : scenarios) {
    samples +=
        static_cast<std::int64_t>(std::get<wave::HSweep>(s.drive).size());
  }
  const core::BatchRunner runner({.threads = 1});
  for (auto _ : state) {
    auto results = runner.run(scenarios, {.packing = core::Packing::kFast});
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          samples);
  state.SetLabel("W=" + std::to_string(width));
}
BENCHMARK(bm_packed_fast_width)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

FERRO_BENCH_MAIN(report)
