// STREAM — collect-then-return vs the streaming result pipeline.
//
// The report section measures what streaming is actually for: peak memory.
// A collect run must hold every ScenarioResult (curve included) in the
// results vector at once; the streaming run holds at most queue_capacity
// results in flight, whatever the batch size. The report runs the streaming
// batch FIRST, records peak RSS, then the collect batch: because ru_maxrss
// is monotonic within a process, any increase after the collect phase is
// memory the streaming phase never needed.
//
// A first table streams time-driven batches of 4096 and 16384 scenarios,
// each in a child forked before anything else ran, so its peak RSS is that
// run's alone: each lane block samples its time drives just before its
// kernel reads them, so the peak is the lane blocks and queue in flight,
// the same at either size.
//
// The timing section compares collected run() against the sink overload with a
// do-nothing sink (pure pipeline overhead: queue hand-off + consumer
// thread), a JSONL file sink (a consumer slow enough to fill the queue, so
// the bound meets the lane blocks' bursts), an OrderedSink (re-sequencing
// cost), and a tiny queue (backpressure pressure-test). Both sections also
// count minor page faults (getrusage ru_minflt) per scenario: the streaming
// path reuses the curve storage of results the sink drops, so it should
// fault close to nothing once warm, where fresh curves fault in every page.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "core/result_sink.hpp"
#include "core/stream_sinks.hpp"
#include "mag/energy_based.hpp"
#include "mag/ja_params.hpp"
#include "util/rng.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace {

using namespace ferro;

/// Sinks results without retaining them — the streaming-side memory floor.
class NullSink : public core::ResultSink {
 public:
  void on_result(std::size_t, core::ScenarioResult&& result) override {
    bytes_seen_ += result.curve.size() * sizeof(mag::BhPoint);
  }
  [[nodiscard]] std::size_t bytes_seen() const { return bytes_seen_; }

 private:
  std::size_t bytes_seen_ = 0;
};

std::vector<core::Scenario> workload(std::size_t count,
                                     std::size_t samples_per_leg) {
  const auto& library = mag::material_library();
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = 5.0 * (material.params.a + material.params.k);
    core::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    core::JaSpec spec;
    spec.params = material.params;
    spec.config.dhmax = amp / (300.0 + 10.0 * static_cast<double>(i % 8));
    s.model = spec;
    s.drive = wave::SweepBuilder(amp / static_cast<double>(samples_per_leg))
                  .cycles(amp, 2)
                  .build();
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// `count` time drives of 4000 samples over two triangular cycles: kDirect
/// and kSystemC JA lanes walking the material library, every eighth a
/// quasi-static energy lane. Scenarios of one material share its waveform.
std::vector<core::Scenario> time_workload(std::size_t count) {
  const auto& library = mag::material_library();
  std::vector<std::shared_ptr<const wave::Waveform>> waveforms;
  for (const auto& material : library) {
    waveforms.push_back(std::make_shared<wave::Triangular>(
        5.0 * (material.params.a + material.params.k), 0.02));
  }
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = 5.0 * (material.params.a + material.params.k);
    core::Scenario s;
    s.name = material.name + "#t" + std::to_string(i);
    if (i % 8 == 7) {
      s.model = core::EnergySpec{mag::energy_reference_parameters()};
    } else {
      core::JaSpec spec;
      spec.params = material.params;
      spec.config.dhmax = amp / (300.0 + 10.0 * static_cast<double>(i % 8));
      s.model = spec;
      if (i % 2 == 1) s.frontend = core::Frontend::kSystemC;
    }
    s.drive = core::TimeDrive{waveforms[i % library.size()], 0.0, 0.04, 4000};
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// 1024 kDirect sweeps of mixed length, the JA mix of the repository
/// benchmark's material sweep: half single major loops (3 751 samples at
/// amp/750), half biased minor loops (~1 600 to ~2 900 samples), each with
/// its own seeded amplitude (±20 % around 5 (a + k)) and dhmax (amp/400 to
/// amp/250), walking the six library materials. No two lanes share a
/// drive, so the lane order decides how full each lane block's rows are.
std::vector<core::Scenario> mixed_length_workload() {
  const auto& library = mag::material_library();
  util::SplitMix64 rng(2718);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.next_unit();
  };
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    const auto& material = library[i % library.size()];
    const double amp =
        5.0 * (material.params.a + material.params.k) * uniform(0.8, 1.2);
    core::Scenario s;
    s.name = material.name + "#m" + std::to_string(i);
    core::JaSpec spec;
    spec.params = material.params;
    spec.config.dhmax = amp / uniform(250.0, 400.0);
    s.model = spec;
    wave::SweepBuilder sweep(amp / 750.0);
    if (i % 2 == 0) {
      sweep.cycles(amp, 1);
    } else {
      const double bias = amp * uniform(0.2, 0.6);
      const double hw = amp * uniform(0.1, 0.3);
      sweep.to(amp).to(bias + hw).minor_loop(bias, hw, 2);
    }
    s.drive = sweep.build();
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// The timing section's batch: 1024 sweeps of 3000 samples, the shape of a
/// material sweep. A streaming run recycles at most one lane block per
/// worker plus the queue's worth of curves, so with a batch this size most
/// lanes record into reused storage, as in a long sweep.
std::vector<core::Scenario> timed_workload() { return workload(1024, 375); }

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// The sweep table: one process, phases in order of growing peak RSS.
void sweep_memory_table() {
  // Big enough that the collected results dominate RSS: 256 scenarios x
  // 2 cycles x 2000 samples/leg x 24 B/point ~ 49 MiB of curves.
  const auto scenarios = workload(256, 2000);
  const core::BatchRunner runner;

  const double n = static_cast<double>(scenarios.size());
  const long rss_before = peak_rss_kb();
  long faults = minor_faults();
  NullSink sink;
  const auto summary = runner.run(scenarios, sink);
  const long rss_stream = peak_rss_kb();
  const double faults_stream = static_cast<double>(minor_faults() - faults) / n;
  faults = minor_faults();
  NullSink fast_sink;
  (void)runner.run(scenarios, fast_sink, {.packing = core::Packing::kFast});
  const long rss_fast = peak_rss_kb();
  const double faults_fast = static_cast<double>(minor_faults() - faults) / n;
  faults = minor_faults();
  const auto collected = runner.run(scenarios);
  const long rss_collect = peak_rss_kb();
  const double faults_collect =
      static_cast<double>(minor_faults() - faults) / n;

  std::size_t collected_bytes = 0;
  for (const auto& r : collected) {
    collected_bytes += r.curve.size() * sizeof(mag::BhPoint);
  }

  std::printf("  %-34s %12s %16s\n", "phase", "peak RSS", "faults/scenario");
  std::printf("  %-34s %9ld KiB\n", "before batches", rss_before);
  std::printf("  %-34s %9ld KiB %16.1f\n", "after streaming (NullSink)",
              rss_stream, faults_stream);
  std::printf("  %-34s %9ld KiB %16.1f\n", "after kFast streaming",
              rss_fast, faults_fast);
  std::printf("  %-34s %9ld KiB %16.1f\n", "after collect (run())",
              rss_collect, faults_collect);
  std::printf("  streamed %zu results ok=%d; curve payload %.1f MiB "
              "(streamed) vs %.1f MiB held live by collect\n",
              summary.delivered, summary.ok(),
              static_cast<double>(sink.bytes_seen()) / (1024.0 * 1024.0),
              static_cast<double>(collected_bytes) / (1024.0 * 1024.0));
  benchutil::footnote(
      "ru_maxrss is monotonic: growth between the streaming and collect "
      "rows is memory only collect-then-return needed. Streaming keeps at "
      "most queue_capacity results in flight. faults/scenario is the "
      "ru_minflt delta of each phase over its scenarios; the first "
      "streaming run of a process still maps its recycled set once, so "
      "bm_stream_null_sink's steady-state counter is the figure to track.");
}

/// Streams time_workload(count) into a NullSink in a forked child and
/// returns its scenarios/s and peak RSS (KiB): ru_maxrss only grows within
/// a process, so each row needs a process of its own. Call with no other
/// thread running and nothing large allocated.
std::pair<double, long> time_drive_row(std::size_t count) {
  int fds[2];
  if (::pipe(fds) != 0) return {0.0, 0};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const auto scenarios = time_workload(count);
    NullSink sink;
    const auto t0 = std::chrono::steady_clock::now();
    (void)core::BatchRunner().run(scenarios, sink);
    const double rate =
        static_cast<double>(count) /
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const bool sent = ::write(fds[1], &rate, sizeof rate) == sizeof rate;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double rate = 0.0;
  if (pid < 0 || ::read(fds[0], &rate, sizeof rate) != sizeof rate) rate = 0.0;
  ::close(fds[0]);
  rusage usage{};
  int status = 0;
  if (pid > 0) ::wait4(pid, &status, 0, &usage);
  return {rate, usage.ru_maxrss};
}

void time_drive_table() {
  std::printf("  %-34s %12s %16s\n", "time-driven batch (streamed)",
              "peak RSS", "scenarios/s");
  for (const std::size_t count : {std::size_t{4096}, std::size_t{16384}}) {
    const auto [rate, rss] = time_drive_row(count);
    std::printf("  %-34s %9ld KiB %16.0f\n",
                (std::to_string(count) + " x 4000 samples").c_str(), rss,
                rate);
  }
  benchutil::footnote(
      "one forked process per row, hardware threads, kExact, NullSink. "
      "Lane blocks sample their time drives just before their kernels read "
      "them, so the peak is the blocks and queue in flight, not the batch.");
}

void report() {
  benchutil::header("STREAM", "streaming pipeline vs collect-then-return");
  // The forks first: a child starts from its parent's resident set.
  time_drive_table();
  std::printf("\n");
  sweep_memory_table();
}

void bm_collect(benchmark::State& state) {
  const auto scenarios = timed_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    auto results = runner.run(scenarios);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_collect)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Args: threads (0 = hardware); kFast. minflt_per_item is the process's
/// minor page faults over the timed loop per streamed scenario — the
/// curve-storage churn the streaming path's recycling removes.
void bm_stream_null_sink(benchmark::State& state) {
  const auto scenarios = timed_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  const core::RunOptions options{.packing = core::Packing::kFast};
  const long faults = minor_faults();
  for (auto _ : state) {
    NullSink sink;
    auto summary = runner.run(scenarios, sink, options);
    benchmark::DoNotOptimize(summary);
  }
  const double items = static_cast<double>(state.iterations()) *
                       static_cast<double>(scenarios.size());
  state.counters["minflt_per_item"] =
      benchmark::Counter(static_cast<double>(minor_faults() - faults) / items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(bm_stream_null_sink)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Args: threads (0 = hardware). bm_stream_null_sink's pipeline over
/// mixed_length_workload(), whose lanes differ in length and dhmax alike:
/// the row to read for how the packed lane order fills vector groups.
void bm_stream_mixed_lengths(benchmark::State& state) {
  const auto scenarios = mixed_length_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  const core::RunOptions options{.packing = core::Packing::kFast};
  for (auto _ : state) {
    NullSink sink;
    auto summary = runner.run(scenarios, sink, options);
    benchmark::DoNotOptimize(summary);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_stream_mixed_lengths)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The timing batch, packed kFast at hardware threads, into a
/// JsonlMetricsSink writing a fresh temporary file each iteration (the old
/// one is unlinked first: truncating it in place makes ext4 write the old
/// contents back on close). Unlike the null sink this sink takes real time
/// per result, so the queue fills: queue_high_water is the most results
/// any iteration had waiting, against the resolved bound queue_capacity.
void bm_stream_jsonl_sink(benchmark::State& state) {
  const auto scenarios = timed_workload();
  const core::BatchRunner runner({.threads = 0});
  const core::RunOptions options{.packing = core::Packing::kFast};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ferro_bench_stream_" + std::to_string(::getpid()) + ".jsonl");
  std::size_t high_water = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    state.ResumeTiming();
    core::JsonlMetricsSink sink(path.string());
    const auto summary = runner.run(scenarios, sink, options);
    high_water = std::max(high_water, summary.queue_high_water);
    benchmark::DoNotOptimize(summary);
  }
  std::filesystem::remove(path);
  state.counters["queue_high_water"] =
      benchmark::Counter(static_cast<double>(high_water));
  state.counters["queue_capacity"] = benchmark::Counter(static_cast<double>(
      runner.queue_capacity(options.stream, scenarios.size())));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_stream_jsonl_sink)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void bm_stream_ordered(benchmark::State& state) {
  const auto scenarios = timed_workload();
  const core::BatchRunner runner(
      {.threads = static_cast<unsigned>(state.range(0))});
  for (auto _ : state) {
    NullSink inner;
    core::OrderedSink ordered(inner);
    auto summary = runner.run(scenarios, ordered);
    benchmark::DoNotOptimize(summary);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_stream_ordered)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Cancels the shared token on its first delivery and timestamps the
/// moment, so the harness can measure cancel() -> return drain latency.
class CancelOnFirstSink : public core::ResultSink {
 public:
  explicit CancelOnFirstSink(core::CancelToken token)
      : token_(std::move(token)) {}
  void on_result(std::size_t, core::ScenarioResult&&) override {
    if (!fired_) {
      fired_ = true;
      cancelled_at_ = std::chrono::steady_clock::now();
      token_.cancel();
    }
  }
  [[nodiscard]] std::chrono::steady_clock::time_point cancelled_at() const {
    return cancelled_at_;
  }

 private:
  core::CancelToken token_;
  bool fired_ = false;
  std::chrono::steady_clock::time_point cancelled_at_{};
};

void bm_stream_cancellation_latency(benchmark::State& state) {
  // Robustness telemetry: how long a cancelled batch takes to DRAIN — from
  // the token firing (first delivery) to the streaming run returning with every
  // index delivered. The drain_ms counter is the cancellation latency; the
  // iteration time itself is dominated by the one computed chunk per worker
  // that cooperative cancellation lets finish.
  const auto scenarios = workload(256, 1500);
  const core::BatchRunner runner({.threads = 0});
  double drain_s = 0.0;
  std::size_t cancelled_jobs = 0;
  for (auto _ : state) {
    core::RunLimits limits;
    CancelOnFirstSink sink(limits.cancel);
    auto summary = runner.run(scenarios, sink, {.limits = limits});
    drain_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - sink.cancelled_at())
                   .count();
    cancelled_jobs += summary.cancelled_jobs;
    benchmark::DoNotOptimize(summary);
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["drain_ms"] =
      benchmark::Counter(1e3 * drain_s / iters);
  state.counters["cancelled_jobs"] =
      benchmark::Counter(static_cast<double>(cancelled_jobs) / iters);
}
BENCHMARK(bm_stream_cancellation_latency)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void bm_stream_tiny_queue(benchmark::State& state) {
  // Capacity 1: every hand-off risks a stall — the worst case for the
  // blocking queue. The gap to bm_stream_null_sink is the backpressure tax.
  const auto scenarios = timed_workload();
  const core::BatchRunner runner({.threads = 0});
  for (auto _ : state) {
    NullSink sink;
    auto summary =
        runner.run(scenarios, sink, {.stream = {.queue_capacity = 1}});
    benchmark::DoNotOptimize(summary);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(bm_stream_tiny_queue)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

FERRO_BENCH_MAIN(report)
