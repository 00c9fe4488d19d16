// SUB1 — substrate performance: the event kernel that hosts the SystemC-
// style model (throughput of delta cycles, signal updates and process
// activations; plus the cost profile of the JA module's process network),
// and the other execution substrate — the SoA batch kernel's FastMath lane
// swept across the runtime-dispatched SIMD widths.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/systemc_ja.hpp"
#include "hdl/kernel.hpp"
#include "hdl/signal.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace {

using namespace ferro;

void report() {
  benchutil::header("SUB1", "event-kernel throughput (SystemC-kernel substitute)");

  // A chain of N processes, each sensitive to the previous signal: one
  // external write cascades through N delta cycles.
  constexpr int kChain = 64;
  hdl::Kernel kernel;
  std::vector<std::unique_ptr<hdl::Signal<int>>> signals;
  signals.reserve(kChain + 1);
  for (int i = 0; i <= kChain; ++i) {
    signals.push_back(std::make_unique<hdl::Signal<int>>(
        kernel, "s" + std::to_string(i), 0));
  }
  for (int i = 0; i < kChain; ++i) {
    auto* in = signals[static_cast<std::size_t>(i)].get();
    auto* out = signals[static_cast<std::size_t>(i) + 1].get();
    const auto pid = kernel.register_process(
        "p" + std::to_string(i), [in, out] { out->write(in->read() + 1); });
    kernel.make_sensitive(pid, *in);
  }
  const auto kick = kernel.register_process("kick", [&] {
    signals[0]->write(signals[0]->read() + 1);
  });
  for (int rep = 0; rep < 1000; ++rep) {
    kernel.trigger(kick);
    kernel.settle();
  }
  const auto& st = kernel.stats();
  std::printf("  chain of %d processes, 1000 kicks:\n", kChain);
  std::printf("    delta cycles        : %llu\n",
              static_cast<unsigned long long>(st.delta_cycles));
  std::printf("    process activations : %llu\n",
              static_cast<unsigned long long>(st.process_activations));
  std::printf("    signal updates      : %llu\n",
              static_cast<unsigned long long>(st.signal_updates));

  // The paper model's own activity profile on a major loop.
  const wave::HSweep sweep = wave::SweepBuilder(10.0).cycles(10e3, 1).build();
  const auto result =
      core::run_systemc_sweep(mag::paper_parameters(), 25.0, sweep);
  std::printf("  JA module on a %zu-sample major loop:\n", sweep.h.size());
  std::printf("    delta cycles        : %llu (%.2f per sample)\n",
              static_cast<unsigned long long>(result.kernel_stats.delta_cycles),
              static_cast<double>(result.kernel_stats.delta_cycles) /
                  static_cast<double>(sweep.h.size()));
  std::printf("    process activations : %llu (%.2f per sample)\n",
              static_cast<unsigned long long>(
                  result.kernel_stats.process_activations),
              static_cast<double>(result.kernel_stats.process_activations) /
                  static_cast<double>(sweep.h.size()));
}

void bm_signal_write_read(benchmark::State& state) {
  hdl::Kernel kernel;
  hdl::Signal<double> sig(kernel, "s", 0.0);
  double v = 0.0;
  for (auto _ : state) {
    sig.write(v += 1.0);
    kernel.settle();
    benchmark::DoNotOptimize(sig.read());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_signal_write_read);

void bm_delta_cascade(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  hdl::Kernel kernel;
  std::vector<std::unique_ptr<hdl::Signal<int>>> signals;
  for (int i = 0; i <= chain; ++i) {
    signals.push_back(std::make_unique<hdl::Signal<int>>(
        kernel, "s" + std::to_string(i), 0));
  }
  for (int i = 0; i < chain; ++i) {
    auto* in = signals[static_cast<std::size_t>(i)].get();
    auto* out = signals[static_cast<std::size_t>(i) + 1].get();
    const auto pid = kernel.register_process(
        "p" + std::to_string(i), [in, out] { out->write(in->read() + 1); });
    kernel.make_sensitive(pid, *in);
  }
  int v = 0;
  for (auto _ : state) {
    signals[0]->write(++v);
    kernel.settle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * chain);
}
BENCHMARK(bm_delta_cascade)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void bm_ja_module_sample(benchmark::State& state) {
  hdl::Kernel kernel;
  core::JaCoreModule module(kernel, "ja", mag::paper_parameters(), 25.0);
  double h = 0.0;
  double dir = 30.0;
  for (auto _ : state) {
    h += dir;
    if (h > 10e3 || h < -10e3) dir = -dir;
    module.H.write(h);
    kernel.settle();
    benchmark::DoNotOptimize(module.Bsig.read());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_ja_module_sample);

/// Raw SoA-kernel width sweep: 64 FastMath lanes of the paper material
/// driven through a saturating major loop with the dispatch pinned to each
/// SIMD width. Items are lane-samples, so the JSON tracks the kernel's
/// samples/sec per width next to the event-kernel numbers; lane results are
/// bitwise identical at every width (property-tested), so this is pure
/// throughput.
void bm_soa_fast_width(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const benchutil::ScopedSimdWidth pin(width);
  if (!pin.ok()) {
    state.SkipWithError("SIMD width not available on this build/CPU");
    return;
  }

  constexpr std::size_t kLanes = 64;
  const mag::JaParameters params = mag::paper_parameters();
  mag::TimelessConfig config;
  config.dhmax = 25.0;
  const wave::HSweep sweep = wave::SweepBuilder(10.0).cycles(10e3, 2).build();
  mag::TimelessJaBatch batch(mag::BatchMath::kFast);
  std::vector<const wave::HSweep*> sweeps(kLanes, &sweep);
  for (std::size_t i = 0; i < kLanes; ++i) batch.add_lane(params, config);

  std::vector<mag::BhCurve> curves;
  for (auto _ : state) {
    batch.reset();
    batch.run(sweeps, curves);
    benchmark::DoNotOptimize(curves);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes * sweep.size()));
  state.SetLabel("W=" + std::to_string(width));
}
BENCHMARK(bm_soa_fast_width)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

FERRO_BENCH_MAIN(report)
