// ABL1 + ABL2b — ablations of the timeless scheme's discretisation choices:
//
//   ABL1:  the event threshold dhmax trades accuracy against work (events
//          taken); the paper fixes it implicitly via its `dhmax` constant.
//   ABL2b: sub-stepping of coarse events at a fixed dhmax — how much of the
//          error integration inside an event can recover.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/dc_sweep.hpp"
#include "mag/timeless_ja.hpp"
#include "util/stats.hpp"
#include "wave/sweep.hpp"

namespace {

using namespace ferro;

wave::HSweep excitation(double step = 1.0) {
  return wave::SweepBuilder(step).cycles(10e3, 2).build();
}

/// Near-continuous reference trajectory: Forward Euler with an event on
/// every 0.1 A/m sample.
mag::BhCurve reference() {
  mag::TimelessConfig cfg;
  cfg.dhmax = 0.01;
  return core::run_dc_sweep(mag::paper_parameters(), cfg, excitation(0.1)).curve;
}

double rms_vs_reference(const mag::BhCurve& curve, const mag::BhCurve& ref) {
  // Both trajectories traverse the same H path; sample the coarse one and
  // look up the reference at the matching sample index ratio.
  const auto& a = curve.points();
  const auto& r = ref.points();
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t j = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(r.size() - 1) /
        static_cast<double>(a.size() - 1));
    const double d = a[i].b - r[j].b;
    acc += d * d;
    ++n;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

void report() {
  benchutil::header("ABL1/ABL2b", "event threshold and sub-stepping");

  const mag::BhCurve ref = reference();

  std::printf("  ABL1 — dhmax sweep (Forward Euler, sample step 1 A/m)\n");
  std::printf("  %10s %12s %12s %14s\n", "dhmax", "events", "steps",
              "rmsB vs ref");
  const wave::HSweep sweep = excitation();
  for (const double dhmax : {5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 500.0}) {
    mag::TimelessConfig cfg;
    cfg.dhmax = dhmax;
    const auto result = core::run_dc_sweep(mag::paper_parameters(), cfg, sweep);
    std::printf("  %10.0f %12llu %12llu %14.5f\n", dhmax,
                static_cast<unsigned long long>(result.stats.field_events),
                static_cast<unsigned long long>(result.stats.integration_steps),
                rms_vs_reference(result.curve, ref));
  }

  std::printf("\n  ABL2b — sub-stepping of coarse events (dhmax = 200 A/m)\n");
  std::printf("  %16s %14s\n", "substep_max", "rmsB vs ref");
  for (const double sub : {0.0, 100.0, 50.0, 25.0, 10.0}) {
    mag::TimelessConfig cfg;
    cfg.dhmax = 200.0;
    cfg.substep_max = sub;
    const auto result = core::run_dc_sweep(mag::paper_parameters(), cfg, sweep);
    std::printf("  %16.0f %14.5f\n", sub,
                rms_vs_reference(result.curve, ref));
  }
  benchutil::footnote(
      "ABL1: error scales ~linearly with dhmax — the threshold is the "
      "discretisation control. ABL2b: at fixed dhmax sub-stepping does not "
      "help, because the error is dominated by the event lag "
      "(magnetisation frozen between events), not by integration inside an "
      "event — which validates the paper's plain Forward Euler.");
}

void bm_dhmax(benchmark::State& state) {
  const double dhmax = static_cast<double>(state.range(0));
  const wave::HSweep sweep = excitation();
  mag::TimelessConfig cfg;
  cfg.dhmax = dhmax;
  for (auto _ : state) {
    auto result = core::run_dc_sweep(mag::paper_parameters(), cfg, sweep);
    benchmark::DoNotOptimize(result.curve);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep.h.size()));
}
BENCHMARK(bm_dhmax)->Arg(5)->Arg(25)->Arg(100)->Arg(500);

}  // namespace

FERRO_BENCH_MAIN(report)
