// CLM4 — "both implementations produce virtually identical results":
// the SystemC-style process network, the VHDL-AMS-style solver frontend and
// the direct object API run the same excitation; the table reports the
// pairwise deviations, the timing section the per-frontend cost.
#include <cstdio>

#include "analysis/curve_compare.hpp"
#include "bench_common.hpp"
#include "core/scenario.hpp"

namespace {

using namespace ferro;

constexpr double kDhmax = 25.0;

core::Scenario excitation(core::Frontend frontend) {
  core::Scenario s;
  s.name = std::string(core::to_string(frontend));
  s.model = core::JaSpec{mag::paper_parameters(), {kDhmax}};
  s.drive = wave::SweepBuilder(10.0).cycles(10e3, 2).build();
  s.frontend = frontend;
  return s;
}

void report() {
  benchutil::header("CLM4", "frontend equivalence (SystemC / VHDL-AMS / direct)");

  const core::ScenarioResult results[] = {
      core::run_scenario(excitation(core::Frontend::kDirect)),
      core::run_scenario(excitation(core::Frontend::kSystemC)),
      core::run_scenario(excitation(core::Frontend::kAms))};
  for (const core::ScenarioResult& r : results) {
    if (!r.ok()) {
      std::printf("  %s failed: %s\n", r.name.c_str(),
                  r.error.message().c_str());
      return;
    }
  }
  const mag::BhCurve& direct = results[0].curve;
  const mag::BhCurve& systemc = results[1].curve;
  const mag::BhCurve& ams = results[2].curve;

  const auto d_sc = analysis::compare_pointwise(direct, systemc);
  const auto d_ams = analysis::compare_by_arc(direct, ams);
  const auto d_sc_ams = analysis::compare_by_arc(systemc, ams);

  std::printf("  %-28s %14s %14s\n", "pair", "rms dB [T]", "max dB [T]");
  std::printf("  %-28s %14.3e %14.3e\n", "direct vs systemc (pointwise)",
              d_sc.rms_b, d_sc.max_b);
  std::printf("  %-28s %14.3e %14.3e\n", "direct vs ams (arc)", d_ams.rms_b,
              d_ams.max_b);
  std::printf("  %-28s %14.3e %14.3e\n", "systemc vs ams (arc)",
              d_sc_ams.rms_b, d_sc_ams.max_b);
  benchutil::footnote(
      "direct vs systemc is bit-exact (same arithmetic sequence); the ams "
      "frontend differs only through the solver's step placement.");
}

void bm_frontend_direct(benchmark::State& state) {
  const core::Scenario s = excitation(core::Frontend::kDirect);
  for (auto _ : state) {
    auto result = core::run_scenario(s);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(std::get<wave::HSweep>(s.drive).h.size()));
}
BENCHMARK(bm_frontend_direct)->Unit(benchmark::kMillisecond);

void bm_frontend_systemc(benchmark::State& state) {
  const core::Scenario s = excitation(core::Frontend::kSystemC);
  for (auto _ : state) {
    auto result = core::run_scenario(s);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(std::get<wave::HSweep>(s.drive).h.size()));
}
BENCHMARK(bm_frontend_systemc)->Unit(benchmark::kMillisecond);

void bm_frontend_ams(benchmark::State& state) {
  const core::Scenario s = excitation(core::Frontend::kAms);
  for (auto _ : state) {
    auto result = core::run_scenario(s);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_frontend_ams)->Unit(benchmark::kMillisecond);

}  // namespace

FERRO_BENCH_MAIN(report)
