// The paper's CLM4 claim, reproduced end to end: the SystemC-style process
// network, the VHDL-AMS-style solver frontend and the plain C++ object run
// the same excitation and agree — the first two bit-exactly, the third
// within solver tolerance. The second half routes the same three scenarios
// through BatchRunner's packed plan/execute pipeline and checks it
// reproduces the serial frontends bit for bit, discretisation counters
// included (every frontend reports them now).
#include <cstdio>

#include "analysis/curve_compare.hpp"
#include "core/batch_runner.hpp"

int main() {
  using namespace ferro;

  const wave::HSweep sweep = wave::SweepBuilder(10.0).cycles(10e3, 2).build();

  // One scenario per frontend: the same material, discretisation and sweep.
  std::vector<core::Scenario> scenarios;
  for (const auto frontend :
       {core::Frontend::kDirect, core::Frontend::kSystemC,
        core::Frontend::kAms}) {
    core::Scenario s;
    s.name = std::string(core::to_string(frontend));
    s.model = core::JaSpec{mag::paper_parameters(), {/*dhmax=*/25.0}};
    s.drive = sweep;
    s.frontend = frontend;
    scenarios.push_back(std::move(s));
  }

  std::printf("running three frontends over a %zu-sample major-loop sweep\n",
              sweep.h.size());

  std::vector<core::ScenarioResult> serial;
  for (const core::Scenario& s : scenarios) {
    serial.push_back(core::run_scenario(s));
    if (!serial.back().ok()) {
      std::fprintf(stderr, "%s frontend failed: %s\n", s.name.c_str(),
                   serial.back().error.message().c_str());
      return 1;
    }
  }
  const mag::BhCurve& direct = serial[0].curve;
  const mag::BhCurve& systemc = serial[1].curve;
  const mag::BhCurve& ams = serial[2].curve;

  direct.write_csv("frontend_direct.csv");
  systemc.write_csv("frontend_systemc.csv");
  ams.write_csv("frontend_ams.csv");

  const auto d_sc = analysis::compare_pointwise(direct, systemc);
  const auto d_ams = analysis::compare_by_arc(direct, ams);

  std::printf("  direct vs systemc : rms dB = %.3e T, max dB = %.3e T%s\n",
              d_sc.rms_b, d_sc.max_b,
              d_sc.max_b == 0.0 ? "  (bit-exact)" : "");
  std::printf("  direct vs ams     : rms dB = %.3e T, max dB = %.3e T\n",
              d_ams.rms_b, d_ams.max_b);
  std::printf("  (paper: \"both implementations produce virtually identical "
              "results\")\n");

  // The same scenarios through the packed pipeline, planned and executed as
  // SoA lanes (the kAms lane replays the solver-placed trajectory as
  // planner-trace rows).
  const auto packed = core::BatchRunner({.threads = 0}).run(scenarios);

  std::printf("\npacked plan/execute pipeline vs the serial frontends:\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const mag::TimelessStats& stats = serial[i].stats;
    const auto d = analysis::compare_pointwise(serial[i].curve,
                                               packed[i].curve);
    const bool stats_match =
        stats.samples == packed[i].stats.samples &&
        stats.field_events == packed[i].stats.field_events &&
        stats.integration_steps == packed[i].stats.integration_steps &&
        stats.slope_clamps == packed[i].stats.slope_clamps &&
        stats.direction_clamps == packed[i].stats.direction_clamps;
    std::printf(
        "  %-8s: max dB vs serial = %.3e T%s | samples %llu, events %llu, "
        "steps %llu, clamps %llu (%s)\n",
        packed[i].name.c_str(), d.max_b,
        d.max_b == 0.0 ? "  (bit-exact)" : "",
        static_cast<unsigned long long>(packed[i].stats.samples),
        static_cast<unsigned long long>(packed[i].stats.field_events),
        static_cast<unsigned long long>(packed[i].stats.integration_steps),
        static_cast<unsigned long long>(packed[i].stats.slope_clamps),
        stats_match ? "stats bit-exact" : "STATS MISMATCH");
  }
  return 0;
}
