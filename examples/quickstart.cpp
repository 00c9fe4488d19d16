// Quickstart: simulate the paper's material through one major BH loop and
// print the headline numbers. This is the smallest complete use of the API.
#include <cstdio>

#include "core/scenario.hpp"
#include "wave/sweep.hpp"

int main() {
  using namespace ferro;

  // The DATE 2006 parameter set: k=4000 A/m, c=0.1, Msat=1.6 MA/m,
  // alpha=0.003, a=2000 A/m (atan anhysteretic).
  const mag::JaParameters params = mag::paper_parameters();

  // Timeless DC sweep: one symmetric major cycle to +/-10 kA/m, sampled
  // every 10 A/m, with the model's event threshold dhmax = 25 A/m.
  mag::TimelessConfig config;
  config.dhmax = 25.0;

  core::Scenario scenario;
  scenario.name = "quickstart";
  scenario.model = core::JaSpec{params, config};
  scenario.drive = wave::SweepBuilder(10.0).cycles(10e3, 1).build();

  // One scenario on the direct frontend; a failure comes back as an Error.
  const core::ScenarioResult result = core::run_scenario(scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "quickstart failed: %s\n",
                 result.error.message().c_str());
    return 1;
  }
  const mag::BhCurve& curve = result.curve;
  curve.write_csv("quickstart_bh.csv");

  const analysis::LoopMetrics& metrics = result.metrics;
  std::printf("quickstart: timeless Jiles-Atherton major loop\n");
  std::printf("  points        : %zu\n", curve.size());
  std::printf("  peak H        : %.1f kA/m\n", metrics.h_peak / 1e3);
  std::printf("  peak B        : %.3f T\n", metrics.b_peak);
  std::printf("  remanence Br  : %.3f T\n", metrics.remanence);
  std::printf("  coercivity Hc : %.1f A/m\n", metrics.coercivity);
  std::printf("  loop area     : %.1f J/m^3 per cycle\n", metrics.area);
  std::printf("  wrote quickstart_bh.csv (h,m,b)\n");
  return 0;
}
