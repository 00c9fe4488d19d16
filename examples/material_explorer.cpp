// Sweeps every material in the built-in library through a saturating major
// loop and tabulates the figure-of-merit set an engineer reads off a BH
// curve: saturation flux density, remanence, coercivity, loss per cycle.
//
// The materials are independent jobs, so they go through BatchRunner:
// every scenario here is a plain kDirect sweep, so run() routes the whole
// library through the SoA batch kernel (TimelessJaBatch) in lane blocks —
// results in library order, bitwise run_scenario's in the default exact
// mode.
//
// Flags:
//   --fast    opt into the FastMath lane (bounded error, ~2x throughput)
//   --stream  stream results through the sink pipeline instead of
//             collect-then-print: table rows appear as materials finish (in
//             library order via OrderedSink) and every BH curve is written
//             incrementally to material_curves.csv
#include <cstdio>
#include <cstring>

#include "core/batch_runner.hpp"
#include "core/result_sink.hpp"
#include "core/stream_sinks.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "wave/sweep.hpp"

namespace {

void print_header() {
  std::printf("%-20s %10s %10s %12s %14s %14s\n", "material", "Bpeak[T]",
              "Br [T]", "Hc [A/m]", "loss[J/m^3]", "clamps");
}

void print_row(const ferro::core::ScenarioResult& r) {
  if (!r.ok()) {
    std::printf("%-20s FAILED: %s\n", r.name.c_str(), r.error.message().c_str());
    return;
  }
  std::printf("%-20s %10.3f %10.3f %12.1f %14.1f %14llu\n", r.name.c_str(),
              r.metrics.b_peak, r.metrics.remanence, r.metrics.coercivity,
              r.metrics.area,
              static_cast<unsigned long long>(r.stats.slope_clamps));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ferro;

  bool fast = false;
  bool stream = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
    if (std::strcmp(argv[i], "--stream") == 0) stream = true;
  }
  const auto math = fast ? mag::BatchMath::kFast : mag::BatchMath::kExact;

  std::vector<core::Scenario> scenarios;
  for (const auto& material : mag::material_library()) {
    const double amp = 5.0 * (material.params.a + material.params.k);
    core::Scenario s;
    s.name = material.name;
    core::JaSpec spec;
    spec.params = material.params;
    spec.config.dhmax = amp / 400.0;
    s.model = spec;
    wave::HSweep sweep = wave::SweepBuilder(amp / 2000.0).cycles(amp, 2).build();
    // Metrics over the converged second cycle.
    s.metrics_window = core::MetricsWindow{sweep.size() / 2, sweep.size() - 1};
    s.drive = std::move(sweep);
    scenarios.push_back(std::move(s));
  }

  const core::BatchRunner runner;
  print_header();

  if (stream) {
    // Streaming consumption: the CSV rows and the table appear while other
    // materials are still computing. OrderedSink re-sequences arrivals so
    // both consumers see library order.
    core::CsvCurveSink curves("material_curves.csv", /*point_stride=*/8);
    core::CallbackSink table({
        .on_result = [](std::size_t, const core::ScenarioResult& r) {
          print_row(r);
        },
    });
    core::TeeSink tee({&curves, &table});
    core::OrderedSink ordered(tee);
    const auto summary = runner.run(
        scenarios, ordered, {.packing = core::packing_for(math)});
    std::printf("\nstreamed %zu results (%zu failed jobs) — "
                "material_curves.csv holds %zu curve rows, flushed per "
                "material%s.\n",
                summary.delivered, summary.failed_jobs, curves.rows_written(),
                summary.ok() ? "" : " (sink error!)");
  } else {
    const auto results =
        runner.run(scenarios, {.packing = core::packing_for(math)});
    for (const auto& r : results) print_row(r);
  }

  std::printf("\nmaterials span soft ferrites to hard steels; the same "
              "timeless discretisation handles all of them unchanged "
              "(%u threads, SoA batch kernel, %s math%s).\n",
              runner.resolved_threads(scenarios.size()),
              fast ? "fast" : "exact", stream ? ", streaming" : "");
  return 0;
}
