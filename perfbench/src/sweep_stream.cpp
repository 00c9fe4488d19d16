// sweep_stream — one large streaming material sweep through
// BatchRunner::run(scenarios, sink, {.packing = kFast}) into a
// JsonlMetricsSink.
//
// Inputs: kScenarios scenarios over the six library materials. Each lane
// kind (JA kDirect, JA kSystemC, energy, kAms) walks the library round-robin
// on its own counter, so every material runs on every path and every seed
// carries the same material mix. Most are JA sweeps — major
// loops and biased minor loops with seeded amplitude and dhmax jitter, a
// quarter of them on the kSystemC frontend with the clamps its process
// network hard-codes — then a fixed 1/32 are energy-based lanes and a
// fixed 1/16 are kAms drives sharing kAmsExcitations distinct excitations.
//
// Traced mode replays BatchRunner's packed streaming pipeline (plan,
// trajectory solves, lane blocks, assembly, metrics, queue, sink) through
// the same public functions, with spans around each layer.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/ams_ja.hpp"
#include "core/batch_runner.hpp"
#include "core/frontend_plan.hpp"
#include "core/result_queue.hpp"
#include "core/stream_sinks.hpp"
#include "mag/energy_based_batch.hpp"
#include "mag/ja_trace.hpp"
#include "wave/sweep.hpp"

namespace perfbench {
namespace {

namespace core = ferro::core;
namespace mag = ferro::mag;
namespace wave = ferro::wave;

constexpr std::size_t kScenarios = 2048;
constexpr std::size_t kAmsExcitations = 3;
constexpr std::size_t kCheckedFastLanes = 24;

/// FastMath's tested contract (test_timeless_batch): arc-RMS deviation of B
/// from the exact model below 1e-4 of max(peak |B|, 1 T).
constexpr double kFastArcRms = 1e-4;

enum class Kind { kJa, kEnergy, kAms };

Kind kind_of(std::size_t i) {
  if (i % 16 == 0) return Kind::kAms;
  if (i % 32 == 1) return Kind::kEnergy;
  return Kind::kJa;
}

wave::HSweep ja_sweep(Rng& rng, double amp) {
  wave::SweepBuilder b(amp / 750.0);
  if (rng.uniform(0.0, 1.0) < 0.5) return b.cycles(amp, 1).build();
  const double bias = amp * rng.uniform(0.2, 0.6);
  const double hw = amp * rng.uniform(0.1, 0.3);
  return b.to(amp).to(bias + hw).minor_loop(bias, hw, 2).build();
}

std::vector<core::Scenario> make_scenarios(std::uint64_t seed) {
  Rng rng(seed);
  const auto& library = mag::material_library();
  std::vector<wave::HSweep> excitations;
  for (std::size_t e = 0; e < kAmsExcitations; ++e) {
    const double amp = rng.uniform(2e3, 4e4);
    excitations.push_back(wave::SweepBuilder(amp / 300.0).cycles(amp, 1).build());
  }
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(kScenarios);
  // Material counters of kJa kDirect, kEnergy, kAms and kJa kSystemC lanes.
  std::size_t next_material[4] = {};
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const Kind kind = kind_of(i);
    const bool systemc = kind == Kind::kJa && i % 4 == 2;
    std::size_t& slot = next_material[systemc ? 3 : static_cast<std::size_t>(kind)];
    const mag::Material& material = library[slot++ % library.size()];
    const double base = 5.0 * (material.params.a + material.params.k);
    core::Scenario s;
    s.name = material.name + "/" + std::to_string(i);
    switch (kind) {
      case Kind::kJa: {
        const double amp = base * rng.uniform(0.8, 1.2);
        core::JaSpec spec{material.params, {}};
        spec.config.dhmax = amp / rng.uniform(250.0, 400.0);
        s.model = spec;
        s.drive = ja_sweep(rng, amp);
        if (systemc) s.frontend = core::Frontend::kSystemC;
        break;
      }
      case Kind::kEnergy: {
        core::EnergySpec spec{mag::energy_reference_parameters()};
        spec.params.ms = material.params.ms;
        spec.params.a = material.params.a;
        spec.params.kind = material.params.kind;
        spec.params.kappa_max = material.params.k * rng.uniform(0.8, 1.2);
        s.model = spec;
        s.drive = ja_sweep(rng, base * rng.uniform(0.8, 1.2));
        break;
      }
      case Kind::kAms: {
        const wave::HSweep& drive = excitations[rng.below(kAmsExcitations)];
        const double amp = *std::max_element(drive.h.begin(), drive.h.end());
        core::JaSpec spec{material.params, {}};
        spec.config.dhmax = amp / rng.uniform(250.0, 400.0);
        s.model = spec;
        s.frontend = core::Frontend::kAms;
        s.drive = drive;
        break;
      }
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// The measured sink: a JsonlMetricsSink plus an order-independent digest
/// of everything delivered, the summed JA counters, and (check passes only)
/// copies of the results the output checks compare.
class BenchSink final : public core::ResultSink {
 public:
  BenchSink(const std::string& path, const std::vector<char>* capture)
      : inner_(path), capture_(capture) {
    if (capture_ != nullptr) captured.resize(capture_->size());
  }

  void on_start(std::size_t total) override { inner_.on_start(total); }
  void on_result(std::size_t index, core::ScenarioResult&& r) override {
    digest += result_digest(index, r);
    field_events += r.stats.field_events;
    slope_clamps += r.stats.slope_clamps;
    samples += r.curve.size();
    errors += r.ok() ? 0 : 1;
    ++delivered;
    if (capture_ != nullptr && (*capture_)[index]) captured[index] = r;
    inner_.on_result(index, std::move(r));
  }
  void on_complete() override { inner_.on_complete(); }

  std::uint64_t digest = 0;
  std::uint64_t field_events = 0;
  std::uint64_t slope_clamps = 0;
  std::uint64_t samples = 0;
  std::uint64_t errors = 0;
  std::uint64_t delivered = 0;
  std::vector<core::ScenarioResult> captured;

 private:
  core::JsonlMetricsSink inner_;
  const std::vector<char>* capture_;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bitwise_equal(const core::ScenarioResult& a, const core::ScenarioResult& b) {
  if (a.curve.size() != b.curve.size() || a.error.code != b.error.code) {
    return false;
  }
  for (std::size_t j = 0; j < a.curve.size(); ++j) {
    const auto& p = a.curve.points()[j];
    const auto& q = b.curve.points()[j];
    if (!same_bits(p.h, q.h) || !same_bits(p.m, q.m) || !same_bits(p.b, q.b)) {
      return false;
    }
  }
  return result_digest(0, a) == result_digest(0, b);
}

/// Arc-RMS deviation of B relative to max(peak |B|, 1 T); +inf on a length
/// mismatch.
double fast_deviation(const core::ScenarioResult& fast,
                      const core::ScenarioResult& exact) {
  if (fast.curve.size() != exact.curve.size() || exact.curve.empty()) {
    return INFINITY;
  }
  double sum_sq = 0.0, b_peak = 0.0;
  for (std::size_t j = 0; j < exact.curve.size(); ++j) {
    const double db = fast.curve.points()[j].b - exact.curve.points()[j].b;
    sum_sq += db * db;
    b_peak = std::max(b_peak, std::fabs(exact.curve.points()[j].b));
  }
  return std::sqrt(sum_sq / double(exact.curve.size())) / std::max(b_peak, 1.0);
}

/// Batch workers (the calling thread included): one core is left to the
/// streaming consumer thread, so workers plus consumer fill nproc cores.
unsigned batch_workers(const Args& args) {
  return args.threads > 1 ? args.threads - 1 : 1;
}

struct Setup {
  std::vector<core::Scenario> scenarios;
  std::unique_ptr<core::BatchRunner> runner;
};

/// Input generation, runner construction and the first pool spin-up (a
/// small streaming batch, so the lazy pool and a consumer thread start).
Setup make_setup(const Args& args) {
  Setup s;
  s.scenarios = make_scenarios(args.seed);
  s.runner = std::make_unique<core::BatchRunner>(core::BatchOptions{batch_workers(args)});
  const std::vector<core::Scenario> warm(s.scenarios.begin(),
                                         s.scenarios.begin() + 16);
  core::CollectingSink sink;
  (void)s.runner->run(warm, sink, {.packing = core::Packing::kFast});
  return s;
}

const core::RunOptions kRunOptions{.packing = core::Packing::kFast};

/// The JSONL file one pass streams into. Every pass writes a fresh file:
/// the previous one is unlinked first, because re-opening it with
/// truncation makes ext4 write the old contents back on close
/// (auto_da_alloc), which put disk latency into the measured passes.
std::string fresh_sink_file(const Args& args) {
  const auto path = std::filesystem::path(args.out_dir) / "sweep_stream.jsonl";
  std::filesystem::remove(path);
  return path.string();
}

// ------------------------------------------------------------- replay ----

/// Per-pass layer accounting the replay fills besides its spans.
struct ReplayStats {
  Accum queue_push;  // producer time inside push (backpressure stalls)
  std::size_t high_water = 0;
  std::atomic<std::uint64_t> ja_samples{0};
  std::atomic<std::uint64_t> energy_samples{0};
};

/// BatchRunner::run(scenarios, sink, {.packing = kFast}) rebuilt from the
/// public layer functions it is made of (core/batch_runner.cpp), in the
/// same order with the same blocking, plus spans. Scenarios must all be
/// valid: the workload generates no invalid ones, so the replay has no
/// per-job error path.
void replay_pass(const std::vector<core::Scenario>& scenarios,
                 core::ThreadPool& pool, core::ResultSink& sink,
                 Tracer* tracer, ReplayStats& rs) {
  PB_SPAN(tracer, "sweep.pass");
  const auto math = mag::BatchMath::kFast;
  const unsigned threads = pool.workers();

  std::unique_ptr<core::FrontendPlanSet> plans;
  {
    PB_SPAN(tracer, "core.plan");
    plans = std::make_unique<core::FrontendPlanSet>(scenarios);
  }
  std::vector<std::size_t> fallback, sweep_lanes, energy_lanes, trace_lanes;
  const auto lane_sort = [&](std::vector<std::size_t>& lanes,
                             const auto& rows_of) {
    std::stable_sort(lanes.begin(), lanes.end(), [&](std::size_t x, std::size_t y) {
      const core::JaSpec& a = scenarios[x].ja();
      const core::JaSpec& b = scenarios[y].ja();
      if (a.params.kind != b.params.kind) return a.params.kind < b.params.kind;
      if (a.config.dhmax != b.config.dhmax) return a.config.dhmax < b.config.dhmax;
      return rows_of(x) < rows_of(y);
    });
  };
  {
    PB_SPAN(tracer, "core.route");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (!core::validate(scenarios[i]).ok()) {
        throw std::logic_error("sweep_stream generated an invalid scenario");
      }
      switch (plans->plan(i).route) {
        case core::PlanRoute::kPackedSweep:
          (scenarios[i].kind() == mag::ModelKind::kEnergyBased ? energy_lanes
                                                               : sweep_lanes)
              .push_back(i);
          break;
        case core::PlanRoute::kPackedTrace: trace_lanes.push_back(i); break;
        case core::PlanRoute::kFallback: fallback.push_back(i); break;
      }
    }
    lane_sort(sweep_lanes, [&](std::size_t i) { return plans->sweep(i).size(); });
    std::stable_sort(energy_lanes.begin(), energy_lanes.end(),
                     [&](std::size_t x, std::size_t y) {
                       const auto& a = scenarios[x].energy().params;
                       const auto& b = scenarios[y].energy().params;
                       if (a.cells != b.cells) return a.cells < b.cells;
                       return plans->sweep(x).size() < plans->sweep(y).size();
                     });
  }

  const auto width =
      static_cast<std::size_t>(mag::TimelessJaBatch::active_simd_width());
  const auto make_blocks = [&](std::size_t n) {
    const std::size_t block = core::ThreadPool::default_chunk(n, threads, width);
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    for (std::size_t b = 0; b < n; b += block) {
      blocks.emplace_back(b, std::min(n, b + block));
    }
    return blocks;
  };

  core::ResultQueue queue(static_cast<std::size_t>(threads) * 2);
  std::thread consumer([&] {
    core::StreamItem item;
    while (queue.pop(item)) {
      PB_SPAN(tracer, "util.sink");
      sink.on_result(item.index, std::move(item.result));
    }
  });
  const auto emit = [&](std::size_t i, core::ScenarioResult&& r) {
    const auto t0 = Clock::now();
    queue.push(core::StreamItem{i, std::move(r)});
    rs.queue_push.add(Clock::now() - t0);
  };
  // BatchRunner's finalize_lane: the non-finite quarantine, then metrics.
  const auto finalize_lane = [&](std::size_t i, core::ScenarioResult&& r) {
    bool finite = true;
    {
      PB_SPAN(tracer, "core.assembly");
      finite = core::first_non_finite(r.curve) == r.curve.size();
    }
    if (r.ok() && !finite) {
      r = core::run_scenario(scenarios[i]);
    } else if (r.ok()) {
      PB_SPAN(tracer, "analysis.metrics");
      core::fill_metrics(r, scenarios[i].metrics_window);
    }
    emit(i, std::move(r));
  };

  sink.on_start(scenarios.size());
  pool.parallel_for(plans->trajectory_jobs(), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t u = begin; u < end; ++u) {
                        PB_SPAN(tracer, "ams.trajectory");
                        plans->solve_trajectory(u);
                      }
                    });
  lane_sort(trace_lanes, [&](std::size_t i) {
    return plans->trajectory(plans->plan(i).trajectory).result.h.size();
  });

  const auto run_sweep_block = [&](std::size_t begin, std::size_t end) {
    mag::TimelessJaBatch batch(math);
    std::vector<mag::BhCurve> curves;
    std::vector<const wave::HSweep*> sweeps;
    std::uint64_t samples = 0;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t i = sweep_lanes[p];
      batch.add_lane(scenarios[i].ja().params, scenarios[i].ja().config);
      sweeps.push_back(&plans->sweep(i));
      samples += plans->sweep(i).size();
    }
    {
      PB_SPAN(tracer, "mag.ja_kernel");
      batch.run(sweeps, curves);
    }
    rs.ja_samples += samples;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t i = sweep_lanes[p];
      core::ScenarioResult r;
      {
        PB_SPAN(tracer, "core.assembly");
        r.name = scenarios[i].name;
        r.curve = std::move(curves[p - begin]);
        r.stats = batch.stats(p - begin);
      }
      finalize_lane(i, std::move(r));
    }
  };
  const auto run_energy_block = [&](std::size_t begin, std::size_t end) {
    mag::EnergyBasedBatch batch(math);
    std::vector<mag::BhCurve> curves;
    std::vector<const wave::HSweep*> sweeps;
    std::uint64_t samples = 0;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t i = energy_lanes[p];
      batch.add_lane(scenarios[i].energy().params);
      sweeps.push_back(&plans->sweep(i));
      samples += plans->sweep(i).size();
    }
    {
      PB_SPAN(tracer, "mag.energy_kernel");
      batch.run(sweeps, curves);
    }
    rs.energy_samples += samples;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t i = energy_lanes[p];
      core::ScenarioResult r;
      {
        PB_SPAN(tracer, "core.assembly");
        r.name = scenarios[i].name;
        r.model = mag::ModelKind::kEnergyBased;
        r.curve = std::move(curves[p - begin]);
        r.energy_stats = batch.stats(p - begin);
      }
      finalize_lane(i, std::move(r));
    }
  };
  const auto run_trace_block = [&](std::size_t begin, std::size_t end) {
    mag::TimelessJaBatch batch(math);
    std::vector<mag::JaTrace> traces;
    std::vector<mag::TimelessJaBatch::TraceView> views;
    std::vector<std::vector<mag::BhPoint>> points;
    std::vector<mag::BhPoint> virgin;
    {
      PB_SPAN(tracer, "ams.trace_build");
      traces.reserve(end - begin);
      for (std::size_t p = begin; p < end; ++p) {
        const std::size_t i = trace_lanes[p];
        const core::JaSpec& s = scenarios[i].ja();
        mag::TimelessConfig lane_config = s.config;
        lane_config.substep_max = 0.0;
        const std::size_t lane = batch.add_lane(s.params, lane_config);
        const auto& trajectory =
            plans->trajectory(plans->plan(i).trajectory).result;
        traces.push_back(mag::build_ja_trace(
            trajectory.h, core::ams_effective_timeless(s.config)));
        views.push_back({traces.back().h.data(), traces.back().dh.data(),
                         traces.back().rows()});
        virgin.push_back(mag::BhPoint{0.0, batch.magnetisation(lane),
                                      batch.flux_density(lane)});
      }
    }
    {
      PB_SPAN(tracer, "mag.ja_kernel");
      batch.run_traces(views, points);
    }
    for (std::size_t l = 0; l < end - begin; ++l) {
      const std::size_t i = trace_lanes[begin + l];
      core::ScenarioResult r;
      {
        PB_SPAN(tracer, "core.assembly");
        r.name = scenarios[i].name;
        const mag::JaTrace& trace = traces[l];
        const auto& trajectory =
            plans->trajectory(plans->plan(i).trajectory).result;
        r.curve.reserve(trajectory.h.size());
        if (!trajectory.h.empty()) {
          r.curve.append(trajectory.h.front(), virgin[l].m, virgin[l].b);
          for (const std::uint32_t row : trace.record_rows) {
            r.curve.append(points[l][row]);
          }
        }
        r.stats = batch.stats(l);
        r.stats.samples = trace.planned.samples;
        r.stats.field_events = trace.planned.field_events;
        r.stats.integration_steps = trace.planned.integration_steps;
        rs.ja_samples += trace.planned.samples;
      }
      finalize_lane(i, std::move(r));
    }
  };

  const auto sweep_blocks = make_blocks(sweep_lanes.size());
  const auto energy_blocks = make_blocks(energy_lanes.size());
  const auto trace_blocks = make_blocks(trace_lanes.size());
  const std::size_t units = fallback.size() + sweep_blocks.size() +
                            energy_blocks.size() + trace_blocks.size();
  pool.parallel_for(units, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      if (u < fallback.size()) {
        const std::size_t i = fallback[u];
        PB_SPAN(tracer, "core.fallback");
        emit(i, core::run_scenario(scenarios[i]));
      } else if (u < fallback.size() + sweep_blocks.size()) {
        const auto& [b0, b1] = sweep_blocks[u - fallback.size()];
        PB_SPAN(tracer, "core.block");
        run_sweep_block(b0, b1);
      } else if (u < fallback.size() + sweep_blocks.size() + energy_blocks.size()) {
        const auto& [b0, b1] =
            energy_blocks[u - fallback.size() - sweep_blocks.size()];
        PB_SPAN(tracer, "core.block");
        run_energy_block(b0, b1);
      } else {
        const auto& [b0, b1] = trace_blocks[u - fallback.size() -
                                            sweep_blocks.size() -
                                            energy_blocks.size()];
        PB_SPAN(tracer, "core.block");
        run_trace_block(b0, b1);
      }
    }
  });
  queue.close();
  consumer.join();
  sink.on_complete();
  rs.high_water = std::max(rs.high_water, queue.high_water());
}

// -------------------------------------------------------------- checks ---

/// Output checks of one streamed batch: every result delivered without
/// error, every energy lane (exact under either packing) bitwise equal to
/// run_scenario, and a seeded sample of FastMath lanes within the tested
/// bound of run_scenario.
void check_outputs(const Args& args, const std::vector<core::Scenario>& scenarios,
                   Report& report) {
  std::vector<char> want(scenarios.size(), 0);
  std::vector<std::size_t> fast_sample;
  Rng rng(args.seed ^ 0x5eedc0deull);
  while (fast_sample.size() < kCheckedFastLanes) {
    const std::size_t i = rng.below(scenarios.size());
    if (kind_of(i) == Kind::kEnergy || want[i]) continue;
    want[i] = 1;
    fast_sample.push_back(i);
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (kind_of(i) == Kind::kEnergy) want[i] = 1;
  }
  BenchSink sink(fresh_sink_file(args), &want);
  core::BatchRunner runner(core::BatchOptions{batch_workers(args)});
  const core::StreamSummary summary = runner.run(scenarios, sink, kRunOptions);
  report.attempted += scenarios.size();
  if (summary.delivered != scenarios.size() || summary.failed_jobs != 0 ||
      !summary.ok() || sink.errors != 0) {
    report.fail("sweep_stream: " + std::to_string(summary.failed_jobs) +
                " failed jobs, " + std::to_string(summary.delivered) + "/" +
                std::to_string(scenarios.size()) + " delivered");
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (kind_of(i) != Kind::kEnergy) continue;
    if (!bitwise_equal(sink.captured[i], core::run_scenario(scenarios[i]))) {
      report.fail("sweep_stream: energy lane " + scenarios[i].name +
                  " differs from run_scenario");
    }
  }
  for (const std::size_t i : fast_sample) {
    const double dev = fast_deviation(sink.captured[i], core::run_scenario(scenarios[i]));
    if (!(dev < kFastArcRms)) {
      report.fail("sweep_stream: FastMath lane " + scenarios[i].name +
                  " deviates " + std::to_string(dev) + " from run_scenario");
    }
  }
}

std::uint64_t trajectory_solves(const std::vector<core::Scenario>& scenarios) {
  return core::FrontendPlanSet(scenarios).trajectory_jobs();
}

void run_untraced(const Args& args, Report& report) {
  std::vector<double> setups;
  Setup setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup = {};
    const double t0 = now_s();
    setup = make_setup(args);
    setups.push_back(now_s() - t0);
  }
  const auto& scenarios = setup.scenarios;
  const std::uint64_t solves = trajectory_solves(scenarios);

  std::vector<std::uint64_t> digests, events, samples;
  std::uint64_t errors = 0;
  double cpu_s = 0.0;
  const std::vector<double> walls =
      measure_passes(args.seconds, 3, cpu_s, [&] {
        BenchSink sink(fresh_sink_file(args), nullptr);
        const auto summary = setup.runner->run(scenarios, sink, kRunOptions);
        errors += summary.failed_jobs + (sink.delivered != scenarios.size());
        digests.push_back(sink.digest);
        events.push_back(sink.field_events);
        samples.push_back(sink.samples);
      });
  const double rss = peak_rss_mib();
  setup.runner.reset();

  const std::size_t items = walls.size() * scenarios.size();
  report.attempted += items;
  report.failed += errors;
  if (errors != 0) report.correct = false;
  if (std::adjacent_find(digests.begin(), digests.end(),
                         std::not_equal_to<>()) != digests.end()) {
    report.fail("sweep_stream: output digest differs between passes");
  }
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(double(scenarios.size()) / w);
  report.metric("items_per_s", median(rates), "1/s");
  report.info.emplace_back("sweep_stream.pass_items_per_s", quantile_summary(rates));
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mib", rss, "MiB");
  report.metric("cpu_ms_per_item", 1e3 * cpu_s / double(items), "ms");
  report.count("sweep_stream.digest", digests.front());
  report.count("mag.field_events", events.front());
  report.count("ams.trajectory.solves", solves);
  report.info.emplace_back("sweep_stream.passes", std::to_string(walls.size()));
  report.info.emplace_back("sweep_stream.samples_per_pass",
                           std::to_string(samples.front()));

  check_outputs(args, scenarios, report);
}

void run_traced(const Args& args, Report& report) {
  constexpr int kPasses = 5;
  const std::vector<core::Scenario> scenarios = make_scenarios(args.seed);

  // Untraced reference: the real entry point's wall time and digest.
  std::vector<double> real_walls;
  std::uint64_t real_digest = 0, samples = 0, events = 0, clamps = 0;
  {
    core::BatchRunner runner(core::BatchOptions{batch_workers(args)});
    {
      core::CollectingSink warm;
      (void)runner.run(std::vector<core::Scenario>(scenarios.begin(),
                                                   scenarios.begin() + 16),
                       warm, kRunOptions);
    }
    for (int p = 0; p < kPasses; ++p) {
      BenchSink sink(fresh_sink_file(args), nullptr);
      const double t0 = now_s();
      (void)runner.run(scenarios, sink, kRunOptions);
      real_walls.push_back(now_s() - t0);
      real_digest = sink.digest;
      samples = sink.samples;
      events = sink.field_events;
      clamps = sink.slope_clamps;
    }
  }

  core::ThreadPool pool(batch_workers(args));
  Tracer tracer;
  ReplayStats rs;
  std::vector<double> replay_walls;
  for (int p = 0; p < kPasses; ++p) {
    tracer.set_run(static_cast<std::uint32_t>(p));
    BenchSink sink(fresh_sink_file(args), nullptr);
    const double t0 = now_s();
    replay_pass(scenarios, pool, sink, &tracer, rs);
    replay_walls.push_back(now_s() - t0);
    report.attempted += scenarios.size();
    if (sink.digest != real_digest || sink.errors != 0) {
      report.fail("sweep_stream: replay digest differs from BatchRunner::run");
    }
  }
  tracer.write_jsonl((std::filesystem::path(args.out_dir) / "trace.jsonl").string());

  const double passes = kPasses;
  const double workers = batch_workers(args);
  const double replay_wall = median(replay_walls);
  const double ja_busy = tracer.busy("mag.ja_kernel") / passes;
  const double energy_busy = tracer.busy("mag.energy_kernel") / passes;
  const double ams_busy = (tracer.busy("ams.trajectory") +
                           tracer.busy("ams.trace_build")) / passes;
  const double ja_samples = double(rs.ja_samples.load()) / passes;
  const double energy_samples = double(rs.energy_samples.load()) / passes;
  // Kernel rate as if every worker ran nothing but the kernel, so it
  // compares with the end-to-end rate the same workers deliver. The
  // end-to-end side leaves out the workers' energy-kernel and kAms
  // trajectory/trace time: that is other models' work, not JA packing.
  const double kernel_rate = ja_samples / ja_busy * workers;
  const double e2e_rate =
      ja_samples / (median(real_walls) - (energy_busy + ams_busy) / workers);

  std::size_t result_bytes = 0;
  for (const auto& s : scenarios) {
    result_bytes += sizeof(core::ScenarioResult) + s.name.size();
  }
  result_bytes += samples * sizeof(mag::BhPoint);

  report.metric("core.plan.busy_s", tracer.busy("core.plan") / passes, "s");
  report.metric("ams.trajectory.busy_s", tracer.busy("ams.trajectory") / passes, "s");
  report.metric("ams.trajectory.solves",
                double(tracer.count("ams.trajectory")) / passes, "count");
  report.metric("ams.share", ams_busy / (workers * replay_wall), "ratio");
  report.metric("mag.ja_kernel.busy_s", ja_busy, "s");
  report.metric("mag.ja_kernel.samples_per_s", kernel_rate, "1/s");
  report.metric("mag.energy_kernel.busy_s", energy_busy, "s");
  report.metric("mag.energy_kernel.samples_per_s",
                energy_samples / energy_busy * workers, "1/s");
  report.metric("mag.energy_kernel.share", energy_busy / (workers * replay_wall),
                "ratio");
  report.metric("core.assembly.busy_s", tracer.busy("core.assembly") / passes, "s");
  report.metric("analysis.metrics.busy_s",
                tracer.busy("analysis.metrics") / passes, "s");
  report.metric("core.queue.wait_s", rs.queue_push.seconds() / passes, "s");
  report.metric("core.queue.high_water", double(rs.high_water), "count");
  report.metric("util.sink.busy_s", tracer.busy("util.sink") / passes, "s");
  report.metric("core.packed_over_kernel", e2e_rate / kernel_rate, "ratio");
  report.metric("core.result_bytes_per_sample",
                double(result_bytes) / double(samples), "B/sample");
  report.metric("mag.field_events", double(events), "count");
  report.metric("mag.slope_clamps", double(clamps), "count");
  report.metric("trace.sweep_stream.overhead_s",
                replay_wall - median(real_walls), "s");
  report.count("mag.field_events", events);
  report.count("ams.trajectory.solves", tracer.count("ams.trajectory") / kPasses);
  report.count("sweep_stream.digest", real_digest);
}

}  // namespace

void run_sweep_stream(const Args& args, Report& report) {
  if (args.trace) {
    run_traced(args, report);
  } else {
    run_untraced(args, report);
  }
}

}  // namespace perfbench
