// SUB2 — substrate performance: the MNA circuit engine with JA-core
// devices, i.e. the SPICE/SABER usage context the paper's introduction
// motivates. Reports steps and Newton iterations per simulated cycle, and
// times representative circuits.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "ckt/engine.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/lane_lu.hpp"
#include "ckt/monte_carlo.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/scatter.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "util/rng.hpp"
#include "wave/standard.hpp"

namespace {

using namespace ferro;

mag::CoreGeometry demo_core() {
  mag::CoreGeometry geom;
  geom.area = 1e-4;
  geom.path_length = 0.1;
  geom.turns = 100;
  return geom;
}

void build_ja_circuit(ckt::Circuit& ckt_out) {
  const auto in = ckt_out.node("in");
  const auto out = ckt_out.node("out");
  ckt_out.add<ckt::VoltageSource>("V", in, ckt::kGround,
                                  std::make_shared<wave::Sine>(7.0, 50.0));
  ckt_out.add<ckt::Resistor>("R", in, out, 1.0);
  mag::TimelessConfig cfg;
  cfg.dhmax = 5.0;
  ckt_out.add<ckt::JaInductor>("Lcore", out, ckt::kGround, demo_core(),
                               mag::paper_parameters(), cfg);
}

void build_transformer_circuit(ckt::Circuit& ckt_out) {
  const auto p = ckt_out.node("p");
  const auto s = ckt_out.node("s");
  ckt_out.add<ckt::VoltageSource>("V", p, ckt::kGround,
                                  std::make_shared<wave::Sine>(1.5, 50.0));
  mag::TimelessConfig cfg;
  cfg.dhmax = 0.5;
  ckt_out.add<ckt::JaTransformer>(
      "T", p, ckt::kGround, s, ckt::kGround, demo_core(), 50,
      mag::find_material("grain-oriented-si")->params, cfg);
  ckt_out.add<ckt::Resistor>("Rload", s, ckt::kGround, 100.0);
}

void build_rc_ladder(ckt::Circuit& ckt_out, int stages) {
  auto prev = ckt_out.node("in");
  ckt_out.add<ckt::VoltageSource>("V", prev, ckt::kGround,
                                  std::make_shared<wave::Sine>(1.0, 1e3));
  for (int i = 0; i < stages; ++i) {
    const auto next = ckt_out.node("n" + std::to_string(i));
    ckt_out.add<ckt::Resistor>("R" + std::to_string(i), prev, next, 1000.0);
    ckt_out.add<ckt::Capacitor>("C" + std::to_string(i), next, ckt::kGround,
                                1e-7);
    prev = next;
  }
}

void report() {
  benchutil::header("SUB2", "MNA circuit engine with hysteretic cores");

  std::printf("  %-24s %10s %10s %10s %12s\n", "circuit", "steps", "rejected",
              "NR iters", "iters/step");
  {
    ckt::Circuit c;
    build_ja_circuit(c);
    ckt::TransientOptions options;
    options.t_end = 0.04;
    options.dt_initial = 1e-6;
    options.dt_max = 2e-5;
    ckt::CircuitStats stats;
    (void)ckt::run_transient(c, options, {}, &stats);
    std::printf("  %-24s %10llu %10llu %10llu %12.2f\n",
                "sine + R + JA inductor",
                static_cast<unsigned long long>(stats.steps_accepted),
                static_cast<unsigned long long>(stats.steps_rejected),
                static_cast<unsigned long long>(stats.newton_iterations),
                static_cast<double>(stats.newton_iterations) /
                    static_cast<double>(stats.steps_accepted));
  }
  {
    ckt::Circuit c;
    build_transformer_circuit(c);
    ckt::TransientOptions options;
    options.t_end = 0.04;
    options.dt_initial = 1e-6;
    options.dt_max = 2e-5;
    ckt::CircuitStats stats;
    (void)ckt::run_transient(c, options, {}, &stats);
    std::printf("  %-24s %10llu %10llu %10llu %12.2f\n",
                "JA transformer + load",
                static_cast<unsigned long long>(stats.steps_accepted),
                static_cast<unsigned long long>(stats.steps_rejected),
                static_cast<unsigned long long>(stats.newton_iterations),
                static_cast<double>(stats.newton_iterations) /
                    static_cast<double>(stats.steps_accepted));
  }
  {
    ckt::Circuit c;
    build_rc_ladder(c, 16);
    ckt::TransientOptions options;
    options.t_end = 4e-3;
    options.dt_initial = 1e-7;
    options.dt_max = 2e-6;
    ckt::CircuitStats stats;
    (void)ckt::run_transient(c, options, {}, &stats);
    std::printf("  %-24s %10llu %10llu %10llu %12.2f\n", "16-stage RC ladder",
                static_cast<unsigned long long>(stats.steps_accepted),
                static_cast<unsigned long long>(stats.steps_rejected),
                static_cast<unsigned long long>(stats.newton_iterations),
                static_cast<double>(stats.newton_iterations) /
                    static_cast<double>(stats.steps_accepted));
  }
  benchutil::footnote(
      "the hysteretic decks need about 2 (inductor) and 3.3 (transformer) "
      "Newton iterations per step against the linear RC ladder's one, with "
      "no rejected steps: each trial step is seeded at the predicted "
      "solution, and each core latches its dhmax event decision for the "
      "whole Newton solve, so every solve is on one smooth branch of B(H).");
}

/// One mains cycle of `build`'s deck per benchmark iteration, with the
/// Newton work behind the time: iterations per accepted step, and the
/// transient's wall time per Newton iteration (everything a step costs,
/// divided by its iterations).
void run_cycles(benchmark::State& state, void (*build)(ckt::Circuit&)) {
  ckt::CircuitStats total;
  std::chrono::steady_clock::duration transient{};
  for (auto _ : state) {
    ckt::Circuit c;
    build(c);
    ckt::TransientOptions options;
    options.t_end = 0.02;
    options.dt_initial = 1e-6;
    options.dt_max = 2e-5;
    ckt::CircuitStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    (void)ckt::run_transient(c, options, {}, &stats);
    transient += std::chrono::steady_clock::now() - t0;
    total.steps_accepted += stats.steps_accepted;
    total.newton_iterations += stats.newton_iterations;
  }
  const double iterations = static_cast<double>(
      std::max<std::uint64_t>(total.newton_iterations, 1));
  state.counters["newton_iters_per_step"] =
      static_cast<double>(total.newton_iterations) /
      static_cast<double>(std::max<std::uint64_t>(total.steps_accepted, 1));
  state.counters["ns_per_newton_iteration"] =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(transient)
              .count()) /
      iterations;
}

void bm_ja_inductor_cycle(benchmark::State& state) {
  run_cycles(state, build_ja_circuit);
}
BENCHMARK(bm_ja_inductor_cycle)->Unit(benchmark::kMillisecond);

void bm_transformer_cycle(benchmark::State& state) {
  run_cycles(state, build_transformer_circuit);
}
BENCHMARK(bm_transformer_cycle)->Unit(benchmark::kMillisecond);

void bm_rc_ladder(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ckt::Circuit c;
    build_rc_ladder(c, stages);
    ckt::TransientOptions options;
    options.t_end = 1e-3;
    options.dt_initial = 1e-7;
    options.dt_max = 2e-6;
    (void)ckt::run_transient(c, options, {});
  }
}
BENCHMARK(bm_rc_ladder)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void bm_dc_operating_point(benchmark::State& state) {
  ckt::Circuit c;
  build_transformer_circuit(c);
  std::vector<double> x;
  for (auto _ : state) {
    (void)ckt::solve_dc(c, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(bm_dc_operating_point);

// --- MNA linear solve: one LuSolver per system vs LaneLu -------------------
//
// The linear solve of one Newton iteration, n unknowns (4 = the inrush deck,
// 5 = the transformer deck, 8 = a larger netlist). The scalar row factors
// and solves the systems one ams::LuSolver call each; the lanes row runs
// them through ckt::LaneLu at the active SIMD width, gather and scatter
// included, as a Monte-Carlo lockstep group does. ns_per_system is the
// per-system cost of each; the solutions are bitwise equal.

/// max_lanes() diagonally dominant random systems of n unknowns.
struct MnaSystems {
  explicit MnaSystems(std::size_t n) {
    util::SplitMix64 rng(n);
    for (std::size_t l = 0; l < ckt::LaneLu::max_lanes(); ++l) {
      ams::Matrix a(n, n);
      std::vector<double> b(n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          a.at(r, c) = rng.next_unit() - 0.5 + (r == c ? double(n) : 0.0);
        }
        b[r] = rng.next_unit();
      }
      matrices.push_back(std::move(a));
      rhs.push_back(std::move(b));
    }
  }
  std::vector<ams::Matrix> matrices;
  std::vector<std::vector<double>> rhs;
};

/// Times the benchmark loop `body` runs and reports its wall time per system.
template <class Body>
void time_systems(benchmark::State& state, std::size_t systems, Body body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) body();
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - t0;
  state.counters["ns_per_system"] =
      elapsed.count() / static_cast<double>(systems * state.iterations());
  state.counters["lanes"] = static_cast<double>(systems);
}

void bm_mna_solve_scalar(benchmark::State& state) {
  const MnaSystems systems(static_cast<std::size_t>(state.range(0)));
  const std::size_t count = systems.matrices.size();
  std::vector<double> x(systems.rhs[0].size());
  ams::LuSolver lu;
  time_systems(state, count, [&] {
    for (std::size_t l = 0; l < count; ++l) {
      benchmark::DoNotOptimize(lu.factor(systems.matrices[l]));
      lu.solve(systems.rhs[l], x);
      benchmark::DoNotOptimize(x.data());
    }
  });
}
BENCHMARK(bm_mna_solve_scalar)->Arg(4)->Arg(5)->Arg(8);

void bm_mna_solve_lanes(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MnaSystems systems(n);
  const std::size_t count = systems.matrices.size();
  std::vector<double> x(n);
  ckt::LaneLu lu;
  time_systems(state, count, [&] {
    lu.reset(n, count);
    for (std::size_t l = 0; l < count; ++l) {
      lu.load(l, systems.matrices[l], systems.rhs[l]);
    }
    lu.solve();
    for (std::size_t l = 0; l < count; ++l) {
      benchmark::DoNotOptimize(lu.singular(l));
      lu.store(l, x);
      benchmark::DoNotOptimize(x.data());
    }
  });
}
BENCHMARK(bm_mna_solve_lanes)->Arg(4)->Arg(5)->Arg(8);

// --- Monte-Carlo corner sweeps -------------------------------------------
//
// The same JA-inductor circuit swept over component/core tolerances, 256
// corners, half a mains cycle each: serial reference vs ThreadPool fan-out
// vs fan-out + SoA-packed cores. corners_per_s is the headline counter
// (real-time rate: the fanned variants run worker threads internally).
// Corner results are bitwise identical across all three variants — the
// packing and the fan-out are pure throughput decisions.

ckt::MonteCarlo make_inrush_mc() {
  ckt::ScatterSpec spec;
  spec.params = {
      {"r.value", 0.05, ckt::ScatterKind::kUniform},
      {"lcore.area", 0.02, ckt::ScatterKind::kUniform},
      {"lcore.ms", 0.10, ckt::ScatterKind::kNormal},
      {"lcore.k", 0.05, ckt::ScatterKind::kNormal},
  };
  return ckt::MonteCarlo(
      ckt::CornerSampler(std::move(spec), 42),
      [](const ckt::CornerView& view, ckt::Circuit& c) {
        const auto in = c.node("in");
        const auto out = c.node("out");
        c.add<ckt::VoltageSource>("V", in, ckt::kGround,
                                  std::make_shared<wave::Sine>(7.0, 50.0));
        c.add<ckt::Resistor>("R", in, out, view.value("r.value", 1.0));
        mag::CoreGeometry geom = demo_core();
        geom.area = view.value("lcore.area", geom.area);
        mag::JaParameters params = mag::paper_parameters();
        params.ms = view.value("lcore.ms", params.ms);
        params.k = view.value("lcore.k", params.k);
        mag::TimelessConfig cfg;
        cfg.dhmax = 5.0;
        c.add<ckt::JaInductor>("Lcore", out, ckt::kGround, geom, params, cfg);
      });
}

ckt::MonteCarloOptions mc_options(std::size_t corners, unsigned threads,
                                  ckt::McPacking packing) {
  ckt::MonteCarloOptions options;
  options.corners = corners;
  options.threads = threads;
  options.packing = packing;
  options.transient.t_end = 0.01;  // half a 50 Hz cycle: the inrush peak
  options.transient.dt_initial = 1e-6;
  options.transient.dt_max = 2e-5;
  options.probes = {{ckt::Probe::Kind::kBranchCurrent, "Lcore"}};
  return options;
}

void run_mc_bench(benchmark::State& state, unsigned threads,
                  ckt::McPacking packing) {
  constexpr std::size_t kCorners = 256;
  const ckt::MonteCarlo mc = make_inrush_mc();
  const ckt::MonteCarloOptions options = mc_options(kCorners, threads, packing);
  std::size_t failed = 0;
  ckt::CircuitStats total;  // every corner of every sweep
  for (auto _ : state) {
    core::BatchReport report;
    const auto results = mc.run(options, &report);
    benchmark::DoNotOptimize(results.data());
    failed += report.failed;
    for (const ckt::CornerResult& r : results) {
      total.steps_accepted += r.stats.steps_accepted;
      total.steps_rejected += r.stats.steps_rejected;
      total.newton_iterations += r.stats.newton_iterations;
    }
  }
  state.counters["corners_per_s"] = benchmark::Counter(
      static_cast<double>(kCorners * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["failed"] = static_cast<double>(failed);
  // The Newton work behind the rate: iterations per accepted step, and
  // rejected steps per sweep.
  state.counters["newton_iters_per_step"] =
      static_cast<double>(total.newton_iterations) /
      static_cast<double>(std::max<std::uint64_t>(total.steps_accepted, 1));
  state.counters["steps_rejected"] =
      benchmark::Counter(static_cast<double>(total.steps_rejected),
                         benchmark::Counter::kAvgIterations);
}

void bm_mc_inrush_serial(benchmark::State& state) {
  run_mc_bench(state, 1, ckt::McPacking::kScalar);
}
BENCHMARK(bm_mc_inrush_serial)->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_mc_inrush_fanned(benchmark::State& state) {
  run_mc_bench(state, 8, ckt::McPacking::kScalar);
}
BENCHMARK(bm_mc_inrush_fanned)->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_mc_inrush_packed(benchmark::State& state) {
  run_mc_bench(state, 8, ckt::McPacking::kPackedExact);
}
BENCHMARK(bm_mc_inrush_packed)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

FERRO_BENCH_MAIN(report)
