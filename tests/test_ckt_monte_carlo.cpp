// ckt::MonteCarlo tests: scatter determinism, thread-count and partition
// bitwise invariance, packed-vs-scalar-vs-direct identity (down to the
// waveforms), poison-corner isolation, RunLimits, and the streaming
// delivery contract (the MonteCarlo side of test_streaming's sink cases).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckt/diode.hpp"
#include "ckt/engine.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/monte_carlo.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/scatter.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"

namespace fk = ferro::ckt;
namespace fe = ferro::core;
namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace ts = ferro::testsupport;

namespace {

/// The inrush demo circuit scaled down to a fast test transient, with the
/// core's field-event threshold `dhmax`.
fk::CornerBuilder corner_builder(double dhmax) {
  return [dhmax](const fk::CornerView& view, fk::Circuit& circuit) {
    const auto in = circuit.node("in");
    const auto out = circuit.node("out");
    circuit.add<fk::VoltageSource>("V", in, fk::kGround,
                                   std::make_shared<fw::Sine>(8.0, 50.0));
    circuit.add<fk::Resistor>("R", in, out, view.value("r.value", 0.8));
    fm::CoreGeometry geom;
    geom.area = view.value("lcore.area", 1e-4);
    geom.path_length = 0.1;
    geom.turns = 100;
    fm::TimelessConfig config;
    config.dhmax = dhmax;
    fm::JaParameters params = fm::paper_parameters();
    params.ms = view.value("lcore.ms", params.ms);
    circuit.add<fk::JaInductor>("Lcore", out, fk::kGround, geom, params,
                                config);
  };
}

void build_corner(const fk::CornerView& view, fk::Circuit& circuit) {
  corner_builder(5.0)(view, circuit);
}

fk::ScatterSpec demo_spec() {
  fk::ScatterSpec spec;
  spec.params = {
      {"r.value", 0.05, fk::ScatterKind::kUniform},
      {"lcore.area", 0.02, fk::ScatterKind::kUniform},
      {"lcore.ms", 0.10, fk::ScatterKind::kNormal},
  };
  return spec;
}

fk::MonteCarloOptions demo_options(std::size_t corners) {
  fk::MonteCarloOptions options;
  options.corners = corners;
  options.transient.t_end = 2e-3;  // a tenth of a cycle: fast but nontrivial
  options.transient.dt_initial = 1e-6;
  options.transient.dt_max = 2e-5;
  options.probes = {{fk::Probe::Kind::kBranchCurrent, "Lcore"},
                    {fk::Probe::Kind::kCoreFluxDensity, "Lcore"}};
  return options;
}

fk::MonteCarlo demo_mc(std::uint64_t seed = 7) {
  return fk::MonteCarlo(fk::CornerSampler(demo_spec(), seed), build_corner);
}

bool bitwise_equal(const fk::CornerResult& a, const fk::CornerResult& b) {
  if (a.index != b.index || a.error.code != b.error.code) return false;
  if (std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) != 0) return false;
  if (a.draws.factors.size() != b.draws.factors.size()) return false;
  for (std::size_t i = 0; i < a.draws.factors.size(); ++i) {
    if (std::memcmp(&a.draws.factors[i], &b.draws.factors[i],
                    sizeof(double)) != 0) {
      return false;
    }
  }
  if (a.probes.size() != b.probes.size()) return false;
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    if (std::memcmp(&a.probes[i], &b.probes[i], sizeof(fk::ProbeSummary)) !=
        0) {
      return false;
    }
  }
  if (a.t.size() != b.t.size() || a.waveforms.size() != b.waveforms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.t.size(); ++i) {
    if (std::memcmp(&a.t[i], &b.t[i], sizeof(double)) != 0) return false;
  }
  for (std::size_t p = 0; p < a.waveforms.size(); ++p) {
    if (a.waveforms[p].size() != b.waveforms[p].size()) return false;
    for (std::size_t i = 0; i < a.waveforms[p].size(); ++i) {
      if (std::memcmp(&a.waveforms[p][i], &b.waveforms[p][i],
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

TEST(Scatter, ParseSpecAndDiagnostics) {
  const auto parsed = fk::parse_scatter_spec(
      "# tolerances\n"
      "r1.value 0.05\n"
      "y1.ms    0.10 normal   * trailing comment\n"
      "\n"
      "y1.area  0.02 uniform\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.spec->size(), 3u);
  EXPECT_EQ(parsed.spec->params[0].key, "r1.value");
  EXPECT_EQ(parsed.spec->params[0].kind, fk::ScatterKind::kUniform);
  EXPECT_EQ(parsed.spec->params[1].kind, fk::ScatterKind::kNormal);
  EXPECT_TRUE(parsed.spec->find("y1.ms").has_value());
  EXPECT_FALSE(parsed.spec->find("nope.value").has_value());

  const auto bad = fk::parse_scatter_spec(
      "novalue\n"
      "nodot 0.1\n"
      "r1.value nan-ish\n"
      "r1.value 1.5\n"
      "dup.x 0.1\ndup.x 0.2\n"
      "d.k 0.1 cauchy\n"
      "hex.x 0x0.1\n"
      "plus.x +0.05\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.errors.size(), 8u);
}

TEST(Scatter, DrawsAreDeterministicAndBounded) {
  const fk::CornerSampler sampler(demo_spec(), 123);
  const fk::CornerSampler same(demo_spec(), 123);
  const fk::CornerSampler other(demo_spec(), 124);

  for (std::size_t i = 0; i < 64; ++i) {
    const auto a = sampler.corner(i);
    const auto b = same.corner(i);
    ASSERT_EQ(a.factors.size(), 3u);
    for (std::size_t p = 0; p < a.factors.size(); ++p) {
      EXPECT_EQ(a.factors[p], b.factors[p]);  // pure function of (seed, i)
    }
    // Uniform draws live in [1 - tol, 1 + tol); normal draws are truncated
    // at 3 sigma, so the same bound holds for them too.
    const double tolerances[3] = {0.05, 0.02, 0.10};
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_GE(a.factors[p], 1.0 - tolerances[p]);
      EXPECT_LE(a.factors[p], 1.0 + tolerances[p]);
    }
  }
  // Different seeds decorrelate (astronomically unlikely to collide).
  EXPECT_NE(sampler.corner(0).factors[0], other.corner(0).factors[0]);
}

TEST(MonteCarlo, ThreadCountAndPartitionInvariance) {
  // The property the scatter header promises: results are a pure function
  // of (seed, index) — never of the parallel schedule. Sweep thread counts
  // and chunk sizes (which are also the lockstep group sizes) and compare
  // everything bitwise, waveforms included.
  auto options = demo_options(12);
  options.record_waveforms = true;
  options.packing = fk::McPacking::kPackedExact;
  options.threads = 1;
  options.chunk = 12;  // one group: the whole sweep in lockstep
  const auto reference = demo_mc().run(options);
  ASSERT_EQ(reference.size(), 12u);
  for (const auto& r : reference) ASSERT_TRUE(r.ok()) << r.error;

  const struct {
    unsigned threads;
    std::size_t chunk;
  } schedules[] = {{1, 1}, {1, 5}, {2, 3}, {4, 1}, {4, 4}, {3, 7}};
  for (const auto& schedule : schedules) {
    options.threads = schedule.threads;
    options.chunk = schedule.chunk;
    const auto results = demo_mc().run(options);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(results[i], reference[i]))
          << "corner " << i << " diverged at threads=" << schedule.threads
          << " chunk=" << schedule.chunk;
    }
  }
}

namespace {

/// What the sweep records for `probe` at an accepted step, read off a
/// circuit run directly.
double direct_probe_value(const fk::Probe& probe, const fk::Circuit& circuit,
                          const fk::Solution& sol) {
  std::size_t branch = 0;
  for (const auto& d : circuit.devices()) {
    if (d->name() == probe.target) {
      const auto* core = dynamic_cast<const fk::JaInductor*>(d.get());
      switch (probe.kind) {
        case fk::Probe::Kind::kBranchCurrent:
          return sol.branch_current(branch);
        case fk::Probe::Kind::kCoreFluxDensity:
          if (core != nullptr) return core->flux_density();
          break;
        case fk::Probe::Kind::kCoreField:
          if (core != nullptr) return core->field();
          break;
        case fk::Probe::Kind::kNodeVoltage:
          break;
      }
    }
    branch += d->branch_count();
  }
  for (std::size_t id = 0; id < circuit.node_count(); ++id) {
    const auto node = static_cast<fk::NodeId>(id);
    if (probe.kind == fk::Probe::Kind::kNodeVoltage &&
        circuit.node_name(node) == probe.target) {
      return sol.v(node);
    }
  }
  ADD_FAILURE() << "probe target " << probe.target << " not found";
  return 0.0;
}

/// Builds `mc`'s corner by hand and runs it through run_transient: the
/// reference a sweep's corner must equal bit for bit, waveforms included.
void expect_matches_direct_run(const fk::CornerResult& mc,
                               const fk::CornerSampler& sampler,
                               const fk::CornerBuilder& builder,
                               const fk::MonteCarloOptions& options) {
  fk::Circuit circuit;
  const auto draws = sampler.corner(mc.index);
  builder(fk::CornerView(sampler.spec(), draws, mc.index), circuit);
  std::vector<double> t_wave;
  std::vector<std::vector<double>> waves(options.probes.size());
  fk::CircuitStats stats;
  const fe::Error error = fk::run_transient(
      circuit, options.transient,
      [&](const fk::Solution& sol) {
        t_wave.push_back(sol.t);
        for (std::size_t p = 0; p < options.probes.size(); ++p) {
          waves[p].push_back(direct_probe_value(options.probes[p], circuit, sol));
        }
      },
      &stats);
  ASSERT_TRUE(error.ok()) << error;

  EXPECT_EQ(std::memcmp(&mc.stats, &stats, sizeof(stats)), 0)
      << "corner " << mc.index;
  ASSERT_EQ(mc.t.size(), t_wave.size()) << "corner " << mc.index;
  ASSERT_EQ(mc.waveforms.size(), waves.size());
  for (std::size_t k = 0; k < t_wave.size(); ++k) {
    ASSERT_EQ(mc.t[k], t_wave[k]);
    for (std::size_t p = 0; p < waves.size(); ++p) {
      ASSERT_EQ(mc.waveforms[p][k], waves[p][k])  // bitwise: == on doubles
          << "corner " << mc.index << " probe " << p << " step " << k;
    }
  }
}

/// The repository benchmark's JA transformer deck on demo_spec's keys:
/// r.value scales the load, lcore.* the core.
void build_transformer(const fk::CornerView& view, fk::Circuit& circuit) {
  const auto p = circuit.node("p");
  const auto s = circuit.node("s");
  circuit.add<fk::VoltageSource>("V", p, fk::kGround,
                                 std::make_shared<fw::Sine>(1.5, 50.0));
  fm::CoreGeometry geom;
  geom.area = view.value("lcore.area", 1e-4);
  fm::TimelessConfig config;
  config.dhmax = 0.5;
  fm::JaParameters params = fm::find_material("grain-oriented-si")->params;
  params.ms = view.value("lcore.ms", params.ms);
  circuit.add<fk::JaTransformer>("T", p, fk::kGround, s, fk::kGround, geom, 50,
                                 params, config);
  circuit.add<fk::Resistor>("Rload", s, fk::kGround,
                            view.value("r.value", 100.0));
}

/// A half-wave rectifier into an RC load: the diode's stamps share the
/// output node's diagonal with the resistor, the capacitor and gmin.
void build_rectifier(const fk::CornerView& view, fk::Circuit& circuit) {
  const auto in = circuit.node("in");
  const auto out = circuit.node("out");
  circuit.add<fk::VoltageSource>("V", in, fk::kGround,
                                 std::make_shared<fw::Sine>(8.0, 50.0));
  circuit.add<fk::Diode>("D", in, out);
  circuit.add<fk::Resistor>("R", out, fk::kGround, view.value("r.value", 100.0));
  circuit.add<fk::Capacitor>("C", out, fk::kGround,
                             view.value("lcore.area", 1e-5));
}

}  // namespace

TEST(MonteCarlo, PackedScalarAndDirectRunsAgreeBitwise) {
  // Corner i of a sweep is bit for bit the run you get by building the
  // same circuit by hand and calling run_transient, stepped in a lockstep
  // group (its linear solves in lanes) or on its own. The decks cover the
  // JA inductor at a fine and a coarse (50 A/m) threshold, the JA
  // transformer, and a diode rectifier whose nonlinear stamps share matrix
  // entries with several linear ones.
  const struct {
    const char* name;
    fk::CornerBuilder builder;
    std::vector<fk::Probe> probes;
  } decks[] = {
      {"inrush dhmax 5", corner_builder(5.0), demo_options(0).probes},
      {"inrush dhmax 50", corner_builder(50.0), demo_options(0).probes},
      {"transformer", build_transformer,
       {{fk::Probe::Kind::kBranchCurrent, "T"},
        {fk::Probe::Kind::kNodeVoltage, "s"}}},
      {"rectifier", build_rectifier,
       {{fk::Probe::Kind::kNodeVoltage, "out"},
        {fk::Probe::Kind::kBranchCurrent, "V"}}},
  };
  for (const auto& deck : decks) {
    SCOPED_TRACE(deck.name);
    const fk::CornerSampler sampler(demo_spec(), 7);
    const fk::MonteCarlo mc(sampler, deck.builder);
    auto options = demo_options(10);
    options.probes = deck.probes;
    options.record_waveforms = true;
    options.packing = fk::McPacking::kScalar;
    const auto scalar = mc.run(options);

    options.packing = fk::McPacking::kPackedExact;
    options.threads = 2;
    options.chunk = 5;
    const auto packed = mc.run(options);

    ASSERT_EQ(scalar.size(), packed.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_TRUE(packed[i].ok()) << packed[i].error;
      EXPECT_GT(packed[i].stats.newton_iterations,
                packed[i].stats.steps_accepted);  // the deck iterates
      EXPECT_TRUE(bitwise_equal(scalar[i], packed[i])) << "corner " << i;
      expect_matches_direct_run(packed[i], sampler, deck.builder, options);
    }
  }
}

TEST(MonteCarlo, MixedUnknownCountsMatchDirectRuns) {
  // Every third corner gets an extra resistor to a tap node, so its MNA
  // system has one unknown more than its neighbours': the lockstep group
  // solves the corners sharing its block's unknown count lane-wise and the
  // others (and any lone corner) through their own LuSolver. Each corner
  // must still be bit for bit its direct run_transient.
  const fk::CornerBuilder builder = [](const fk::CornerView& view,
                                       fk::Circuit& circuit) {
    build_corner(view, circuit);
    if (view.index() % 3 == 1) {
      circuit.add<fk::Resistor>("Rtap", circuit.node("out"),
                                circuit.node("tap"), 1e3);
    }
  };
  const fk::CornerSampler sampler(demo_spec(), 7);
  const fk::MonteCarlo mc(sampler, builder);
  for (const std::size_t chunk : {3u, 8u, 16u}) {
    auto options = demo_options(16);
    options.record_waveforms = true;
    options.chunk = chunk;
    const auto results = mc.run(options);
    ASSERT_EQ(results.size(), 16u);
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.error;
      SCOPED_TRACE("chunk " + std::to_string(chunk));
      expect_matches_direct_run(r, sampler, builder, options);
    }
  }
}

TEST(MonteCarlo, SeedReproducibilityAndDivergence) {
  const auto options = demo_options(6);
  const auto a = demo_mc(99).run(options);
  const auto b = demo_mc(99).run(options);
  const auto c = demo_mc(100).run(options);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a[i], b[i])) << "corner " << i;
    EXPECT_NE(a[i].probes[0].abs_peak, c[i].probes[0].abs_peak)
        << "seed change did not move corner " << i;
  }
}

TEST(MonteCarlo, PoisonCornerIsIsolated) {
  // One corner's builder throws; the neighbours in the same lockstep group
  // must come out bit-identical to a sweep where every corner is healthy.
  const fk::MonteCarlo healthy = demo_mc();
  const fk::MonteCarlo poisoned(
      fk::CornerSampler(demo_spec(), 7),
      [](const fk::CornerView& view, fk::Circuit& circuit) {
        if (view.index() == 2) throw std::runtime_error("poison corner");
        build_corner(view, circuit);
      });

  auto options = demo_options(6);
  options.record_waveforms = true;
  options.chunk = 6;  // everything in one group with the poison corner
  const auto good = healthy.run(options);
  fe::BatchReport report;
  const auto mixed = poisoned.run(options, &report);

  ASSERT_EQ(mixed.size(), 6u);
  EXPECT_EQ(mixed[2].error.code, fe::ErrorCode::kInvalidScenario);
  EXPECT_NE(mixed[2].error.detail.find("poison corner"), std::string::npos);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(report.completed());
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(bitwise_equal(mixed[i], good[i])) << "corner " << i;
  }
}

TEST(MonteCarlo, NonFiniteCornerIsReportedFailed) {
  // Corner 2 carries a device that goes NaN once its node passes 0.5 V.
  // Its transient stops with kNonFinite instead of running "clean", the
  // sweep counts it failed, and its lockstep neighbours stay bitwise
  // equal to a healthy sweep — scalar and packed alike.
  const fk::MonteCarlo healthy = demo_mc();
  const fk::MonteCarlo poisoned(
      fk::CornerSampler(demo_spec(), 7),
      [](const fk::CornerView& view, fk::Circuit& circuit) {
        build_corner(view, circuit);
        if (view.index() == 2) {
          circuit.add<ts::NanAboveHalfVolt>("N", circuit.node("out"));
        }
      });

  for (const auto packing :
       {fk::McPacking::kScalar, fk::McPacking::kPackedExact}) {
    auto options = demo_options(6);
    options.packing = packing;
    options.chunk = 6;  // one lockstep group
    const auto good = healthy.run(options);
    fe::BatchReport report;
    const auto mixed = poisoned.run(options, &report);
    ASSERT_EQ(mixed.size(), 6u);
    EXPECT_EQ(mixed[2].error.code, fe::ErrorCode::kNonFinite)
        << mixed[2].error;
    EXPECT_EQ(mixed[2].stats.forced_accepts, 0u);
    for (const auto& probe : mixed[2].probes) {
      EXPECT_TRUE(std::isfinite(probe.final));
    }
    EXPECT_EQ(report.failed, 1u);
    for (std::size_t i = 0; i < 6; ++i) {
      if (i == 2) continue;
      EXPECT_TRUE(bitwise_equal(mixed[i], good[i])) << "corner " << i;
    }
  }
}

TEST(MonteCarlo, UnresolvableProbeFailsTheCornerOnly) {
  auto options = demo_options(3);
  options.probes.push_back({fk::Probe::Kind::kNodeVoltage, "no-such-node"});
  fe::BatchReport report;
  const auto results = demo_mc().run(options, &report);
  EXPECT_EQ(report.failed, 3u);  // every corner names the same bad probe
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fe::ErrorCode::kInvalidScenario);
  }
}

TEST(MonteCarlo, InvalidTransientOptionsRejectEveryCorner) {
  auto options = demo_options(4);
  options.transient.dt_max = options.transient.dt_initial / 2.0;  // < initial
  fe::BatchReport report;
  const auto results = demo_mc().run(options, &report);
  EXPECT_EQ(report.failed, 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fe::ErrorCode::kInvalidScenario);
  }
}

TEST(MonteCarlo, CancellationDrainsWithMarkers) {
  auto options = demo_options(32);
  options.chunk = 1;
  options.limits.cancel.cancel();  // cancelled before the sweep starts
  fe::BatchReport report;
  const auto results = demo_mc().run(options, &report);
  ASSERT_EQ(results.size(), 32u);
  EXPECT_EQ(report.cancelled, 32u);
  EXPECT_EQ(report.stop.code, fe::ErrorCode::kCancelled);
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fe::ErrorCode::kCancelled);
    EXPECT_EQ(r.draws.factors.size(), 3u);  // markers still carry the draws
  }
}

TEST(MonteCarlo, StreamingDeliversEveryCornerOnce) {
  class CountingSink final : public fk::CornerSink {
   public:
    std::size_t started = 0, completed = 0;
    std::vector<int> seen;
    void on_start(std::size_t total) override {
      ++started;
      seen.assign(total, 0);
    }
    void on_result(std::size_t index, fk::CornerResult&& result) override {
      ++seen.at(index);
      EXPECT_EQ(result.index, index);
    }
    void on_complete() override { ++completed; }
  };

  auto options = demo_options(9);
  options.threads = 3;
  options.chunk = 2;
  CountingSink sink;
  const fe::StreamSummary summary = demo_mc().run(options, sink);
  EXPECT_EQ(sink.started, 1u);
  EXPECT_EQ(sink.completed, 1u);
  for (std::size_t i = 0; i < sink.seen.size(); ++i) {
    EXPECT_EQ(sink.seen[i], 1) << "corner " << i;
  }
  EXPECT_EQ(summary.delivered, 9u);
  EXPECT_EQ(summary.discarded_deliveries, 0u);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.failed_jobs, 0u);
  EXPECT_TRUE(summary.stop.ok());
}

TEST(MonteCarlo, OneWorkerStreamsChunkSizedGroups) {
  // A one-worker pool hands the sweep over as one range; it must still run
  // as chunk-sized lockstep groups, so a streaming sink hears from the
  // first group before the later corners are even built.
  class FirstDeliverySink final : public fk::CornerSink {
   public:
    explicit FirstDeliverySink(const std::size_t& built) : built_(built) {}
    void on_result(std::size_t, fk::CornerResult&&) override {
      if (delivered++ == 0) built_at_first = built_;
    }
    std::size_t built_at_first = 0;
    std::size_t delivered = 0;

   private:
    const std::size_t& built_;
  };
  std::size_t built = 0;
  const fk::MonteCarlo mc(fk::CornerSampler(demo_spec(), 7),
                          [&built](const fk::CornerView& view,
                                   fk::Circuit& circuit) {
                            ++built;
                            build_corner(view, circuit);
                          });
  auto options = demo_options(8);
  options.threads = 1;
  options.chunk = 2;
  FirstDeliverySink sink(built);
  const fe::StreamSummary summary = mc.run(options, sink);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(sink.delivered, 8u);
  EXPECT_EQ(built, 8u);
  EXPECT_GE(sink.built_at_first, 1u);
  EXPECT_LE(sink.built_at_first, options.chunk);
}

TEST(MonteCarlo, StreamingSummaryReportsQueueHighWater) {
  // MonteCarlo streams through the same driver as BatchRunner, so its
  // summary carries the queue high-water too: 0 when one worker delivers
  // inline, otherwise at least one and at most the queue's capacity (twice
  // the worker count).
  class NullCornerSink final : public fk::CornerSink {
   public:
    void on_result(std::size_t, fk::CornerResult&&) override {}
  };
  for (const unsigned threads : {1u, 3u}) {
    auto options = demo_options(9);
    options.threads = threads;
    NullCornerSink sink;
    const fe::StreamSummary summary = demo_mc().run(options, sink);
    EXPECT_EQ(summary.delivered, 9u);
    if (threads == 1) {
      EXPECT_EQ(summary.queue_high_water, 0u);
    } else {
      EXPECT_GT(summary.queue_high_water, 0u);
      EXPECT_LE(summary.queue_high_water, 2u * threads);
    }
  }
}

namespace {

/// Records every delivery plus the lifecycle calls, for the stream
/// contract cases below.
class RecordingCornerSink : public fk::CornerSink {
 public:
  void on_start(std::size_t total) override {
    ++starts;
    this->total = total;
  }
  void on_result(std::size_t index, fk::CornerResult&& result) override {
    received.emplace_back(index, std::move(result));
  }
  void on_complete() override { ++completes; }

  std::vector<std::pair<std::size_t, fk::CornerResult>> received;
  std::size_t total = 0;
  int starts = 0;
  int completes = 0;
};

}  // namespace

TEST(MonteCarlo, ThrowingOnStartDiscardsEverythingButStillCompletes) {
  // The lifecycle closes even when on_start threw, inline (threads 1) and
  // through the queue (threads 3).
  class BadStartSink final : public RecordingCornerSink {
   public:
    void on_start(std::size_t) override {
      throw std::runtime_error("refused to start");
    }
  };
  for (const unsigned threads : {1u, 3u}) {
    auto options = demo_options(6);
    options.threads = threads;
    BadStartSink sink;
    const auto summary = demo_mc().run(options, sink);
    EXPECT_FALSE(summary.ok());
    EXPECT_EQ(summary.sink_error.code, fe::ErrorCode::kSinkError);
    EXPECT_EQ(summary.sink_error_count, 1u);
    EXPECT_EQ(summary.delivered, 0u);
    EXPECT_EQ(summary.discarded_deliveries, 6u);
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(sink.completes, 1) << "threads " << threads;
  }
}

TEST(MonteCarlo, ThrowingSinkLosesOneDeliveryAndCompletes) {
  class ThrowingSink final : public RecordingCornerSink {
   public:
    void on_result(std::size_t index, fk::CornerResult&& result) override {
      if (++attempts == 3) throw std::runtime_error("sink exploded");
      RecordingCornerSink::on_result(index, std::move(result));
    }
    std::size_t attempts = 0;
  };
  for (const unsigned threads : {1u, 3u}) {
    auto options = demo_options(8);
    options.threads = threads;
    options.chunk = 2;
    ThrowingSink sink;
    const auto summary = demo_mc().run(options, sink);
    EXPECT_FALSE(summary.ok());
    EXPECT_EQ(summary.sink_error.code, fe::ErrorCode::kSinkError);
    EXPECT_NE(summary.sink_error.detail.find("sink exploded"),
              std::string::npos)
        << summary.sink_error;
    EXPECT_EQ(summary.sink_error_count, 1u);
    EXPECT_EQ(summary.discarded_deliveries, 1u);
    EXPECT_EQ(summary.delivered, 7u);
    EXPECT_EQ(sink.attempts, 8u);  // later corners were still offered
    EXPECT_EQ(sink.received.size(), 7u);
    EXPECT_EQ(sink.completes, 1) << "threads " << threads;
  }
}

TEST(MonteCarlo, EmptySweepStillRunsTheSinkLifecycle) {
  for (const unsigned threads : {1u, 3u}) {
    auto options = demo_options(0);
    options.threads = threads;
    RecordingCornerSink sink;
    const auto summary = demo_mc().run(options, sink);
    EXPECT_TRUE(summary.ok());
    EXPECT_EQ(summary.delivered, 0u);
    EXPECT_EQ(sink.starts, 1);
    EXPECT_EQ(sink.completes, 1);
    EXPECT_EQ(sink.total, 0u);
  }
}

TEST(MonteCarlo, ParallelCancellationMidStreamStaysAccounted) {
  // Workers, queue, consumer and a cancel fired from inside the sink all
  // race: whatever finishes finishes, but every corner is delivered once
  // and the summary's cancelled count is the kCancelled results received.
  class CancellingSink final : public RecordingCornerSink {
   public:
    explicit CancellingSink(fe::CancelToken token) : token_(std::move(token)) {}
    void on_result(std::size_t index, fk::CornerResult&& result) override {
      token_.cancel();
      RecordingCornerSink::on_result(index, std::move(result));
    }

   private:
    fe::CancelToken token_;
  };
  auto options = demo_options(24);
  options.threads = 3;
  options.chunk = 1;
  CancellingSink sink(options.limits.cancel);
  const auto summary = demo_mc().run(options, sink);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.delivered, 24u);
  EXPECT_EQ(sink.starts, 1);
  EXPECT_EQ(sink.completes, 1);
  std::size_t cancelled = 0;
  for (const auto& [index, result] : sink.received) {
    EXPECT_EQ(result.index, index);
    if (result.ok()) continue;
    EXPECT_EQ(result.error.code, fe::ErrorCode::kCancelled) << index;
    ++cancelled;
  }
  EXPECT_EQ(summary.cancelled_jobs, cancelled);
  EXPECT_EQ(summary.failed_jobs, 0u);
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(summary.stop.code, fe::ErrorCode::kCancelled);
}

TEST(MonteCarlo, OrderedStreamingMatchesCollect) {
  auto options = demo_options(8);
  options.threads = 4;
  options.chunk = 1;
  const auto collected = demo_mc().run(options);

  fk::CornerCollectingSink collecting;
  fk::CornerOrderedSink ordered(collecting);
  const auto summary = demo_mc().run(options, ordered);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(collecting.results().size(), collected.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(collecting.results()[i], collected[i]))
        << "corner " << i;
  }
}

TEST(MonteCarlo, ProbeSummariesMatchWaveforms) {
  auto options = demo_options(2);
  options.record_waveforms = true;
  const auto results = demo_mc().run(options);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    for (std::size_t p = 0; p < r.probes.size(); ++p) {
      const auto& wave = r.waveforms[p];
      ASSERT_FALSE(wave.empty());
      double lo = wave[0], hi = wave[0], peak = 0.0;
      for (const double v : wave) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        peak = std::max(peak, std::fabs(v));
      }
      EXPECT_EQ(r.probes[p].min, lo);
      EXPECT_EQ(r.probes[p].max, hi);
      EXPECT_EQ(r.probes[p].abs_peak, peak);
      EXPECT_EQ(r.probes[p].final, wave.back());
    }
  }
}
