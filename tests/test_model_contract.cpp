// Model-contract conformance suite: the properties every backend behind
// mag::HysteresisModel must satisfy (determinism, reset-equals-fresh,
// virgin state, bounded magnetisation), instantiated for TimelessJa and
// EnergyBased, plus the contract's planning-layer half — ModelSpec
// validation rules, result tagging, scalar-vs-SoA parity, and bitwise
// identity of mixed JA + energy batches across run / packed run /
// packed-streaming at several thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/frontend_plan.hpp"
#include "core/result_sink.hpp"
#include "core/scenario.hpp"
#include "mag/bh.hpp"
#include "mag/energy_based.hpp"
#include "mag/energy_based_batch.hpp"
#include "mag/model.hpp"
#include "mag/timeless_ja.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fc = ferro::core;
namespace fw = ferro::wave;
namespace ts = ferro::testsupport;

namespace {

// Per-model factory so the typed suite below can instantiate either
// backend in a representative configuration.
template <typename M>
struct Factory;

template <>
struct Factory<fm::TimelessJa> {
  static fm::TimelessJa make() {
    return fm::TimelessJa(fm::paper_parameters(), ts::paper_config());
  }
  static constexpr fm::ModelKind kExpectedKind = fm::ModelKind::kJilesAtherton;
};

template <>
struct Factory<fm::EnergyBased> {
  static fm::EnergyBased make() {
    return fm::EnergyBased(fm::energy_reference_parameters());
  }
  static constexpr fm::ModelKind kExpectedKind = fm::ModelKind::kEnergyBased;
};

void expect_bitwise_equal(const fm::BhCurve& a, const fm::BhCurve& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].h, b.points()[i].h) << "point " << i;
    EXPECT_EQ(a.points()[i].m, b.points()[i].m) << "point " << i;
    EXPECT_EQ(a.points()[i].b, b.points()[i].b) << "point " << i;
  }
}

template <typename M>
class ModelContract : public ::testing::Test {};

using ContractModels = ::testing::Types<fm::TimelessJa, fm::EnergyBased>;
TYPED_TEST_SUITE(ModelContract, ContractModels);

}  // namespace

TYPED_TEST(ModelContract, SatisfiesTheConcept) {
  static_assert(fm::HysteresisModel<TypeParam>);
  EXPECT_EQ(TypeParam::kind(), Factory<TypeParam>::kExpectedKind);
  EXPECT_FALSE(fm::to_string(TypeParam::kind()).empty());
}

TYPED_TEST(ModelContract, VirginStateIsDemagnetised) {
  TypeParam model = Factory<TypeParam>::make();
  EXPECT_EQ(model.magnetisation(), 0.0);
  EXPECT_EQ(model.flux_density(), 0.0);
}

TYPED_TEST(ModelContract, ReplayIsDeterministicBitwise) {
  const fw::HSweep sweep = ts::major_loop(20.0, 2);
  TypeParam first = Factory<TypeParam>::make();
  TypeParam second = Factory<TypeParam>::make();
  expect_bitwise_equal(fm::run_sweep(first, sweep),
                       fm::run_sweep(second, sweep));
}

TYPED_TEST(ModelContract, ResetRestoresTheVirginStateBitwise) {
  const fw::HSweep sweep = ts::major_loop(20.0, 2);
  TypeParam model = Factory<TypeParam>::make();
  const fm::BhCurve fresh = fm::run_sweep(model, sweep);
  model.reset();
  EXPECT_EQ(model.magnetisation(), 0.0);
  expect_bitwise_equal(fm::run_sweep(model, sweep), fresh);
}

TYPED_TEST(ModelContract, MagnetisationStaysBounded) {
  TypeParam model = Factory<TypeParam>::make();
  double peak = 0.0;
  for (const double h : {1e5, -1e6, 1e7, -1e7, 0.0}) {
    peak = std::max(peak, std::fabs(model.apply(h)));
  }
  EXPECT_LE(peak, 1.0 + 1e-12);
}

TYPED_TEST(ModelContract, CurveStaysFiniteOnFiniteDrive) {
  TypeParam model = Factory<TypeParam>::make();
  const fm::BhCurve curve = fm::run_sweep(model, ts::major_loop(50.0, 1));
  EXPECT_EQ(fc::first_non_finite(curve), curve.size());
}

// ---------------------------------------------------------------------------
// Scenario-level contract: validation rules and result tagging per model.
// ---------------------------------------------------------------------------

namespace {

fc::Scenario ja_scenario(const std::string& name,
                         fc::Frontend frontend = fc::Frontend::kDirect) {
  fc::Scenario s;
  s.name = name;
  s.model = fc::JaSpec{fm::paper_parameters(), ts::paper_config()};
  s.drive = ts::major_loop(25.0, 2);
  s.frontend = frontend;
  return s;
}

fc::Scenario energy_scenario(const std::string& name) {
  fc::Scenario s;
  s.name = name;
  s.model = fc::EnergySpec{fm::energy_reference_parameters()};
  s.drive = ts::major_loop(25.0, 2);
  return s;
}

}  // namespace

TEST(ModelSpecContract, NaNDriveIsRejectedForBothModels) {
  for (auto scenario : {ja_scenario("ja"), energy_scenario("energy")}) {
    std::get<fw::HSweep>(scenario.drive).h[3] = std::nan("");
    const fc::Error error = fc::validate(scenario);
    EXPECT_EQ(error.code, fc::ErrorCode::kInvalidScenario) << scenario.name;
  }
}

TEST(ModelSpecContract, InvalidEnergyParametersRejectedBeforeDispatch) {
  fc::Scenario s = energy_scenario("bad");
  s.energy().params.kappa_max = -1.0;
  EXPECT_EQ(fc::validate(s).code, fc::ErrorCode::kInvalidScenario);
  const fc::ScenarioResult result = fc::run_scenario(s);
  EXPECT_EQ(result.error.code, fc::ErrorCode::kInvalidScenario);
  EXPECT_EQ(result.model, fm::ModelKind::kEnergyBased);
}

TEST(ModelSpecContract, EnergyModelIsDirectFrontendOnly) {
  for (const auto frontend : {fc::Frontend::kSystemC, fc::Frontend::kAms}) {
    fc::Scenario s = energy_scenario("wrong-frontend");
    s.frontend = frontend;
    EXPECT_EQ(fc::validate(s).code, fc::ErrorCode::kInvalidScenario);
  }
  EXPECT_TRUE(fc::validate(energy_scenario("direct")).ok());
}

TEST(ModelSpecContract, EnergyModelRejectsFluxDrive) {
  fc::Scenario s = energy_scenario("flux");
  s.drive = fc::FluxDrive{{0.0, 0.5, 1.0}};
  EXPECT_EQ(fc::validate(s).code, fc::ErrorCode::kInvalidScenario);
}

TEST(ModelSpecContract, DynamicEnergyTermNeedsATimeDrive) {
  fc::Scenario s = energy_scenario("dynamic");
  s.energy().params.tau_dyn = 1e-4;
  EXPECT_EQ(fc::validate(s).code, fc::ErrorCode::kInvalidScenario);

  fc::TimeDrive drive;
  drive.waveform = std::make_shared<fw::Triangular>(10e3, 0.02);
  drive.t0 = 0.0;
  drive.t1 = 0.04;
  drive.n_samples = 2000;
  s.drive = drive;
  EXPECT_TRUE(fc::validate(s).ok());
  const fc::ScenarioResult result = fc::run_scenario(s);
  ASSERT_TRUE(result.ok()) << result.error.message();
  EXPECT_GT(result.energy_stats.dissipated_energy, 0.0);
  // The dynamic term needs per-sample dt, so this scenario must not pack.
  EXPECT_EQ(fc::plan_route(s), fc::PlanRoute::kFallback);
}

TEST(ModelSpecContract, ResultsCarryTheProducingModelTag) {
  const fc::ScenarioResult ja = fc::run_scenario(ja_scenario("ja"));
  ASSERT_TRUE(ja.ok());
  EXPECT_EQ(ja.model, fm::ModelKind::kJilesAtherton);
  EXPECT_GT(ja.stats.samples, 0u);
  EXPECT_EQ(ja.energy_stats.samples, 0u);

  const fc::ScenarioResult energy = fc::run_scenario(energy_scenario("en"));
  ASSERT_TRUE(energy.ok());
  EXPECT_EQ(energy.model, fm::ModelKind::kEnergyBased);
  EXPECT_GT(energy.energy_stats.samples, 0u);
  EXPECT_GT(energy.energy_stats.dissipated_energy, 0.0);
  EXPECT_EQ(energy.stats.samples, 0u);
}

TEST(ModelSpecContract, QuasiStaticEnergySweepIsPackable) {
  EXPECT_NE(fc::plan_route(energy_scenario("packable")),
            fc::PlanRoute::kFallback);
}

TEST(ModelSpecContract, SpecSpanOverloadMixesBackends) {
  const std::vector<fc::ModelSpec> specs = {
      fc::JaSpec{fm::paper_parameters(), ts::paper_config()},
      fc::EnergySpec{fm::energy_reference_parameters()},
  };
  const auto scenarios =
      fc::scenarios_for_parameters(specs, ts::major_loop(25.0, 1), "mix/");
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].kind(), fm::ModelKind::kJilesAtherton);
  EXPECT_EQ(scenarios[1].kind(), fm::ModelKind::kEnergyBased);
  EXPECT_EQ(scenarios[0].name, "mix/0");
}

// ---------------------------------------------------------------------------
// Scalar vs SoA parity: the energy batch kernel executes the same inline
// play update as the scalar model, so lanes must match bitwise.
// ---------------------------------------------------------------------------

TEST(EnergyBatchParity, LanesMatchScalarModelsBitwise) {
  std::vector<fm::EnergyBasedParams> lane_params;
  for (int i = 0; i < 5; ++i) {
    fm::EnergyBasedParams p = fm::energy_reference_parameters();
    p.kappa_max = 2000.0 + 800.0 * i;
    p.cells = 4 + i;  // ragged cell counts across lanes
    p.pinning_decay = 0.5 * i;
    lane_params.push_back(p);
  }

  fm::EnergyBasedBatch batch;
  std::vector<fw::HSweep> sweeps;
  std::vector<const fw::HSweep*> sweep_ptrs;
  for (std::size_t i = 0; i < lane_params.size(); ++i) {
    batch.add_lane(lane_params[i]);
    // Ragged lengths: lane i sweeps a different amplitude and count.
    sweeps.push_back(
        fw::SweepBuilder(20.0).cycles(6e3 + 1e3 * i, 1 + (i % 2)).build());
  }
  for (const auto& s : sweeps) sweep_ptrs.push_back(&s);

  std::vector<fm::BhCurve> curves;
  batch.run(sweep_ptrs, curves);
  ASSERT_EQ(curves.size(), lane_params.size());

  for (std::size_t i = 0; i < lane_params.size(); ++i) {
    fm::EnergyBased scalar(lane_params[i]);
    const fm::BhCurve reference = fm::run_sweep(scalar, sweeps[i]);
    expect_bitwise_equal(curves[i], reference);
    EXPECT_EQ(batch.stats(i).samples, scalar.stats().samples);
    EXPECT_EQ(batch.stats(i).cell_updates, scalar.stats().cell_updates);
    EXPECT_EQ(batch.stats(i).pinned_samples, scalar.stats().pinned_samples);
    EXPECT_EQ(batch.stats(i).dissipated_energy,
              scalar.stats().dissipated_energy);
    EXPECT_EQ(batch.magnetisation(i), scalar.magnetisation());
    EXPECT_EQ(batch.flux_density(i), scalar.flux_density());
  }
}

TEST(EnergyBatchParity, SupportsGatesOnTheDynamicTerm) {
  EXPECT_TRUE(fm::EnergyBasedBatch::supports(fm::energy_reference_parameters()));
  fm::EnergyBasedParams dynamic = fm::energy_reference_parameters();
  dynamic.tau_dyn = 1e-5;
  EXPECT_FALSE(fm::EnergyBasedBatch::supports(dynamic));
}

// ---------------------------------------------------------------------------
// Mixed-batch bitwise identity: run vs packed run vs packed streaming, per
// thread count. This is the acceptance property of the model contract —
// lane grouping by model must not perturb a single bit of any result.
// ---------------------------------------------------------------------------

namespace {

std::vector<fc::Scenario> mixed_workload() {
  std::vector<fc::Scenario> scenarios;
  // All three JA frontends (the kAms lane replays a planner trace)...
  for (const auto frontend : {fc::Frontend::kDirect, fc::Frontend::kSystemC,
                              fc::Frontend::kAms}) {
    fc::Scenario s = ja_scenario(std::string("ja/") +
                                     std::string(fc::to_string(frontend)),
                                 frontend);
    scenarios.push_back(std::move(s));
  }
  // ...interleaved with energy jobs of varying distributions...
  for (int i = 0; i < 3; ++i) {
    fc::Scenario s = energy_scenario("energy/" + std::to_string(i));
    s.energy().params.kappa_max = 2500.0 + 1000.0 * i;
    s.energy().params.cells = 6 + 2 * i;
    scenarios.insert(scenarios.begin() + 1 + i, std::move(s));
  }
  // ...plus one invalid straggler of each model, so error paths keep their
  // slots through every pipeline.
  fc::Scenario bad_ja = ja_scenario("bad/ja");
  bad_ja.ja().config.dhmax = -1.0;
  scenarios.push_back(std::move(bad_ja));
  fc::Scenario bad_energy = energy_scenario("bad/energy");
  bad_energy.energy().params.c_rev = 2.0;
  scenarios.push_back(std::move(bad_energy));
  return scenarios;
}

void expect_results_identical(const fc::ScenarioResult& a,
                              const fc::ScenarioResult& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.error.code, b.error.code);
  expect_bitwise_equal(a.curve, b.curve);
  EXPECT_EQ(a.metrics.b_peak, b.metrics.b_peak);
  EXPECT_EQ(a.metrics.remanence, b.metrics.remanence);
  EXPECT_EQ(a.metrics.coercivity, b.metrics.coercivity);
  EXPECT_EQ(a.metrics.area, b.metrics.area);
  EXPECT_EQ(a.stats.samples, b.stats.samples);
  EXPECT_EQ(a.stats.field_events, b.stats.field_events);
  EXPECT_EQ(a.stats.integration_steps, b.stats.integration_steps);
  EXPECT_EQ(a.stats.slope_clamps, b.stats.slope_clamps);
  EXPECT_EQ(a.stats.direction_clamps, b.stats.direction_clamps);
  EXPECT_EQ(a.energy_stats.samples, b.energy_stats.samples);
  EXPECT_EQ(a.energy_stats.cell_updates, b.energy_stats.cell_updates);
  EXPECT_EQ(a.energy_stats.pinned_samples, b.energy_stats.pinned_samples);
  EXPECT_EQ(a.energy_stats.dissipated_energy,
            b.energy_stats.dissipated_energy);
}

}  // namespace

TEST(MixedBatchParity, RunPackedAndStreamedIdenticalAcrossThreadCounts) {
  const std::vector<fc::Scenario> scenarios = mixed_workload();

  // run_scenario is the reference everything must match.
  const auto reference = ts::run_each(scenarios);
  ASSERT_EQ(reference.size(), scenarios.size());
  // Sanity: the workload exercises both models and both outcomes.
  EXPECT_TRUE(reference[0].ok());
  EXPECT_FALSE(reference[scenarios.size() - 1].ok());

  for (const unsigned threads : {1u, 2u, 4u}) {
    const fc::BatchRunner runner({.threads = threads});
    const std::string label = "threads=" + std::to_string(threads);

    const auto packed = runner.run(scenarios);

    fc::CollectingSink collected;
    const auto summary = runner.run(scenarios, collected);
    EXPECT_TRUE(summary.ok());
    EXPECT_EQ(summary.delivered, scenarios.size());

    ASSERT_EQ(packed.size(), scenarios.size());
    ASSERT_EQ(collected.results().size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::string where = label + " scenario " + scenarios[i].name;
      expect_results_identical(packed[i], reference[i], where + " [packed]");
      expect_results_identical(collected.results()[i], reference[i],
                               where + " [packed-streaming]");
    }
  }
}

TEST(MixedBatchParity, HomogeneousEnergyBatchPacksAndMatches) {
  // A pure-energy sweep is the new SoA fast path; it must reproduce the
  // per-scenario results bitwise, like the JA packed path always has.
  std::vector<fc::Scenario> scenarios;
  for (int i = 0; i < 9; ++i) {
    fc::Scenario s = energy_scenario("sweep/" + std::to_string(i));
    s.energy().params.kappa_max = 1500.0 + 500.0 * i;
    scenarios.push_back(std::move(s));
  }
  const fc::BatchRunner runner({.threads = 2});
  const auto reference = ts::run_each(scenarios);
  const auto packed = runner.run(scenarios, {.packing = fc::Packing::kExact});
  // kFast has no approximate energy lane: still bitwise.
  const auto fast = runner.run(scenarios, {.packing = fc::Packing::kFast});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(reference[i].ok()) << reference[i].error.message();
    expect_results_identical(packed[i], reference[i], "packed " + std::to_string(i));
    expect_results_identical(fast[i], reference[i], "fast " + std::to_string(i));
  }
}
