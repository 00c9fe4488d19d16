// BatchRunner: deterministic ordering, thread-count invariance, serial
// fallback, per-job error capture, and the scenario unit itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/batch_runner.hpp"
#include "core/frontend_plan.hpp"
#include "core/dc_sweep.hpp"
#include "core/result_sink.hpp"
#include "mag/ja_params.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fc = ferro::core;
namespace ts = ferro::testsupport;

namespace {

/// A small heterogeneous workload: every library material, mixed dhmax.
std::vector<fc::Scenario> material_workload(std::size_t count) {
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    fc::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    s.ja().params = material.params;
    s.ja().config.dhmax = (material.params.a + material.params.k) /
                     (200.0 + 50.0 * static_cast<double>(i % 4));
    fw::HSweep sweep = ts::saturating_major_loop(material.params);
    s.metrics_window = fc::MetricsWindow{sweep.size() / 2, sweep.size() - 1};
    s.drive = std::move(sweep);
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

void expect_identical(const std::vector<fc::ScenarioResult>& a,
                      const std::vector<fc::ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].error, b[i].error);
    ASSERT_EQ(a[i].curve.size(), b[i].curve.size()) << a[i].name;
    for (std::size_t j = 0; j < a[i].curve.size(); ++j) {
      const auto& pa = a[i].curve.points()[j];
      const auto& pb = b[i].curve.points()[j];
      // Bitwise equality: scheduling must not reorder any arithmetic.
      ASSERT_EQ(pa.h, pb.h) << a[i].name << " point " << j;
      ASSERT_EQ(pa.m, pb.m) << a[i].name << " point " << j;
      ASSERT_EQ(pa.b, pb.b) << a[i].name << " point " << j;
    }
    EXPECT_EQ(a[i].metrics.area, b[i].metrics.area) << a[i].name;
  }
}

}  // namespace

TEST(BatchRunner, EmptyBatchYieldsEmptyResults) {
  EXPECT_TRUE(fc::BatchRunner().run({}).empty());
}

TEST(BatchRunner, ResultsArriveInScenarioOrder) {
  const auto scenarios = material_workload(12);
  const auto results = fc::BatchRunner({.threads = 4}).run(scenarios);
  ASSERT_EQ(results.size(), scenarios.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].name, scenarios[i].name);
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_GT(results[i].curve.size(), 0u);
    EXPECT_GT(results[i].metrics.area, 0.0);
  }
}

TEST(BatchRunner, ThreadCountInvariance) {
  const auto scenarios = material_workload(16);
  const auto serial = ts::run_each(scenarios);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u, 0u}) {
    const auto parallel = fc::BatchRunner({.threads = threads}).run(scenarios);
    expect_identical(serial, parallel);
  }
}

TEST(BatchRunner, SerialMatchesRunScenario) {
  const auto scenarios = material_workload(4);
  const auto batch = fc::BatchRunner({.threads = 1}).run(scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const fc::ScenarioResult solo = fc::run_scenario(scenarios[i]);
    ASSERT_EQ(solo.curve.size(), batch[i].curve.size());
    for (std::size_t j = 0; j < solo.curve.size(); ++j) {
      EXPECT_EQ(solo.curve.points()[j].b, batch[i].curve.points()[j].b);
    }
  }
}

TEST(BatchRunner, InvalidParametersAreCapturedPerJob) {
  auto scenarios = material_workload(3);
  scenarios[1].ja().params.c = 1.5;  // reversibility must satisfy 0 <= c < 1
  scenarios[1].name = "broken";

  const auto results = fc::BatchRunner({.threads = 2}).run(scenarios);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.detail.find("invalid parameters"), std::string::npos)
      << results[1].error;
  EXPECT_TRUE(results[1].curve.empty());
  EXPECT_TRUE(results[2].ok()) << results[2].error;
}

TEST(BatchRunner, MissingWaveformIsCaptured) {
  fc::Scenario s;
  s.name = "no-waveform";
  s.ja().params = fm::paper_parameters();
  s.drive = fc::TimeDrive{};  // null waveform
  const auto result = fc::run_scenario(s);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.detail.find("waveform"), std::string::npos) << result.error;
}

TEST(BatchRunner, EmptyMetricsWindowIsCaptured) {
  fc::Scenario s;
  s.name = "bad-window";
  s.ja().params = fm::paper_parameters();
  s.ja().config = ts::paper_config();
  s.drive = ts::major_loop(10.0, 1);
  s.metrics_window = fc::MetricsWindow{500, 500};
  const auto result = fc::run_scenario(s);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.detail.find("metrics window"), std::string::npos)
      << result.error;
  // The curve itself still completed before the metrics step failed.
  EXPECT_GT(result.curve.size(), 0u);
}

TEST(BatchRunner, OversizedMetricsWindowIsCapturedNotClamped) {
  // A window that does not fit the produced curve (e.g. sized from the input
  // sweep of a kAms job, whose solver picks its own steps) must surface as a
  // per-job error — silently clamping would compute metrics over the wrong
  // slice.
  fc::Scenario s;
  s.name = "oversized-window";
  s.ja().params = fm::paper_parameters();
  s.ja().config = ts::paper_config();
  const fw::HSweep sweep = ts::major_loop(10.0, 1);
  s.metrics_window = fc::MetricsWindow{0, sweep.size() + 1000};
  s.drive = sweep;
  const auto result = fc::run_scenario(s);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.detail.find("does not fit"), std::string::npos)
      << result.error;
}

TEST(BatchRunner, TimeDrivenScenarioRuns) {
  fc::Scenario s;
  s.name = "triangular";
  s.ja().params = fm::paper_parameters();
  s.ja().config = ts::paper_config();
  s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(10e3, 0.02), 0.0,
                          0.04, 4000};
  const auto result = fc::run_scenario(s);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.curve.size(), 4000u);
  EXPECT_GT(result.metrics.b_peak, 1.0);
}

TEST(BatchRunner, DirectSweepScenarioKeepsStats) {
  fc::Scenario s;
  s.name = "stats";
  s.ja().params = fm::paper_parameters();
  s.ja().config = ts::paper_config();
  s.drive = ts::major_loop(10.0, 2);
  const auto result = fc::run_scenario(s);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.stats.field_events, 0u);
  EXPECT_GT(result.stats.slope_clamps, 0u);
}

TEST(BatchRunner, FrontendsAgreeThroughTheBatchPath) {
  fc::Scenario direct;
  direct.name = "direct";
  direct.ja().params = fm::paper_parameters();
  direct.ja().config = ts::paper_config();
  direct.drive = ts::major_loop(20.0, 1);

  fc::Scenario systemc = direct;
  systemc.name = "systemc";
  systemc.frontend = fc::Frontend::kSystemC;

  const auto results = fc::BatchRunner({.threads = 2}).run({direct, systemc});
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  ASSERT_EQ(results[0].curve.size(), results[1].curve.size());
  for (std::size_t j = 0; j < results[0].curve.size(); ++j) {
    EXPECT_EQ(results[0].curve.points()[j].b, results[1].curve.points()[j].b);
  }
}

TEST(BatchRunner, RunPackedExactMatchesRunBitwise) {
  // A mixed workload: packable kDirect and kSystemC sweeps — time drives
  // are sampled onto the frontend's own uniform grid in their lane blocks
  // and pack too — plus scenarios the planner must refuse (kSystemC with a
  // clamp the process network hard-codes differently, a flux drive,
  // sub-stepping on a sweep frontend, bad parameters). run() (kExact) must
  // reproduce run_scenario bit-for-bit on all of them.
  auto scenarios = material_workload(10);
  scenarios[2].frontend = fc::Frontend::kSystemC;
  scenarios[3].drive = fc::FluxDrive{{0.1, 0.2, 0.3, 0.2, 0.1}};
  scenarios[3].metrics_window.reset();
  scenarios[4].ja().config.substep_max = 50.0;
  scenarios[5].ja().params.c = 1.5;  // invalid -> per-job error via the fallback
  scenarios[6].drive = fc::TimeDrive{std::make_shared<fw::Triangular>(10e3, 0.02),
                                     0.0, 0.04, 2000};
  scenarios[6].metrics_window.reset();
  scenarios[7].frontend = fc::Frontend::kSystemC;
  scenarios[7].ja().config.clamp_negative_slope = false;  // network clamps anyway

  EXPECT_NE(fc::plan_route(scenarios[0]), fc::PlanRoute::kFallback);
  EXPECT_NE(fc::plan_route(scenarios[2]), fc::PlanRoute::kFallback);
  EXPECT_EQ(fc::plan_route(scenarios[3]), fc::PlanRoute::kFallback);
  EXPECT_EQ(fc::plan_route(scenarios[4]), fc::PlanRoute::kFallback);
  EXPECT_EQ(fc::plan_route(scenarios[5]), fc::PlanRoute::kFallback);
  // Sampled in its block.
  EXPECT_NE(fc::plan_route(scenarios[6]), fc::PlanRoute::kFallback);
  EXPECT_EQ(fc::plan_route(scenarios[7]), fc::PlanRoute::kFallback);

  const auto plain = ts::run_each(scenarios);
  for (const unsigned threads : {1u, 3u}) {
    const auto packed = fc::BatchRunner({.threads = threads}).run(scenarios);
    expect_identical(plain, packed);
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].stats.field_events, packed[i].stats.field_events);
      EXPECT_EQ(plain[i].stats.slope_clamps, packed[i].stats.slope_clamps);
    }
  }
}

TEST(BatchRunner, RunPackedAllFallbackMatchesRunBitwise) {
  // A scenario list with NO packable lanes (kSystemC outside the kernel's
  // clamp subset, time-driven kDirect with sub-stepping outside the
  // kernel's lockstep subset): run() must take the pure fallback path for
  // everything and still reproduce run_scenario bit-for-bit.
  auto scenarios = material_workload(6);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i % 2 == 0) {
      scenarios[i].frontend = fc::Frontend::kSystemC;
      // The network hard-codes the direction clamp; a config that says
      // otherwise is not routable (run_scenario ignores the flag either
      // way).
      scenarios[i].ja().config.clamp_direction = false;
    } else {
      const double amp = ts::saturation_amplitude(scenarios[i].ja().params);
      auto& config = scenarios[i].ja().config;
      config.substep_max = config.dhmax / 4.0;
      scenarios[i].drive = fc::TimeDrive{
          std::make_shared<fw::Triangular>(amp, 0.02), 0.0, 0.04, 200};
      scenarios[i].metrics_window.reset();  // sized for the replaced sweep
    }
  }
  for (const auto& s : scenarios) {
    ASSERT_EQ(fc::plan_route(s), fc::PlanRoute::kFallback) << s.name;
  }

  const auto plain = ts::run_each(scenarios);
  for (const auto& r : plain) {
    EXPECT_TRUE(r.ok()) << r.name << ": " << r.error;
  }
  for (const unsigned threads : {1u, 3u}) {
    const auto packed = fc::BatchRunner({.threads = threads}).run(scenarios);
    expect_identical(plain, packed);
  }
}

void expect_stats_identical(const std::vector<fc::ScenarioResult>& a,
                            const std::vector<fc::ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.samples, b[i].stats.samples) << a[i].name;
    EXPECT_EQ(a[i].stats.field_events, b[i].stats.field_events) << a[i].name;
    EXPECT_EQ(a[i].stats.integration_steps, b[i].stats.integration_steps)
        << a[i].name;
    EXPECT_EQ(a[i].stats.slope_clamps, b[i].stats.slope_clamps) << a[i].name;
    EXPECT_EQ(a[i].stats.direction_clamps, b[i].stats.direction_clamps)
        << a[i].name;
  }
}

TEST(BatchRunner, RunPackedMixedDirectAndSystemCMatchesRunBitwise) {
  // The packed path covers the sweep frontends: alternating kDirect /
  // kSystemC sweeps all qualify for the SoA kernel (paper-subset configs,
  // both clamps on), land interleaved in the same lane blocks, and must
  // reproduce run_scenario bit-for-bit — curves, metrics, and stats
  // (kSystemC results carry the module's counters through both paths).
  auto scenarios = material_workload(12);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i % 2 == 1) scenarios[i].frontend = fc::Frontend::kSystemC;
  }
  for (const auto& s : scenarios) {
    EXPECT_NE(fc::plan_route(s), fc::PlanRoute::kFallback) << s.name;
  }

  const auto plain = ts::run_each(scenarios);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_TRUE(plain[i].ok()) << plain[i].error;
    // Non-kDirect frontends report real counters, not defaulted zeros.
    EXPECT_GT(plain[i].stats.samples, 0u) << plain[i].name;
    EXPECT_GT(plain[i].stats.field_events, 0u) << plain[i].name;
  }
  for (const unsigned threads : {1u, 3u}) {
    const auto packed = fc::BatchRunner({.threads = threads}).run(scenarios);
    expect_identical(plain, packed);
    expect_stats_identical(plain, packed);
  }
}

TEST(BatchRunner, RunPackedMixedAllThreeFrontendsMatchesRunBitwise) {
  // The acceptance workload: kDirect, kSystemC, and kAms interleaved —
  // sweep drives and time drives — through run() (kExact). The kAms lanes
  // take the plan/execute pipeline (shared JA-free trajectory solve,
  // planner-trace replay with sub-steps unrolled) and everything must
  // reproduce run_scenario bit-for-bit: curves, metrics, AND stats.
  auto scenarios = material_workload(15);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    switch (i % 3) {
      case 0: break;  // kDirect sweep
      case 1:
        scenarios[i].frontend = fc::Frontend::kSystemC;
        break;
      case 2: {
        scenarios[i].frontend = fc::Frontend::kAms;
        if (i % 2 == 0) {
          // Time drive: the analogue solver places its own steps.
          const double amp = ts::saturation_amplitude(scenarios[i].ja().params);
          scenarios[i].drive = fc::TimeDrive{
              std::make_shared<fw::Triangular>(amp, 0.02), 0.0, 0.04, 200};
        }
        scenarios[i].metrics_window.reset();  // kAms places its own steps
        break;
      }
    }
    EXPECT_NE(fc::plan_route(scenarios[i]), fc::PlanRoute::kFallback)
        << scenarios[i].name;
  }

  const auto plain = ts::run_each(scenarios);
  for (const auto& r : plain) {
    EXPECT_TRUE(r.ok()) << r.name << ": " << r.error;
    EXPECT_GT(r.stats.samples, 0u) << r.name;
  }
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    const auto packed = fc::BatchRunner({.threads = threads}).run(scenarios);
    expect_identical(plain, packed);
    expect_stats_identical(plain, packed);
  }
}

TEST(BatchRunner, RunPackedAmsSharesTrajectoryAcrossMaterials) {
  // 8 materials x one shared sweep excitation: the packed planner must
  // solve the JA-free H(t) ODE once and fan the materials over it, staying
  // bitwise identical to the serial frontend that re-solves per scenario.
  // (The sharing itself is pinned by test_frontend_plan; here we pin that
  // sharing cannot change the results.)
  const auto& library = fm::material_library();
  const fw::HSweep sweep = ts::major_loop(25.0, 1);
  std::vector<fc::Scenario> scenarios;
  for (std::size_t i = 0; i < 8; ++i) {
    fc::Scenario s;
    s.name = "ams#" + std::to_string(i);
    s.ja().params = library[i % library.size()].params;
    s.ja().config.dhmax = 20.0 + 5.0 * static_cast<double>(i % 3);
    s.frontend = fc::Frontend::kAms;
    s.drive = sweep;
    scenarios.push_back(std::move(s));
  }
  const auto plain = ts::run_each(scenarios);
  for (const auto& r : plain) {
    EXPECT_TRUE(r.ok()) << r.name << ": " << r.error;
    EXPECT_GT(r.curve.size(), 2u) << r.name;
  }
  for (const unsigned threads : {1u, 3u}) {
    const auto packed = fc::BatchRunner({.threads = threads}).run(scenarios);
    expect_identical(plain, packed);
    expect_stats_identical(plain, packed);
  }
}

TEST(BatchRunner, RunPackedIsThreadCountInvariant) {
  // Thread count changes the lane-block partition, so this also pins the
  // batch kernel's grouping invariance — in both arithmetic modes (kFast
  // additionally relies on the SIMD-pair/scalar-tail bitwise equality
  // pinned by TimelessJaBatch.FastSimdPairAndScalarTailAgreeBitwise) and
  // across all three frontends, ragged kAms trace lanes included.
  auto scenarios = material_workload(16);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i % 4 == 1) scenarios[i].frontend = fc::Frontend::kSystemC;
    if (i % 4 == 3) {
      scenarios[i].frontend = fc::Frontend::kAms;
      scenarios[i].metrics_window.reset();
    }
  }
  for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
    const auto serial = fc::BatchRunner({.threads = 1})
                            .run(scenarios, {.packing = fc::packing_for(math)});
    for (const unsigned threads : {2u, 3u, 8u, 0u}) {
      const auto parallel =
          fc::BatchRunner({.threads = threads})
              .run(scenarios, {.packing = fc::packing_for(math)});
      expect_identical(serial, parallel);
    }
  }
}

TEST(BatchRunner, RunPackedFastMathStaysNearExact) {
  const auto scenarios = material_workload(6);
  const auto exact = fc::BatchRunner({.threads = 2})
                         .run(scenarios, {.packing = fc::Packing::kExact});
  const auto fast = fc::BatchRunner({.threads = 2})
                        .run(scenarios, {.packing = fc::Packing::kFast});
  ASSERT_EQ(exact.size(), fast.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    ASSERT_TRUE(fast[i].ok()) << fast[i].error;
    ASSERT_EQ(exact[i].curve.size(), fast[i].curve.size());
    const double b_peak = std::fabs(exact[i].metrics.b_peak);
    for (std::size_t j = 0; j < exact[i].curve.size(); ++j) {
      EXPECT_NEAR(exact[i].curve.points()[j].b, fast[i].curve.points()[j].b,
                  1e-3 * std::max(b_peak, 1.0))
          << exact[i].name << " sample " << j;
    }
    // Figures of merit agree to engineering precision.
    EXPECT_NEAR(exact[i].metrics.coercivity, fast[i].metrics.coercivity,
                1e-3 * std::max(1.0, exact[i].metrics.coercivity));
  }
}

TEST(BatchRunner, PersistentPoolSurvivesManyTinyBatches) {
  // Pool stress: the same runner dispatches many small batches of tiny jobs;
  // the persistent pool is constructed once and every batch stays bitwise
  // equal to run_scenario.
  const fc::BatchRunner pooled({.threads = 4});

  std::vector<fc::Scenario> tiny = material_workload(8);
  for (auto& s : tiny) {
    // Shrink each job to a handful of samples so dispatch overhead dominates.
    const double amp = ts::saturation_amplitude(s.ja().params);
    s.drive = fw::SweepBuilder(amp / 8.0).cycles(amp, 1).build();
    s.metrics_window.reset();
  }
  const auto reference = ts::run_each(tiny);
  for (int round = 0; round < 50; ++round) {
    expect_identical(reference, pooled.run(tiny));
  }
}

TEST(BatchRunner, ResolvedThreadsNeverExceedsJobs) {
  const fc::BatchRunner runner({.threads = 8});
  EXPECT_EQ(runner.resolved_threads(3), 3u);
  EXPECT_EQ(runner.resolved_threads(100), 8u);
  EXPECT_EQ(runner.resolved_threads(0), 1u);
  const fc::BatchRunner defaults;
  EXPECT_GE(defaults.resolved_threads(100), 1u);
}

// ---------------------------------------------------------------------------
// Fault tolerance: cancellation, deadlines, error budgets, quarantine, and
// the flux-driven (inverse-solve) scenario path.
// ---------------------------------------------------------------------------

namespace {

/// A waveform that emits NaN: the one way a *valid-looking* scenario can
/// poison a packed lane (validate() rejects non-finite sweep samples, but a
/// time drive is sampled after validation, at planning time).
class NanWaveform final : public fw::Waveform {
 public:
  [[nodiscard]] double value(double) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

/// The unclamped negative-slope regime from test_inverse_ja: alpha*ms > k
/// makes the near-saturation downward solve unbracketable.
fc::Scenario bracket_failure_scenario() {
  fc::Scenario s;
  s.name = "unbracketable";
  s.ja().params = fm::paper_parameters();
  s.ja().params.k = 2000.0;  // coupling_field() = alpha*ms = 4800 > k
  s.ja().config.dhmax = 10.0;
  s.ja().config.substep_max = 25.0;
  s.ja().config.clamp_negative_slope = false;
  s.ja().config.clamp_direction = false;
  fc::FluxDrive drive;
  for (double b = 0.1; b <= 1.3 + 1e-12; b += 0.1) drive.b.push_back(b);
  drive.b.push_back(1.35);
  drive.b.push_back(0.0);  // recedes from every probe: bracket failure
  s.drive = std::move(drive);
  return s;
}

}  // namespace

TEST(BatchRunner, RunWithEmptyLimitsMatchesPlainRun) {
  const auto scenarios = material_workload(6);
  const fc::BatchRunner runner({.threads = 2});
  fc::BatchReport report;
  const auto limited =
      runner.run(scenarios, fc::RunOptions{}, &report);
  expect_identical(ts::run_each(scenarios), limited);
  EXPECT_TRUE(report.completed());
  EXPECT_EQ(report.jobs, scenarios.size());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(BatchRunner, PreCancelledTokenCancelsEveryScenario) {
  const auto scenarios = material_workload(5);
  fc::RunLimits limits;
  limits.cancel.cancel();
  fc::BatchReport report;
  const auto results = fc::BatchRunner({.threads = 2})
                           .run(scenarios, {.limits = limits}, &report);
  ASSERT_EQ(results.size(), scenarios.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].error.code, fc::ErrorCode::kCancelled) << i;
    EXPECT_EQ(results[i].name, scenarios[i].name);  // identity survives
    EXPECT_TRUE(results[i].curve.empty());
  }
  EXPECT_FALSE(report.completed());
  EXPECT_EQ(report.stop.code, fc::ErrorCode::kCancelled);
  EXPECT_EQ(report.cancelled, scenarios.size());
  EXPECT_EQ(report.failed, 0u);
}

TEST(BatchRunner, CancellationMidBatchDeliversPartialResults) {
  // The acceptance scenario: cancel from outside while workers are mid
  // batch. Which scenarios finished is scheduling-dependent; what is NOT
  // negotiable is that every index reports (ok or kCancelled, nothing
  // else), the counters reconcile, and the call returns (no deadlock).
  const auto scenarios = material_workload(64);
  fc::RunLimits limits;
  fc::BatchReport report;
  const fc::BatchRunner runner({.threads = 4});
  std::thread canceller([&limits] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    limits.cancel.cancel();
  });
  const auto results = runner.run(scenarios, {.limits = limits}, &report);
  canceller.join();

  ASSERT_EQ(results.size(), scenarios.size());
  std::size_t ok = 0, cancelled = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++ok;
      EXPECT_GT(r.curve.size(), 0u);  // partial results are COMPLETE results
    } else {
      ASSERT_EQ(r.error.code, fc::ErrorCode::kCancelled) << r.name;
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, scenarios.size());
  EXPECT_EQ(report.cancelled, cancelled);
  EXPECT_EQ(report.failed, 0u);
  if (cancelled > 0) {
    EXPECT_EQ(report.stop.code, fc::ErrorCode::kCancelled);
  }
}

TEST(BatchRunner, ExpiredDeadlineStampsDeadlineExceeded) {
  const auto scenarios = material_workload(4);
  fc::RunLimits limits;
  limits.deadline_s = 1e-9;  // expired by the first poll
  fc::BatchReport report;
  const auto results = fc::BatchRunner({.threads = 1})
                           .run(scenarios, {.limits = limits}, &report);
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fc::ErrorCode::kDeadlineExceeded) << r.name;
  }
  EXPECT_EQ(report.stop.code, fc::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(report.cancelled, scenarios.size());
}

TEST(BatchRunner, ErrorBudgetStopsTheBatch) {
  // One worker makes the budget trip deterministic: scenario 0's invalid
  // parameters send it to a fallback job, which runs before the lane block
  // and trips max_errors=1, so every later scenario is cancelled rather
  // than computed.
  auto scenarios = material_workload(4);
  scenarios[0].ja().params.c = 1.5;  // invalid
  fc::RunLimits limits;
  limits.max_errors = 1;
  fc::BatchReport report;
  const auto results = fc::BatchRunner({.threads = 1})
                           .run(scenarios, {.limits = limits}, &report);
  EXPECT_EQ(results[0].error.code, fc::ErrorCode::kInvalidScenario);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].error.code, fc::ErrorCode::kCancelled) << i;
    EXPECT_NE(results[i].error.detail.find("error budget"), std::string::npos)
        << results[i].error;
  }
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.cancelled, results.size() - 1);
  EXPECT_EQ(report.stop.code, fc::ErrorCode::kCancelled);
}

TEST(BatchRunner, RunPackedHonoursLimits) {
  const auto scenarios = material_workload(6);
  fc::RunLimits limits;
  limits.cancel.cancel();
  fc::BatchReport report;
  const auto results =
      fc::BatchRunner({.threads = 2})
          .run(scenarios, {.packing = fc::Packing::kExact, .limits = limits},
               &report);
  ASSERT_EQ(results.size(), scenarios.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.error.code, fc::ErrorCode::kCancelled) << r.name;
  }
  EXPECT_EQ(report.cancelled, scenarios.size());
}

TEST(BatchRunner, PackedNanScenarioQuarantinesWithoutPoisoningNeighbours) {
  // THE acceptance property: one scenario that goes non-finite inside the
  // packed kernel must surface as a structured per-job error while every
  // healthy lane stays bitwise identical to the baseline — grouping
  // invariance means a NaN lane cannot leak into its SIMD neighbours.
  auto scenarios = material_workload(8);
  const std::size_t nan_at = 3;
  scenarios[nan_at].name = "nan-lane";
  scenarios[nan_at].drive =
      fc::TimeDrive{std::make_shared<NanWaveform>(), 0.0, 0.04, 500};
  scenarios[nan_at].metrics_window.reset();

  for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
    fc::BatchReport report;
    const fc::BatchRunner runner({.threads = 2});
    const auto packed = runner.run(
        scenarios, {.packing = fc::packing_for(math)}, &report);
    ASSERT_EQ(packed.size(), scenarios.size());

    // The poisoned lane: quarantined, retried through the scalar exact
    // path, and diagnosed there — the same verdict run_scenario reaches.
    EXPECT_EQ(packed[nan_at].error.code, fc::ErrorCode::kNonFinite)
        << packed[nan_at].error;
    EXPECT_GE(report.quarantined, 1u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_TRUE(report.completed());  // a lane failure does not stop a batch
    const auto solo = fc::run_scenario(scenarios[nan_at]);
    EXPECT_EQ(solo.error.code, fc::ErrorCode::kNonFinite);

    // Healthy lanes: bitwise equal to the same-math baseline (run_scenario
    // for kExact; for kFast, the packed run of the healthy subset — lane
    // grouping invariance makes the partition irrelevant).
    auto healthy = scenarios;
    healthy.erase(healthy.begin() + static_cast<std::ptrdiff_t>(nan_at));
    const auto baseline =
        math == fm::BatchMath::kExact
            ? ts::run_each(healthy)
            : runner.run(healthy, {.packing = fc::packing_for(math)});
    for (std::size_t i = 0, j = 0; i < packed.size(); ++i) {
      if (i == nan_at) continue;
      ASSERT_TRUE(packed[i].ok()) << packed[i].name << ": " << packed[i].error;
      ASSERT_EQ(packed[i].curve.size(), baseline[j].curve.size());
      for (std::size_t p = 0; p < packed[i].curve.size(); ++p) {
        ASSERT_EQ(packed[i].curve.points()[p].b, baseline[j].curve.points()[p].b)
            << packed[i].name << " point " << p;
      }
      ++j;
    }
  }
}

TEST(BatchRunner, PackedLanesFinishExactlyLikeRun) {
  // run_scenario and the packed lanes finish through one function: the
  // non-finite scan and the loop metrics in a single walk. Packed kExact
  // must reproduce run_scenario bit for bit on every lane and verdict: windowed
  // and whole-curve metrics, a poisoned lane retried through the
  // quarantine, a window that does not fit, and a poisoned lane whose
  // window does not fit either (the non-finite verdict comes first).
  auto scenarios = material_workload(10);
  const auto poison = [&](std::size_t i, std::string name) {
    scenarios[i].name = std::move(name);
    scenarios[i].drive =
        fc::TimeDrive{std::make_shared<NanWaveform>(), 0.0, 0.04, 500};
  };
  poison(2, "nan-lane");
  scenarios[2].metrics_window.reset();
  poison(5, "nan-lane-misfit");
  scenarios[5].metrics_window = fc::MetricsWindow{0, 1'000'000};
  scenarios[7].name = "misfit";
  scenarios[7].metrics_window = fc::MetricsWindow{10, 1'000'000};
  scenarios[8].metrics_window.reset();

  const auto reference = ts::run_each(scenarios);
  EXPECT_EQ(reference[2].error.code, fc::ErrorCode::kNonFinite);
  EXPECT_EQ(reference[5].error.code, fc::ErrorCode::kNonFinite);
  EXPECT_EQ(reference[7].error.code, fc::ErrorCode::kInvalidScenario);
  EXPECT_NE(reference[7].error.detail.find("metrics window"),
            std::string::npos);

  for (const unsigned threads : {1u, 3u}) {
    fc::BatchReport report;
    const auto packed = fc::BatchRunner({.threads = threads})
                            .run(scenarios, {.packing = fc::Packing::kExact},
                                 &report);
    ASSERT_EQ(packed.size(), reference.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      EXPECT_EQ(reference[i].name, packed[i].name);
      EXPECT_EQ(reference[i].error, packed[i].error) << packed[i].name;
      // The poisoned curves carry NaN, which no equality would match.
      ASSERT_EQ(reference[i].curve.size(), packed[i].curve.size());
      if (reference[i].error.code == fc::ErrorCode::kNonFinite) continue;
      for (std::size_t j = 0; j < packed[i].curve.size(); ++j) {
        const auto& pa = reference[i].curve.points()[j];
        const auto& pb = packed[i].curve.points()[j];
        ASSERT_TRUE(pa.h == pb.h && pa.m == pb.m && pa.b == pb.b)
            << packed[i].name << " point " << j;
      }
      const fa::LoopMetrics& a = reference[i].metrics;
      const fa::LoopMetrics& b = packed[i].metrics;
      EXPECT_EQ(a.area, b.area) << packed[i].name;
      EXPECT_EQ(a.h_peak, b.h_peak) << packed[i].name;
      EXPECT_EQ(a.b_peak, b.b_peak) << packed[i].name;
      EXPECT_EQ(a.remanence, b.remanence) << packed[i].name;
      EXPECT_EQ(a.coercivity, b.coercivity) << packed[i].name;
      EXPECT_EQ(a.points, b.points) << packed[i].name;
      EXPECT_EQ(reference[i].stats.field_events, packed[i].stats.field_events)
          << packed[i].name;
    }
    EXPECT_EQ(report.quarantined, 2u) << threads;  // the two poisoned lanes
    EXPECT_EQ(report.failed, 3u) << threads;
  }
}

TEST(BatchRunner, FluxDriveScenarioRunsThroughInverseSolver) {
  fc::Scenario s;
  s.name = "flux-driven";
  s.ja().params = fm::paper_parameters();
  s.ja().config = ts::paper_config();
  fc::FluxDrive drive;
  for (double b = 0.1; b <= 1.2 + 1e-12; b += 0.1) drive.b.push_back(b);
  s.drive = std::move(drive);
  const auto result = fc::run_scenario(s);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.curve.size(), 12u);
  for (std::size_t j = 0; j < result.curve.size(); ++j) {
    // The inverse solve realises each commanded flux to tolerance.
    EXPECT_NEAR(result.curve.points()[j].b, 0.1 * static_cast<double>(j + 1),
                1e-6)
        << "sample " << j;
  }
}

TEST(BatchRunner, FluxDriveBracketFailureSurfacesAsStructuredError) {
  // Satellite: InverseTimelessJa::bracket_failures() wired into the
  // taxonomy — the unbracketable solve reports kBracketFailure (not a
  // generic solver error) and keeps the partial curve up to the failure.
  const fc::Scenario s = bracket_failure_scenario();
  const auto result = fc::run_scenario(s);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, fc::ErrorCode::kBracketFailure);
  EXPECT_NE(result.error.detail.find("bracket"), std::string::npos)
      << result.error;
  // 14 targets converged before the downward one failed.
  EXPECT_EQ(result.curve.size(), 14u);

  // Through the batch (a packed run routes FluxDrive to the fallback path).
  fc::BatchReport report;
  const auto batch =
      fc::BatchRunner({.threads = 2})
          .run({s}, {.packing = fc::Packing::kExact}, &report);
  EXPECT_EQ(batch[0].error.code, fc::ErrorCode::kBracketFailure);
  EXPECT_EQ(report.failed, 1u);
}

TEST(BatchRunner, ValidateRejectsMalformedScenarios) {
  fc::Scenario good = material_workload(1)[0];
  EXPECT_TRUE(fc::validate(good).ok());

  fc::Scenario bad_params = good;
  bad_params.ja().params.c = 1.5;
  EXPECT_EQ(fc::validate(bad_params).code, fc::ErrorCode::kInvalidScenario);

  fc::Scenario bad_config = good;
  bad_config.ja().config.dhmax = 0.0;
  EXPECT_EQ(fc::validate(bad_config).code, fc::ErrorCode::kInvalidScenario);

  fc::Scenario bad_sweep = good;
  fw::HSweep sweep;
  sweep.h.push_back(std::numeric_limits<double>::infinity());
  bad_sweep.drive = std::move(sweep);
  EXPECT_EQ(fc::validate(bad_sweep).code, fc::ErrorCode::kInvalidScenario);

  fc::Scenario bad_time = good;
  bad_time.drive = fc::TimeDrive{};  // null waveform
  EXPECT_EQ(fc::validate(bad_time).code, fc::ErrorCode::kInvalidScenario);

  // A sampled time drive needs both ends of its grid, for every frontend
  // that samples it — every one but kAms, which places its own steps.
  fc::Scenario energy = good;
  energy.model = fc::EnergySpec{fm::energy_reference_parameters()};
  for (fc::Scenario s : {good, energy}) {
    for (const auto frontend : {fc::Frontend::kDirect, fc::Frontend::kSystemC,
                                fc::Frontend::kAms}) {
      if (s.kind() == fm::ModelKind::kEnergyBased &&
          frontend != fc::Frontend::kDirect) {
        continue;  // energy runs the direct frontend only
      }
      s.frontend = frontend;
      s.metrics_window.reset();
      for (const std::size_t n : {0u, 1u, 2u}) {
        s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(1e3, 0.02),
                                0.0, 0.04, n};
        SCOPED_TRACE(std::string(fc::to_string(frontend)) + " " +
                     std::string(fm::to_string(s.kind())) + " n_samples " +
                     std::to_string(n));
        const fc::ScenarioResult solo = fc::run_scenario(s);
        const auto batch = fc::BatchRunner({.threads = 1}).run({s});
        EXPECT_EQ(batch[0].error, solo.error);
        if (n < 2 && frontend != fc::Frontend::kAms) {
          EXPECT_EQ(fc::validate(s).code, fc::ErrorCode::kInvalidScenario);
          EXPECT_EQ(solo.error.code, fc::ErrorCode::kInvalidScenario);
          EXPECT_NE(solo.error.detail.find("n_samples"), std::string::npos)
              << solo.error;
          EXPECT_EQ(fc::plan_route(s), fc::PlanRoute::kFallback);
        } else {
          EXPECT_TRUE(fc::validate(s).ok());
          EXPECT_TRUE(solo.ok()) << solo.error;
        }
      }
    }
  }

  fc::Scenario bad_flux = good;
  bad_flux.frontend = fc::Frontend::kAms;  // FluxDrive is kDirect-only
  bad_flux.drive = fc::FluxDrive{{0.1, 0.2}};
  EXPECT_EQ(fc::validate(bad_flux).code, fc::ErrorCode::kInvalidScenario);
}

// ---------------------------------------------------------------------------
// The fused finish: every packed lane's metrics and non-finite verdict come
// from its kernel's output pass (or, for kAms, the copy of its published
// rows), and the sweep lane blocks scan their own drive samples.
// ---------------------------------------------------------------------------

namespace {

/// Restores the automatic SIMD width when a test that pins one ends.
struct SimdWidthGuard {
  ~SimdWidthGuard() { fm::TimelessJaBatch::force_simd_width(0); }
};

void expect_same_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

/// finish_result applied to the curve a packed lane delivered must
/// reproduce that lane's verdict and metrics bit for bit.
void expect_finished_like_its_curve(const fc::Scenario& s,
                                    const fc::ScenarioResult& packed) {
  fc::ScenarioResult again;
  again.curve = packed.curve;
  fc::finish_result(again, s.metrics_window);
  EXPECT_EQ(again.error, packed.error) << s.name;
  const fa::LoopMetrics& a = again.metrics;
  const fa::LoopMetrics& b = packed.metrics;
  expect_same_bits(b.h_peak, a.h_peak, s.name + " h_peak");
  expect_same_bits(b.b_peak, a.b_peak, s.name + " b_peak");
  expect_same_bits(b.remanence, a.remanence, s.name + " remanence");
  expect_same_bits(b.coercivity, a.coercivity, s.name + " coercivity");
  expect_same_bits(b.area, a.area, s.name + " area");
  EXPECT_EQ(b.points, a.points) << s.name;
}

/// `count` JA sweep lanes with ragged lengths (1-, 2- and 3-point curves,
/// curves starting and ending on exact zeros of h and b, minor loops), each
/// with its own metrics window — whole curve, [k, n-1], [0, k], or one
/// that does not fit — plus energy and kAms lanes on the same windows.
std::vector<fc::Scenario> finish_workload(std::size_t count) {
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = ts::saturation_amplitude(material.params);
    fw::HSweep sweep;
    switch (i % 6) {
      case 0: sweep.h = {0.0}; break;
      case 1: sweep.h = {0.0, 0.0}; break;
      case 2: sweep.h = {0.0, 0.5 * amp, 0.0}; break;
      case 3:
        sweep = fw::SweepBuilder(amp / (40.0 + static_cast<double>(i)))
                    .cycles(amp, 1)
                    .to(0.0)
                    .build();
        break;
      case 4:
        sweep = fw::SweepBuilder(amp / 60.0)
                    .to(amp)
                    .to(0.3 * amp)
                    .minor_loop(0.2 * amp, 0.1 * amp, 2)
                    .build();
        break;
      default:
        sweep = fw::SweepBuilder(amp / (30.0 + static_cast<double>(i)))
                    .cycles(amp, 2)
                    .build();
        break;
    }
    const std::size_t n = sweep.size();
    fc::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    s.ja().params = material.params;
    s.ja().config.dhmax = amp / (90.0 + 10.0 * static_cast<double>(i % 3));
    switch (i % 5) {
      case 0: break;  // whole curve
      case 1: s.metrics_window = fc::MetricsWindow{n / 3, n - 1}; break;
      case 2: s.metrics_window = fc::MetricsWindow{0, n / 2}; break;
      case 3: s.metrics_window = fc::MetricsWindow{1, n + 4}; break;  // misfit
      default: s.metrics_window = fc::MetricsWindow{n / 4, (3 * n) / 4}; break;
    }
    s.drive = std::move(sweep);
    if (i % 7 == 3) s.frontend = fc::Frontend::kSystemC;
    scenarios.push_back(std::move(s));
  }
  for (std::size_t e = 0; e < 3; ++e) {
    fc::Scenario s = scenarios[(e * 5 + 3) % scenarios.size()];
    s.name = "energy#" + std::to_string(e);
    s.frontend = fc::Frontend::kDirect;
    s.model = fc::EnergySpec{fm::energy_reference_parameters()};
    scenarios.push_back(std::move(s));
  }
  for (std::size_t a = 0; a < 2; ++a) {
    fc::Scenario s;
    s.name = "ams#" + std::to_string(a);
    s.ja().params = fm::paper_parameters();
    s.ja().config = ts::paper_config();
    s.frontend = fc::Frontend::kAms;
    s.drive = ts::major_loop(40.0 + 20.0 * static_cast<double>(a), 1);
    if (a == 1) s.metrics_window = fc::MetricsWindow{3, 40};
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

TEST(BatchRunner, PackedLaneMetricsAreFinishResultsOfTheirOwnCurves) {
  const SimdWidthGuard restore;
  for (const int width : fm::TimelessJaBatch::available_simd_widths()) {
    ASSERT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    // Blocks of 1, 15, 16 and 17 sweep lanes: a lone lane, a block one
    // short of two W = 8 tiles, exactly two, and two plus a scalar tail.
    for (const std::size_t count : {1u, 15u, 16u, 17u}) {
      const auto scenarios = finish_workload(count);
      for (const auto packing : {fc::Packing::kExact, fc::Packing::kFast}) {
        SCOPED_TRACE("width " + std::to_string(width) + ", " +
                     std::to_string(count) + " lanes, " +
                     (packing == fc::Packing::kFast ? "kFast" : "kExact"));
        fc::BatchReport report;
        const auto packed = fc::BatchRunner({.threads = 1})
                                .run(scenarios, {.packing = packing}, &report);
        ASSERT_EQ(packed.size(), scenarios.size());
        std::size_t misfits = 0;
        for (std::size_t i = 0; i < packed.size(); ++i) {
          expect_finished_like_its_curve(scenarios[i], packed[i]);
          if (!packed[i].ok()) ++misfits;
        }
        EXPECT_EQ(report.quarantined, 0u);
        EXPECT_EQ(report.failed, misfits);
        if (packing == fc::Packing::kExact) {
          // And the exact lanes are run_scenario's results, verdicts
          // included.
          const auto reference = ts::run_each(scenarios);
          for (std::size_t i = 0; i < packed.size(); ++i) {
            EXPECT_EQ(reference[i].error, packed[i].error) << packed[i].name;
            expect_same_bits(packed[i].metrics.area, reference[i].metrics.area,
                             packed[i].name + " area vs run_scenario");
          }
        }
      }
    }
  }
}

TEST(BatchRunner, NonFiniteSweepSamplesAreRejectedInTheirLaneBlocks) {
  // NaN and +Inf drive samples in kDirect, kSystemC, energy and kAms sweep
  // lanes, next to healthy lanes of the same tiles: each bad lane reports
  // validate()'s verdict, nothing is quarantined, and every healthy lane is
  // bitwise what it is without the bad ones around.
  auto scenarios = finish_workload(17);
  const auto poison = [&](std::size_t i, double value) {
    auto& sweep = std::get<fw::HSweep>(scenarios[i].drive);
    sweep.h[sweep.size() / 2] = value;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::size_t> bad = {5, 9, 10, 17, 20};
  ASSERT_EQ(scenarios[10].frontend, fc::Frontend::kSystemC);
  ASSERT_EQ(scenarios[17].kind(), fm::ModelKind::kEnergyBased);
  ASSERT_EQ(scenarios[20].frontend, fc::Frontend::kAms);
  poison(5, nan);
  poison(9, inf);
  poison(10, nan);
  poison(17, inf);
  poison(20, nan);

  std::vector<fc::Scenario> healthy;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (std::find(bad.begin(), bad.end(), i) == bad.end()) {
      healthy.push_back(scenarios[i]);
    }
  }
  for (const auto packing : {fc::Packing::kExact, fc::Packing::kFast}) {
    for (const unsigned threads : {1u, 3u}) {
      const fc::BatchRunner runner({.threads = threads});
      fc::BatchReport report;
      const auto packed =
          runner.run(scenarios, {.packing = packing}, &report);
      fc::BatchReport healthy_report;
      const auto baseline =
          runner.run(healthy, {.packing = packing}, &healthy_report);
      ASSERT_EQ(packed.size(), scenarios.size());
      for (std::size_t i = 0, j = 0; i < packed.size(); ++i) {
        if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
          const fc::ScenarioResult solo = fc::run_scenario(scenarios[i]);
          EXPECT_EQ(solo.error.code, fc::ErrorCode::kInvalidScenario);
          EXPECT_EQ(packed[i].error, solo.error) << packed[i].name;
          EXPECT_TRUE(packed[i].curve.empty());
          continue;
        }
        const fc::ScenarioResult& want = baseline[j++];
        EXPECT_EQ(packed[i].error, want.error) << packed[i].name;
        ASSERT_EQ(packed[i].curve.size(), want.curve.size()) << packed[i].name;
        for (std::size_t p = 0; p < want.curve.size(); ++p) {
          const auto& x = packed[i].curve.points()[p];
          const auto& y = want.curve.points()[p];
          ASSERT_TRUE(x.h == y.h && x.m == y.m && x.b == y.b)
              << packed[i].name << " point " << p;
        }
        expect_same_bits(packed[i].metrics.area, want.metrics.area,
                         packed[i].name + " area");
      }
      EXPECT_EQ(report.failed, healthy_report.failed + bad.size()) << threads;
      EXPECT_EQ(report.quarantined, 0u) << threads;
      EXPECT_EQ(report.cancelled, 0u) << threads;

      // Streamed: the same verdicts, nothing quarantined, and every result
      // bitwise run()'s.
      fc::CollectingSink sink;
      const auto summary = runner.run(scenarios, sink, {.packing = packing});
      EXPECT_TRUE(summary.ok()) << summary.sink_error;
      EXPECT_EQ(summary.failed_jobs, report.failed) << threads;
      EXPECT_EQ(summary.quarantined, 0u) << threads;
      const auto& streamed = sink.results();
      ASSERT_EQ(streamed.size(), packed.size());
      for (std::size_t i = 0; i < packed.size(); ++i) {
        EXPECT_EQ(streamed[i].error, packed[i].error) << packed[i].name;
        ASSERT_EQ(streamed[i].curve.size(), packed[i].curve.size())
            << packed[i].name;
        for (std::size_t p = 0; p < packed[i].curve.size(); ++p) {
          const auto& x = streamed[i].curve.points()[p];
          const auto& y = packed[i].curve.points()[p];
          ASSERT_TRUE(x.h == y.h && x.m == y.m && x.b == y.b)
              << packed[i].name << " point " << p;
        }
        expect_same_bits(streamed[i].metrics.area, packed[i].metrics.area,
                         packed[i].name + " streamed area");
      }
    }
  }
}

TEST(BatchRunner, PackedErrorBudgetBooksAnInvalidLaneWhenItsBlockRuns) {
  // run() books an invalid scenario when its unit runs: a non-finite sample
  // is found by its lane block, which finishes its other lanes; the budget
  // then stops every unit after it. One worker and identical lanes make the
  // blocks [0, lane_block()) and the rest.
  const std::size_t block = fc::BatchRunner::lane_block();
  std::vector<fc::Scenario> scenarios(block + 3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "lane#" + std::to_string(i);
    scenarios[i].ja().params = fm::paper_parameters();
    scenarios[i].ja().config = ts::paper_config();
    scenarios[i].drive = ts::major_loop(50.0, 1);
  }
  std::get<fw::HSweep>(scenarios[1].drive).h[5] =
      std::numeric_limits<double>::quiet_NaN();

  fc::RunLimits limits;
  limits.max_errors = 1;
  fc::BatchReport report;
  const auto results =
      fc::BatchRunner({.threads = 1})
          .run(scenarios, {.packing = fc::Packing::kExact, .limits = limits},
               &report);
  ASSERT_EQ(results.size(), scenarios.size());
  EXPECT_EQ(results[1].error, fc::run_scenario(scenarios[1]).error);
  for (std::size_t i = 0; i < block; ++i) {
    if (i != 1) EXPECT_TRUE(results[i].ok()) << i << ": " << results[i].error;
  }
  for (std::size_t i = block; i < results.size(); ++i) {
    EXPECT_EQ(results[i].error.code, fc::ErrorCode::kCancelled) << i;
    EXPECT_NE(results[i].error.detail.find("error budget"), std::string::npos)
        << results[i].error;
  }
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.cancelled, 3u);
  EXPECT_EQ(report.stop.code, fc::ErrorCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Time drives: each lane block samples its TimeDrive lanes on the worker,
// just before its kernel reads them.
// ---------------------------------------------------------------------------

namespace {

class ThrowingWaveform final : public fw::Waveform {
 public:
  [[nodiscard]] double value(double) const override {
    throw std::runtime_error("waveform exploded");
  }
};

/// Two lane blocks and a ragged third of time drives: kDirect and kSystemC
/// JA lanes over every library material with ragged n_samples and mixed
/// metrics windows, quasi-static energy lanes, and at kThrowAt a kDirect
/// lane whose waveform throws while its block samples it.
constexpr std::size_t kThrowAt = 7;

std::vector<fc::Scenario> time_drive_workload() {
  const auto& library = fm::material_library();
  const std::size_t count = 2 * fc::BatchRunner::lane_block() + 5;
  std::vector<fc::Scenario> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = ts::saturation_amplitude(material.params);
    const std::size_t n = 300 + 37 * (i % 5);
    fc::Scenario s;
    s.name = "time#" + std::to_string(i);
    s.ja().params = material.params;
    s.ja().config.dhmax = amp / (120.0 + 20.0 * static_cast<double>(i % 3));
    if (i % 3 == 1) s.frontend = fc::Frontend::kSystemC;
    if (i % 5 == 4) {
      s.model = fc::EnergySpec{fm::energy_reference_parameters()};
      s.frontend = fc::Frontend::kDirect;
    }
    s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(amp, 0.02), 0.0,
                            0.04, n};
    if (i % 4 == 2) s.metrics_window = fc::MetricsWindow{n / 2, n - 1};
    scenarios.push_back(std::move(s));
  }
  scenarios[kThrowAt].name = "throwing";
  scenarios[kThrowAt].frontend = fc::Frontend::kDirect;
  std::get<fc::TimeDrive>(scenarios[kThrowAt].drive).waveform =
      std::make_shared<ThrowingWaveform>();
  return scenarios;
}

void expect_energy_stats_identical(const std::vector<fc::ScenarioResult>& a,
                                   const std::vector<fc::ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].energy_stats.samples, b[i].energy_stats.samples);
    EXPECT_EQ(a[i].energy_stats.cell_updates, b[i].energy_stats.cell_updates);
    expect_same_bits(a[i].energy_stats.dissipated_energy,
                     b[i].energy_stats.dissipated_energy,
                     a[i].name + " dissipated energy");
  }
}

}  // namespace

TEST(BatchRunner, TimeDriveLanesMatchRunScenarioAtEveryWidthAndThreadCount) {
  const SimdWidthGuard restore;
  const auto scenarios = time_drive_workload();
  const auto reference = ts::run_each(scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    // Routing never samples, so the throwing lane packs like the rest.
    EXPECT_NE(fc::plan_route(scenarios[i]), fc::PlanRoute::kFallback)
        << scenarios[i].name;
    if (i == kThrowAt) continue;
    ASSERT_TRUE(reference[i].ok()) << reference[i].name << ": "
                                   << reference[i].error;
  }
  EXPECT_EQ(reference[kThrowAt].error.code, fc::ErrorCode::kSolverDiverged);
  EXPECT_NE(reference[kThrowAt].error.detail.find("waveform exploded"),
            std::string::npos);

  for (const int width : fm::TimelessJaBatch::available_simd_widths()) {
    ASSERT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    for (const unsigned threads : {1u, 3u, 0u}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", threads " +
                   std::to_string(threads));
      const fc::BatchRunner runner({.threads = threads});
      fc::BatchReport report;
      const auto packed = runner.run(scenarios, {}, &report);
      expect_identical(reference, packed);
      expect_stats_identical(reference, packed);
      expect_energy_stats_identical(reference, packed);
      EXPECT_EQ(report.failed, 1u);
      EXPECT_EQ(report.quarantined, 0u);

      fc::CollectingSink sink;
      const auto summary = runner.run(scenarios, sink);
      EXPECT_EQ(summary.delivered, scenarios.size());
      EXPECT_EQ(summary.failed_jobs, 1u);
      expect_identical(reference, sink.results());
      expect_stats_identical(reference, sink.results());
    }
  }
}
