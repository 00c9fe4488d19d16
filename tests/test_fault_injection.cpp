// Deterministic fault injection (core/fault_injection.hpp): the injector's
// own arm/fire semantics run in every build; the engine-integration tests —
// throws, poison, and stalls at the instrumented sites driving the batch
// engines' drain/quarantine/accounting contracts (BatchRunner, and
// ckt::MonteCarlo through the shared streaming driver) — need the hooks
// compiled in (cmake -DFERRO_FAULT_INJECTION=ON) and skip themselves
// otherwise.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "ckt/monte_carlo.hpp"
#include "ckt/rlc.hpp"
#include "ckt/sources.hpp"
#include "core/batch_runner.hpp"
#include "core/fault_injection.hpp"
#include "core/result_sink.hpp"
#include "mag/ja_params.hpp"
#include "support/fixtures.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fc = ferro::core;
namespace fk = ferro::ckt;
namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace ts = ferro::testsupport;

namespace {

/// Homogeneous packable workload: kDirect sweeps over library materials.
std::vector<fc::Scenario> sweep_batch(std::size_t count) {
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = ts::saturation_amplitude(material.params);
    scenarios[i].name = material.name + "#" + std::to_string(i);
    scenarios[i].ja().params = material.params;
    scenarios[i].ja().config.dhmax = amp / 150.0;
    scenarios[i].drive = fw::SweepBuilder(amp / 200.0).cycles(amp, 1).build();
  }
  return scenarios;
}

/// kAms time drives with pairwise-distinct excitations, so every scenario
/// owns its own trajectory job (no dedup sharing).
std::vector<fc::Scenario> ams_batch(std::size_t count) {
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp =
        ts::saturation_amplitude(material.params) * (1.0 + 0.1 * i);
    scenarios[i].name = "ams#" + std::to_string(i);
    scenarios[i].ja().params = material.params;
    scenarios[i].ja().config.dhmax = amp / 150.0;
    scenarios[i].frontend = fc::Frontend::kAms;
    scenarios[i].drive = fc::TimeDrive{
        std::make_shared<fw::Triangular>(amp, 0.02), 0.0, 0.04, 200};
  }
  return scenarios;
}

template <typename R>
class BasicRecordingSink : public fc::BasicResultSink<R> {
 public:
  void on_start(std::size_t total) override { this->total = total; }
  void on_result(std::size_t index, R&& result) override {
    received.emplace_back(index, std::move(result));
  }
  void on_complete() override { ++completes; }

  std::vector<std::pair<std::size_t, R>> received;
  std::size_t total = 0;
  int completes = 0;
};
using RecordingSink = BasicRecordingSink<fc::ScenarioResult>;
using RecordingCornerSink = BasicRecordingSink<fk::CornerResult>;

/// Disarms every site around each test so armings never leak across cases.
class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { fc::FaultInjector::reset(); }
  void TearDown() override { fc::FaultInjector::reset(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Injector semantics (run in every build: only the macro is compile-gated)
// ---------------------------------------------------------------------------

TEST_F(FaultInjection, UnarmedSitesCountHitsWithoutActing) {
  EXPECT_FALSE(fc::FaultInjector::fire(fc::FaultSite::kSinkDeliver));
  EXPECT_FALSE(fc::FaultInjector::fire(fc::FaultSite::kSinkDeliver));
  EXPECT_EQ(fc::FaultInjector::hits(fc::FaultSite::kSinkDeliver), 2u);
  EXPECT_EQ(fc::FaultInjector::hits(fc::FaultSite::kQueuePush), 0u);
}

TEST_F(FaultInjection, ThrowFiresOnTheNthHitForCountFirings) {
  fc::FaultInjector::arm(fc::FaultSite::kLaneCompute,
                         {fc::FaultAction::kThrow, /*nth=*/3, /*count=*/2});
  EXPECT_FALSE(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute));
  EXPECT_FALSE(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute));
  EXPECT_THROW(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute),
               fc::InjectedFault);
  EXPECT_THROW(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute),
               fc::InjectedFault);
  // Budget spent: the site goes quiet again.
  EXPECT_FALSE(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute));
  EXPECT_EQ(fc::FaultInjector::hits(fc::FaultSite::kLaneCompute), 5u);
}

TEST_F(FaultInjection, PoisonReturnsTrueAndResetDisarms) {
  fc::FaultInjector::arm(fc::FaultSite::kLaneCompute,
                         {fc::FaultAction::kPoison, 1, 1});
  EXPECT_TRUE(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute));
  fc::FaultInjector::reset();
  EXPECT_FALSE(fc::FaultInjector::fire(fc::FaultSite::kLaneCompute));
  EXPECT_EQ(fc::FaultInjector::hits(fc::FaultSite::kLaneCompute), 1u);
}

TEST_F(FaultInjection, InjectedFaultNamesItsSite) {
  fc::FaultInjector::arm(fc::FaultSite::kQueuePush,
                         {fc::FaultAction::kThrow, 1, 1});
  try {
    (void)fc::FaultInjector::fire(fc::FaultSite::kQueuePush);
    FAIL() << "expected InjectedFault";
  } catch (const fc::InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("queue-push"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Engine integration (need the instrumented hooks compiled in)
// ---------------------------------------------------------------------------

#ifdef FERRO_FAULT_INJECTION

TEST_F(FaultInjection, ThrowAtLaneComputeFailsThatLaneOnly) {
  const auto scenarios = sweep_batch(6);
  fc::BatchRunner runner(fc::BatchOptions{1});
  const auto reference =
      runner.run(scenarios, {.packing = fc::Packing::kExact});
  for (const auto& r : reference) ASSERT_TRUE(r.ok()) << r.error;

  fc::FaultInjector::arm(fc::FaultSite::kLaneCompute,
                         {fc::FaultAction::kThrow, /*nth=*/3, /*count=*/1});
  fc::BatchReport report;
  const auto results =
      runner.run(scenarios, {.packing = fc::Packing::kExact}, &report);
  ASSERT_EQ(results.size(), scenarios.size());
  EXPECT_EQ(fc::FaultInjector::hits(fc::FaultSite::kLaneCompute),
            scenarios.size());

  std::size_t injected = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      // Healthy neighbours are untouched: bitwise equal to the clean run.
      ASSERT_EQ(results[i].curve.size(), reference[i].curve.size());
      for (std::size_t j = 0; j < results[i].curve.size(); ++j) {
        ASSERT_EQ(results[i].curve.points()[j].b,
                  reference[i].curve.points()[j].b);
      }
    } else {
      ++injected;
      EXPECT_EQ(results[i].error.code, fc::ErrorCode::kInternal);
      EXPECT_NE(results[i].error.detail.find("injected fault"),
                std::string::npos);
    }
  }
  EXPECT_EQ(injected, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_TRUE(report.completed());
}

TEST_F(FaultInjection, PoisonAtLaneComputeDrivesTheQuarantineRetry) {
  const auto scenarios = sweep_batch(6);
  fc::BatchRunner runner(fc::BatchOptions{1});
  const auto reference =
      runner.run(scenarios, {.packing = fc::Packing::kExact});

  fc::FaultInjector::arm(fc::FaultSite::kLaneCompute,
                         {fc::FaultAction::kPoison, /*nth=*/2, /*count=*/1});
  fc::BatchReport report;
  const auto results =
      runner.run(scenarios, {.packing = fc::Packing::kExact}, &report);
  ASSERT_EQ(results.size(), scenarios.size());
  // The poisoned lane was retried through the scalar exact path, which for
  // a kExact packed batch reproduces the same bits — so EVERY result,
  // including the quarantined one, matches the clean run.
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    ASSERT_EQ(results[i].curve.size(), reference[i].curve.size());
    for (std::size_t j = 0; j < results[i].curve.size(); ++j) {
      ASSERT_EQ(results[i].curve.points()[j].h,
                reference[i].curve.points()[j].h);
      ASSERT_EQ(results[i].curve.points()[j].m,
                reference[i].curve.points()[j].m);
      ASSERT_EQ(results[i].curve.points()[j].b,
                reference[i].curve.points()[j].b);
    }
  }
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(report.completed());
}

TEST_F(FaultInjection, ThrowAtTrajectorySolveReportsSolverDiverged) {
  const auto scenarios = ams_batch(3);
  fc::BatchRunner runner(fc::BatchOptions{1});
  fc::FaultInjector::arm(fc::FaultSite::kTrajectorySolve,
                         {fc::FaultAction::kThrow, /*nth=*/1, /*count=*/1});
  fc::BatchReport report;
  const auto results =
      runner.run(scenarios, {.packing = fc::Packing::kExact}, &report);
  ASSERT_EQ(results.size(), scenarios.size());
  std::size_t injected = 0;
  for (const auto& r : results) {
    if (r.ok()) continue;
    ++injected;
    EXPECT_EQ(r.error.code, fc::ErrorCode::kSolverDiverged);
    EXPECT_NE(r.error.detail.find("injected fault at trajectory-solve"),
              std::string::npos);
  }
  EXPECT_EQ(injected, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(report.completed());
}

TEST_F(FaultInjection, ThrowAtSinkDeliverLosesOneDeliveryAndContinues) {
  const auto scenarios = sweep_batch(8);
  fc::BatchRunner runner(fc::BatchOptions{1});  // inline delivery, in order
  fc::FaultInjector::arm(fc::FaultSite::kSinkDeliver,
                         {fc::FaultAction::kThrow, /*nth=*/2, /*count=*/1});
  RecordingSink sink;
  const auto summary = runner.run(scenarios, sink);
  EXPECT_EQ(summary.sink_error_count, 1u);
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kSinkError);
  EXPECT_NE(summary.sink_error.detail.find("injected fault at sink-deliver"),
            std::string::npos);
  EXPECT_EQ(summary.delivered, scenarios.size() - 1);
  EXPECT_EQ(summary.discarded_deliveries, 1u);
  EXPECT_EQ(summary.delivered + summary.discarded_deliveries,
            scenarios.size());
  // Later results were still offered after the failed delivery.
  EXPECT_EQ(sink.received.size(), scenarios.size() - 1);
  EXPECT_EQ(sink.completes, 1);
  EXPECT_EQ(summary.failed_jobs, 0u);
}

TEST_F(FaultInjection, ThrowAtQueuePushKeepsTheAccountingClosed) {
  const auto scenarios = sweep_batch(16);
  fc::BatchRunner runner(fc::BatchOptions{4});  // queue + consumer engaged
  fc::FaultInjector::arm(fc::FaultSite::kQueuePush,
                         {fc::FaultAction::kThrow, /*nth=*/3, /*count=*/1});
  RecordingSink sink;
  const auto summary =
      runner.run(scenarios, sink, {.packing = fc::Packing::kExact});
  // The lost hand-off is counted, never silently dropped, and the batch
  // neither deadlocks nor unwinds a worker.
  EXPECT_EQ(summary.discarded_deliveries, 1u);
  EXPECT_EQ(summary.delivered, scenarios.size() - 1);
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kInternal);
  EXPECT_NE(summary.sink_error.detail.find("hand-off"), std::string::npos);
  EXPECT_EQ(sink.received.size(), scenarios.size() - 1);
  EXPECT_EQ(sink.completes, 1);
}

namespace {

/// A tolerance sweep over a small RC low-pass: cheap corners for the
/// MonteCarlo side of the streaming cases.
fk::MonteCarlo rc_sweep() {
  fk::ScatterSpec spec;
  spec.params = {{"r.value", 0.05, fk::ScatterKind::kUniform}};
  return fk::MonteCarlo(
      fk::CornerSampler(spec, 3),
      [](const fk::CornerView& view, fk::Circuit& circuit) {
        const auto in = circuit.node("in");
        const auto out = circuit.node("out");
        circuit.add<fk::VoltageSource>("V", in, fk::kGround,
                                       std::make_shared<fw::Sine>(1.0, 50.0));
        circuit.add<fk::Resistor>("R", in, out, view.value("r.value", 1e3));
        circuit.add<fk::Capacitor>("C", out, fk::kGround, 1e-6);
      });
}

fk::MonteCarloOptions rc_options(std::size_t corners, unsigned threads) {
  fk::MonteCarloOptions options;
  options.corners = corners;
  options.threads = threads;
  options.chunk = 1;
  options.transient.t_end = 1e-3;
  options.transient.dt_initial = 1e-6;
  options.transient.dt_max = 5e-5;
  return options;
}

}  // namespace

TEST_F(FaultInjection, MonteCarloThrowAtSinkDeliverLosesOneDeliveryAndContinues) {
  fc::FaultInjector::arm(fc::FaultSite::kSinkDeliver,
                         {fc::FaultAction::kThrow, /*nth=*/2, /*count=*/1});
  RecordingCornerSink sink;
  const auto summary = rc_sweep().run(rc_options(8, 1), sink);  // inline
  EXPECT_EQ(summary.sink_error_count, 1u);
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kSinkError);
  EXPECT_NE(summary.sink_error.detail.find("injected fault at sink-deliver"),
            std::string::npos);
  EXPECT_EQ(summary.delivered, 7u);
  EXPECT_EQ(summary.discarded_deliveries, 1u);
  EXPECT_EQ(sink.received.size(), 7u);
  EXPECT_EQ(sink.completes, 1);
  EXPECT_EQ(summary.failed_jobs, 0u);
}

TEST_F(FaultInjection, MonteCarloThrowAtQueuePushKeepsTheAccountingClosed) {
  fc::FaultInjector::arm(fc::FaultSite::kQueuePush,
                         {fc::FaultAction::kThrow, /*nth=*/3, /*count=*/1});
  RecordingCornerSink sink;
  const auto summary = rc_sweep().run(rc_options(16, 4), sink);
  EXPECT_EQ(summary.discarded_deliveries, 1u);
  EXPECT_EQ(summary.delivered, 15u);
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kInternal);
  EXPECT_NE(summary.sink_error.detail.find("hand-off"), std::string::npos);
  EXPECT_EQ(sink.received.size(), 15u);
  EXPECT_EQ(sink.completes, 1);
}

TEST_F(FaultInjection, StallAtLaneComputeWidensTheCancellationWindow) {
  const auto scenarios = sweep_batch(32);
  fc::BatchRunner runner(fc::BatchOptions{2});
  // Every lane finalisation sleeps, so a cancel fired shortly after launch
  // reliably lands mid-batch — the drain contract under load.
  fc::FaultInjector::arm(
      fc::FaultSite::kLaneCompute,
      {fc::FaultAction::kStall, /*nth=*/1, /*count=*/64, /*stall_ms=*/5});
  fc::RunLimits limits;
  RecordingSink sink;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    limits.cancel.cancel();
  });
  const auto summary = runner.run(
      scenarios, sink, {.packing = fc::Packing::kExact, .limits = limits});
  canceller.join();
  // Graceful drain: every index delivered exactly once, computed or not.
  EXPECT_EQ(summary.delivered, scenarios.size());
  EXPECT_EQ(summary.discarded_deliveries, 0u);
  EXPECT_EQ(sink.received.size(), scenarios.size());
  EXPECT_EQ(sink.completes, 1);
  std::size_t cancelled = 0;
  for (const auto& [index, result] : sink.received) {
    if (!result.ok()) {
      EXPECT_EQ(result.error.code, fc::ErrorCode::kCancelled) << result.error;
      ++cancelled;
    }
  }
  EXPECT_EQ(cancelled, summary.cancelled_jobs);
  if (summary.stop.ok()) {
    // The batch outran the canceller (slow machine): nothing was shed.
    EXPECT_EQ(cancelled, 0u);
  } else {
    EXPECT_EQ(summary.stop.code, fc::ErrorCode::kCancelled);
  }
}

#else  // !FERRO_FAULT_INJECTION

TEST_F(FaultInjection, EngineHooksNeedAnInstrumentedBuild) {
  GTEST_SKIP() << "engine-side hooks compiled out; reconfigure with "
                  "-DFERRO_FAULT_INJECTION=ON to run the integration tests";
}

#endif  // FERRO_FAULT_INJECTION
