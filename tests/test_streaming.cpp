// Streaming pipeline: ResultQueue backpressure, sink contract, ordered
// re-sequencing, bitwise parity with the collect paths across frontends and
// thread counts, sink-error survival, and the file-writing sinks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/result_queue.hpp"
#include "core/result_sink.hpp"
#include "core/stream_sinks.hpp"
#include "mag/ja_params.hpp"
#include "support/fixtures.hpp"
#include "util/csv.hpp"
#include "util/stream_writer.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fc = ferro::core;
namespace fu = ferro::util;
namespace ts = ferro::testsupport;

namespace {

/// Small but heterogeneous workload covering every frontend: kDirect sweeps
/// (packable and not), kSystemC sweeps, kDirect and kAms time drives, plus
/// one invalid-parameter job — the shapes whose streamed results must match
/// the collect paths bitwise.
std::vector<fc::Scenario> mixed_frontend_workload(std::size_t count) {
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = ts::saturation_amplitude(material.params);
    fc::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    s.ja().params = material.params;
    s.ja().config.dhmax = amp / (150.0 + 25.0 * static_cast<double>(i % 4));
    s.drive = fw::SweepBuilder(amp / 200.0).cycles(amp, 1).build();
    switch (i % 5) {
      case 1:
        s.frontend = fc::Frontend::kSystemC;
        break;
      case 2:
        s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(amp, 0.02),
                                0.0, 0.04, 400};
        break;
      case 3:
        s.frontend = fc::Frontend::kAms;
        s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(amp, 0.02),
                                0.0, 0.04, 200};
        break;
      default:
        break;
    }
    scenarios.push_back(std::move(s));
  }
  if (count > 4) {
    scenarios[4].ja().params.c = 1.5;  // invalid: captured as a per-job error
    scenarios[4].name = "broken";
  }
  return scenarios;
}

void expect_same_result(const fc::ScenarioResult& a,
                        const fc::ScenarioResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.error, b.error);
  ASSERT_EQ(a.curve.size(), b.curve.size()) << a.name;
  for (std::size_t j = 0; j < a.curve.size(); ++j) {
    const auto& pa = a.curve.points()[j];
    const auto& pb = b.curve.points()[j];
    // Bitwise equality: the streaming hand-off must not touch the payload.
    ASSERT_EQ(pa.h, pb.h) << a.name << " point " << j;
    ASSERT_EQ(pa.m, pb.m) << a.name << " point " << j;
    ASSERT_EQ(pa.b, pb.b) << a.name << " point " << j;
  }
  EXPECT_EQ(a.metrics.area, b.metrics.area) << a.name;
  EXPECT_EQ(a.stats.field_events, b.stats.field_events) << a.name;
  EXPECT_EQ(a.stats.slope_clamps, b.stats.slope_clamps) << a.name;
}

void expect_identical(const std::vector<fc::ScenarioResult>& a,
                      const std::vector<fc::ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_result(a[i], b[i]);
}

/// Records every delivery in arrival order, plus the lifecycle calls.
class RecordingSink : public fc::ResultSink {
 public:
  void on_start(std::size_t total) override {
    ++starts;
    this->total = total;
  }
  void on_result(std::size_t index, fc::ScenarioResult&& result) override {
    received.emplace_back(index, std::move(result));
  }
  void on_complete() override { ++completes; }

  std::vector<std::pair<std::size_t, fc::ScenarioResult>> received;
  std::size_t total = 0;
  int starts = 0;
  int completes = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// ResultQueue
// ---------------------------------------------------------------------------

TEST(ResultQueue, CapacityIsClampedToAtLeastOne) {
  fc::ResultQueue queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
}

TEST(ResultQueue, FifoWithinOneProducerAndDrainsAfterClose) {
  fc::ResultQueue queue(4);
  for (std::size_t i = 0; i < 3; ++i) {
    fc::StreamItem item;
    item.index = i;
    EXPECT_TRUE(queue.push(std::move(item)));
  }
  queue.close();

  fc::StreamItem out;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.index, i);
  }
  EXPECT_FALSE(queue.pop(out));  // closed and drained

  fc::StreamItem late;
  EXPECT_FALSE(queue.push(std::move(late)));  // refused after close
}

TEST(ResultQueue, BackpressureBoundsOccupancy) {
  constexpr std::size_t kItems = 64;
  fc::ResultQueue queue(2);

  std::thread producer([&] {
    for (std::size_t i = 0; i < kItems; ++i) {
      fc::StreamItem item;
      item.index = i;
      ASSERT_TRUE(queue.push(std::move(item)));
    }
    queue.close();
  });

  std::vector<std::size_t> seen;
  fc::StreamItem out;
  while (queue.pop(out)) {
    seen.push_back(out.index);
    // A deliberately slow consumer: the producer must block, not buffer.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();

  ASSERT_EQ(seen.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_LE(queue.high_water(), 2u);
}

TEST(ResultQueue, DrainDeliversEveryItemOnceUnderManyProducers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 500;
  fc::ResultQueue queue(3);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        fc::StreamItem item;
        item.index = p * kPerProducer + k;
        ASSERT_TRUE(queue.push(std::move(item)));
      }
    });
  }
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    queue.close();
  });

  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::vector<std::size_t> next(kProducers, 0);  // per-producer FIFO check
  fc::ResultQueue::Batch batch;
  std::size_t drains = 0;
  while (queue.drain(batch)) {
    ++drains;
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), queue.capacity());
    for (const fc::StreamItem& item : batch) {
      if (item.index >= seen.size()) {  // no ASSERT: threads are running
        ADD_FAILURE() << "unknown item " << item.index;
        continue;
      }
      ++seen[item.index];
      const std::size_t p = item.index / kPerProducer;
      EXPECT_EQ(item.index % kPerProducer, next[p]) << "producer " << p;
      next[p] = item.index % kPerProducer + 1;
    }
    // An occasionally slow consumer lets producers pile up and block.
    if (drains % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  closer.join();

  EXPECT_TRUE(batch.empty());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], 1) << "item " << i;
  }
  EXPECT_LE(queue.high_water(), queue.capacity());
}

TEST(ResultQueue, CloseReleasesBlockedProducersWithoutLosingAcceptedItems) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  fc::ResultQueue queue(2);

  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> refused{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t k = 0; k < kPerProducer; ++k) {
        fc::StreamItem item;
        item.index = p * kPerProducer + k;
        (queue.push(std::move(item)) ? accepted : refused).fetch_add(1);
      }
    });
  }
  // No consumer yet: the queue fills and every producer ends up blocked.
  while (queue.high_water() < queue.capacity()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  for (std::thread& t : producers) t.join();  // no deadlock

  EXPECT_EQ(accepted.load() + refused.load(), kProducers * kPerProducer);
  EXPECT_EQ(accepted.load(), queue.capacity());
  fc::ResultQueue::Batch batch;
  std::size_t drained = 0;
  while (queue.drain(batch)) drained += batch.size();
  EXPECT_EQ(drained, accepted.load()) << "an accepted item was dropped";
  fc::StreamItem late;
  EXPECT_FALSE(queue.pop(late));
}

// ---------------------------------------------------------------------------
// streaming run(sink) — parity with run_scenario and the collecting run()
// ---------------------------------------------------------------------------

TEST(Streaming, CollectedStreamMatchesRunBitwiseAcrossThreadCounts) {
  const auto scenarios = mixed_frontend_workload(10);
  const auto reference = ts::run_each(scenarios);
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    const fc::BatchRunner runner({.threads = threads});
    fc::CollectingSink sink;
    const auto summary = runner.run(scenarios, sink);
    EXPECT_TRUE(summary.ok()) << summary.sink_error;
    EXPECT_EQ(summary.delivered, scenarios.size());
    EXPECT_EQ(summary.discarded_deliveries, 0u);
    EXPECT_EQ(summary.failed_jobs, 1u);  // the invalid-parameter job
    EXPECT_TRUE(summary.stop.ok());      // ran to completion
    expect_identical(reference, sink.results());
  }
}

TEST(Streaming, EveryIndexArrivesExactlyOnce) {
  const auto scenarios = mixed_frontend_workload(12);
  RecordingSink sink;
  const auto summary = fc::BatchRunner({.threads = 4}).run(scenarios, sink);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(sink.starts, 1);
  EXPECT_EQ(sink.completes, 1);
  EXPECT_EQ(sink.total, scenarios.size());
  ASSERT_EQ(sink.received.size(), scenarios.size());
  std::vector<bool> seen(scenarios.size(), false);
  for (const auto& [index, result] : sink.received) {
    ASSERT_LT(index, seen.size());
    EXPECT_FALSE(seen[index]) << "index " << index << " delivered twice";
    seen[index] = true;
    EXPECT_EQ(result.name, scenarios[index].name);
  }
}

TEST(Streaming, OrderedSinkReproducesRunOrderExactly) {
  const auto scenarios = mixed_frontend_workload(10);
  const auto reference = ts::run_each(scenarios);
  for (const unsigned threads : {2u, 4u, 0u}) {
    RecordingSink inner;
    fc::OrderedSink ordered(inner);
    // A tiny queue keeps results trickling out while workers still compute.
    const auto summary =
        fc::BatchRunner({.threads = threads})
            .run(scenarios, ordered, {.stream = {.queue_capacity = 2}});
    EXPECT_TRUE(summary.ok());
    ASSERT_EQ(inner.received.size(), scenarios.size());
    std::vector<fc::ScenarioResult> in_order;
    for (std::size_t i = 0; i < inner.received.size(); ++i) {
      EXPECT_EQ(inner.received[i].first, i) << "not in scenario order";
      in_order.push_back(std::move(inner.received[i].second));
    }
    expect_identical(reference, in_order);
  }
}

TEST(Streaming, PackedStreamingMatchesRunPackedBitwise) {
  auto scenarios = mixed_frontend_workload(12);
  for (const unsigned threads : {1u, 3u}) {
    const fc::BatchRunner runner({.threads = threads});
    for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
      const auto reference =
          runner.run(scenarios, {.packing = fc::packing_for(math)});
      fc::CollectingSink sink;
      const auto summary =
          runner.run(scenarios, sink, {.packing = fc::packing_for(math)});
      EXPECT_TRUE(summary.ok()) << summary.sink_error;
      expect_identical(reference, sink.results());
    }
  }
}

TEST(Streaming, KeptResultsSurviveCurveStorageReuse) {
  // The packed streaming path records later lanes into the curve storage of
  // the results a sink did not keep. A sink that keeps every third result
  // and drops the rest, over two passes through one runner, catches storage
  // handed back while a kept result still owns it: a later lane would then
  // overwrite the kept curve. Energy lanes ride along, since their blocks
  // take recycled storage too.
  auto scenarios = mixed_frontend_workload(48);
  for (std::size_t i = 0; i < 6; ++i) {
    fc::Scenario s;
    s.name = "energy#" + std::to_string(i);
    fc::EnergySpec spec{fm::energy_reference_parameters()};
    spec.params.cells = 8 + 4 * static_cast<int>(i);
    s.model = spec;
    s.drive = fw::SweepBuilder(60.0 + 10.0 * i).cycles(10e3, 1).build();
    scenarios.push_back(std::move(s));
  }

  class KeepEveryThirdSink : public fc::ResultSink {
   public:
    void on_start(std::size_t total) override { arrivals.assign(total, 0); }
    void on_result(std::size_t index, fc::ScenarioResult&& result) override {
      ++arrivals.at(index);
      if (seen++ % 3 == 0) kept.emplace_back(index, std::move(result));
    }
    std::size_t seen = 0;
    std::vector<int> arrivals;
    std::vector<std::pair<std::size_t, fc::ScenarioResult>> kept;
  };

  for (const unsigned threads : {1u, 4u}) {
    const fc::BatchRunner runner({.threads = threads});
    for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
      const fc::RunOptions options{.packing = fc::packing_for(math)};
      const auto reference = runner.run(scenarios, options);
      std::vector<KeepEveryThirdSink> passes(2);
      for (auto& sink : passes) {
        const auto summary = runner.run(scenarios, sink, options);
        EXPECT_TRUE(summary.ok()) << summary.sink_error;
        EXPECT_EQ(summary.delivered, scenarios.size());
      }
      // Checked after both passes, so storage wrongly handed back in the
      // first has had the whole second pass to be overwritten.
      for (const auto& sink : passes) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          EXPECT_EQ(sink.arrivals[i], 1) << "index " << i;
        }
        EXPECT_EQ(sink.kept.size(), (scenarios.size() + 2) / 3);
        for (const auto& [index, result] : sink.kept) {
          expect_same_result(reference[index], result);
        }
      }
    }
  }
}

TEST(Streaming, RecycledCurvesAreOverwrittenWithoutStalePoints) {
  // Recycled storage keeps its points until a kernel overwrites it. A sink
  // that copies every arrival and leaves the original to be recycled makes
  // every curve after the first blocks record into stale storage. JA sweeps
  // of five lengths over every library material sort into short-to-long
  // runs per anhysteretic kind, so a kind's first lanes can take the
  // longest buffers of the kind before; energy lanes, kAms lanes (whose
  // trace rows, longer than their curves, come back as scratch) and time
  // drives take and hand back storage too. Every copy must be bitwise
  // run()'s result.
  const auto& library = fm::material_library();
  std::vector<fc::Scenario> scenarios;
  for (std::size_t i = 0; i < 90; ++i) {
    const auto& material = library[i % library.size()];
    const double amp = ts::saturation_amplitude(material.params);
    fc::Scenario s;
    s.name = material.name + "#" + std::to_string(i);
    s.ja().params = material.params;
    s.ja().config.dhmax = amp / (150.0 + 25.0 * static_cast<double>(i % 4));
    const double step = amp / (60.0 + 70.0 * static_cast<double>(i % 5));
    s.drive = fw::SweepBuilder(step).cycles(amp, 1).build();
    if (i % 7 == 3) {
      s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(amp, 0.02),
                              0.0, 0.04, 250 + 100 * (i % 3)};
    } else if (i % 7 == 5) {
      s.frontend = fc::Frontend::kAms;
      s.drive = fc::TimeDrive{std::make_shared<fw::Triangular>(amp, 0.02),
                              0.0, 0.04, 200};
    } else if (i % 9 == 4) {
      fc::EnergySpec spec{fm::energy_reference_parameters()};
      spec.params.cells = 8 + 4 * static_cast<int>(i % 3);
      s.model = spec;
      s.drive = fw::SweepBuilder(40.0 + 10.0 * static_cast<double>(i % 5))
                    .cycles(10e3, 1)
                    .build();
    }
    scenarios.push_back(std::move(s));
  }

  class CopyEverySink : public fc::ResultSink {
   public:
    void on_start(std::size_t total) override {
      arrivals.assign(total, 0);
      copies.assign(total, {});
    }
    void on_result(std::size_t index, fc::ScenarioResult&& result) override {
      ++arrivals.at(index);
      copies.at(index) = result;  // the original goes back to be recycled
    }
    std::vector<int> arrivals;
    std::vector<fc::ScenarioResult> copies;
  };

  for (const unsigned threads : {1u, 3u}) {
    const fc::BatchRunner runner({.threads = threads});
    for (const auto math : {fm::BatchMath::kExact, fm::BatchMath::kFast}) {
      const fc::RunOptions options{.packing = fc::packing_for(math)};
      const auto reference = runner.run(scenarios, options);
      CopyEverySink sink;
      const auto summary = runner.run(scenarios, sink, options);
      EXPECT_TRUE(summary.ok()) << summary.sink_error;
      EXPECT_EQ(summary.failed_jobs, 0u);
      ASSERT_EQ(sink.copies.size(), scenarios.size());
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(sink.arrivals[i], 1) << "index " << i;
        expect_same_result(reference[i], sink.copies[i]);
      }
    }
  }
}

TEST(Streaming, EmptyBatchStillRunsTheSinkLifecycle) {
  RecordingSink sink;
  const auto summary = fc::BatchRunner().run({}, sink);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.delivered, 0u);
  EXPECT_EQ(sink.starts, 1);
  EXPECT_EQ(sink.completes, 1);
  EXPECT_EQ(sink.total, 0u);
}

// ---------------------------------------------------------------------------
// Backpressure and sink failure
// ---------------------------------------------------------------------------

TEST(Streaming, SlowSinkNeitherDeadlocksNorDrops) {
  // Tiny jobs + capacity-2 queue + a sink slower than the workers: the
  // workers must block on the queue (bounded memory) and every result must
  // still arrive.
  auto scenarios = mixed_frontend_workload(24);
  for (auto& s : scenarios) {
    if (!std::holds_alternative<fw::HSweep>(s.drive)) continue;
    const double amp = ts::saturation_amplitude(s.ja().params);
    s.drive = fw::SweepBuilder(amp / 8.0).cycles(amp, 1).build();
  }

  class SlowSink : public fc::ResultSink {
   public:
    void on_result(std::size_t, fc::ScenarioResult&&) override {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      ++count;
    }
    std::size_t count = 0;
  } sink;

  const auto summary =
      fc::BatchRunner({.threads = 4})
          .run(scenarios, sink, {.stream = {.queue_capacity = 2}});
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.delivered, scenarios.size());
  EXPECT_EQ(sink.count, scenarios.size());
}

TEST(Streaming, SummaryReportsQueueHighWaterWithinCapacity) {
  const auto scenarios = mixed_frontend_workload(24);

  // One worker delivers inline: no queue, so no occupancy to report.
  RecordingSink inline_sink;
  EXPECT_EQ(
      fc::BatchRunner({.threads = 1}).run(scenarios, inline_sink)
          .queue_high_water,
      0u);

  // More results than the queue holds cross it: the high-water is at least
  // one and never above the capacity, given or defaulted (one lane block
  // plus 2 x workers).
  const fc::BatchRunner runner({.threads = 4});
  for (const std::size_t capacity : {std::size_t{2}, std::size_t{0}}) {
    RecordingSink sink;
    const fc::StreamOptions stream{.queue_capacity = capacity};
    const auto summary = runner.run(
        scenarios, sink, {.packing = fc::Packing::kFast, .stream = stream});
    EXPECT_TRUE(summary.ok());
    EXPECT_GT(summary.queue_high_water, 0u) << "capacity " << capacity;
    EXPECT_LE(summary.queue_high_water,
              runner.queue_capacity(stream, scenarios.size()))
        << "capacity " << capacity;
  }
}

TEST(Streaming, DefaultQueueBoundHoldsOneLaneBlockPlusTwicePerWorker) {
  // A packed lane block emits its results back to back, so the default
  // bound leaves room for one block's burst on top of 2 x workers; an
  // explicit capacity is kept as given, whatever the packing.
  const std::size_t block = fc::BatchRunner::lane_block();
  EXPECT_EQ(block, 2u * static_cast<std::size_t>(
                            fm::TimelessJaBatch::active_simd_width()));
  for (const unsigned threads : {1u, 3u, 4u}) {
    const fc::BatchRunner runner({.threads = threads});
    EXPECT_EQ(runner.queue_capacity({}, 1000), block + 2u * threads)
        << threads;
    EXPECT_EQ(runner.queue_capacity({.queue_capacity = 5}, 1000), 5u)
        << threads;
  }
  // The worker count is the run's: a two-job batch on four threads uses
  // two workers.
  EXPECT_EQ(fc::BatchRunner({.threads = 4}).queue_capacity({}, 2),
            block + 4u);

  // Streamed through the default bound, a packed batch never holds more.
  const auto scenarios = mixed_frontend_workload(40);
  const fc::BatchRunner runner({.threads = 3});
  RecordingSink sink;
  const auto summary =
      runner.run(scenarios, sink, {.packing = fc::Packing::kFast});
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.delivered, scenarios.size());
  EXPECT_LE(summary.queue_high_water,
            runner.queue_capacity({}, scenarios.size()));
}

TEST(Streaming, ThrowingSinkSurfacesErrorWithoutKillingTheBatch) {
  const auto scenarios = mixed_frontend_workload(12);

  class ThrowingSink : public fc::ResultSink {
   public:
    void on_result(std::size_t, fc::ScenarioResult&&) override {
      if (++count == 3) throw std::runtime_error("sink exploded");
    }
    void on_complete() override { completed = true; }
    std::size_t count = 0;
    bool completed = false;
  } sink;

  const fc::BatchRunner runner({.threads = 4});
  const auto summary = runner.run(scenarios, sink);
  EXPECT_FALSE(summary.ok());
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kSinkError);
  EXPECT_NE(summary.sink_error.detail.find("sink exploded"), std::string::npos)
      << summary.sink_error;
  // One delivery blew up; the batch keeps offering the rest (a single
  // hiccup must not discard an entire run), and every scenario is still
  // accounted for — delivered or discarded, never silently lost.
  EXPECT_EQ(summary.sink_error_count, 1u);
  EXPECT_EQ(summary.discarded_deliveries, 1u);
  EXPECT_EQ(summary.delivered, scenarios.size() - 1);
  EXPECT_EQ(summary.delivered + summary.discarded_deliveries, scenarios.size());
  EXPECT_EQ(sink.count, scenarios.size());  // every delivery was attempted
  EXPECT_TRUE(sink.completed);              // lifecycle still closes

  // The pool survives a broken consumer: the same runner keeps working.
  expect_identical(ts::run_each(scenarios), runner.run(scenarios));
}

TEST(Streaming, ThrowingOnStartDiscardsEverythingButStillCompletes) {
  const auto scenarios = mixed_frontend_workload(6);

  class BadStartSink : public fc::ResultSink {
   public:
    void on_start(std::size_t) override {
      throw std::runtime_error("refused to start");
    }
    void on_result(std::size_t, fc::ScenarioResult&&) override { ++count; }
    void on_complete() override { ++completes; }
    std::size_t count = 0;
    int completes = 0;
  } sink;

  const auto summary = fc::BatchRunner({.threads = 2}).run(scenarios, sink);
  EXPECT_FALSE(summary.ok());
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kSinkError);
  EXPECT_EQ(summary.delivered, 0u);
  EXPECT_EQ(summary.discarded_deliveries, scenarios.size());
  EXPECT_EQ(sink.count, 0u);
  EXPECT_EQ(sink.completes, 1);
}

// ---------------------------------------------------------------------------
// Cancellation and mixed outcomes
// ---------------------------------------------------------------------------

TEST(Streaming, SinkCancellationDrainsRemainderAsCancelled) {
  // A consumer that has seen enough cancels the batch from inside its own
  // callback. Serial runner: the gate is polled before every work unit and
  // the first unit is the one fallback job (the invalid "broken" scenario),
  // so exactly one result computes and the remainder arrive as kCancelled —
  // still delivered, still one per index.
  const auto scenarios = mixed_frontend_workload(8);
  fc::RunLimits limits;

  class CancellingSink : public fc::ResultSink {
   public:
    explicit CancellingSink(fc::CancelToken token) : token_(std::move(token)) {}
    void on_result(std::size_t, fc::ScenarioResult&& r) override {
      token_.cancel();
      if (r.ok() || r.error.code != fc::ErrorCode::kCancelled) ++computed;
      ++count;
    }
    std::size_t count = 0;
    std::size_t computed = 0;

   private:
    fc::CancelToken token_;
  } sink(limits.cancel);

  const auto summary = fc::BatchRunner({.threads = 1})
                           .run(scenarios, sink, {.limits = limits});
  EXPECT_TRUE(summary.ok());  // cancellation is not a sink failure
  EXPECT_EQ(summary.stop.code, fc::ErrorCode::kCancelled);
  EXPECT_EQ(summary.delivered, scenarios.size());
  EXPECT_EQ(sink.count, scenarios.size());
  EXPECT_EQ(sink.computed, 1u);
  EXPECT_EQ(summary.cancelled_jobs, scenarios.size() - 1);
}

TEST(Streaming, ParallelCancellationMidStreamStaysAccounted) {
  // The TSan-facing shape: workers, queue, consumer thread, and an external
  // canceller all racing. Whatever finishes finishes; the accounting and
  // the lifecycle must hold regardless.
  const auto scenarios = mixed_frontend_workload(48);
  fc::RunLimits limits;
  RecordingSink sink;
  std::thread canceller([&limits] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    limits.cancel.cancel();
  });
  const auto summary = fc::BatchRunner({.threads = 4})
                           .run(scenarios, sink, {.limits = limits});
  canceller.join();
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.delivered, scenarios.size());
  EXPECT_EQ(sink.starts, 1);
  EXPECT_EQ(sink.completes, 1);
  // mixed_frontend_workload's "broken" job may have computed (failed) or
  // been cancelled first; either way nothing is unaccounted.
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  for (const auto& [index, result] : sink.received) {
    if (result.ok()) continue;
    if (result.name == "broken" &&
        result.error.code == fc::ErrorCode::kInvalidScenario) {
      ++failed;
      continue;
    }
    EXPECT_EQ(result.error.code, fc::ErrorCode::kCancelled) << index;
    ++cancelled;
  }
  EXPECT_EQ(summary.cancelled_jobs, cancelled);
  EXPECT_EQ(summary.failed_jobs, failed);
}

TEST(Streaming, MixedOutcomeBatchKeepsHealthyLanesBitwise) {
  // Satellite: one batch mixing a throwing waveform, a NaN-producing
  // waveform, and healthy scenarios across all three frontends. Healthy
  // results stay bitwise identical to run_scenario; the sick ones carry the
  // right code on the right index; the summary reconciles.
  class ThrowingWaveform final : public fw::Waveform {
   public:
    [[nodiscard]] double value(double) const override {
      throw std::runtime_error("waveform exploded");
    }
  };
  class NanWaveform final : public fw::Waveform {
   public:
    [[nodiscard]] double value(double) const override {
      return std::numeric_limits<double>::quiet_NaN();
    }
  };

  auto scenarios = mixed_frontend_workload(12);  // [4] is "broken" (invalid)
  const std::size_t throw_at = 2;   // kDirect time drive slot
  const std::size_t nan_at = 7;     // replace a sweep slot with a time drive
  scenarios[throw_at].name = "throwing";
  scenarios[throw_at].drive =
      fc::TimeDrive{std::make_shared<ThrowingWaveform>(), 0.0, 0.04, 100};
  scenarios[throw_at].metrics_window.reset();
  scenarios[nan_at].name = "nan";
  scenarios[nan_at].drive =
      fc::TimeDrive{std::make_shared<NanWaveform>(), 0.0, 0.04, 100};
  scenarios[nan_at].metrics_window.reset();

  const auto reference = ts::run_each(scenarios);
  ASSERT_EQ(reference[throw_at].error.code, fc::ErrorCode::kSolverDiverged);
  ASSERT_EQ(reference[nan_at].error.code, fc::ErrorCode::kNonFinite);
  ASSERT_EQ(reference[4].error.code, fc::ErrorCode::kInvalidScenario);

  for (const unsigned threads : {1u, 4u}) {
    const fc::BatchRunner runner({.threads = threads});
    fc::CollectingSink sink;
    const auto summary =
        runner.run(scenarios, sink, {.packing = fc::Packing::kExact});
    EXPECT_TRUE(summary.ok()) << summary.sink_error;
    EXPECT_EQ(summary.delivered, scenarios.size());
    EXPECT_EQ(summary.failed_jobs, 3u);  // throwing, nan, broken
    EXPECT_EQ(summary.cancelled_jobs, 0u);
    const auto& results = sink.results();
    EXPECT_EQ(results[throw_at].error.code, fc::ErrorCode::kSolverDiverged);
    EXPECT_NE(results[throw_at].error.detail.find("waveform exploded"),
              std::string::npos)
        << results[throw_at].error;
    EXPECT_EQ(results[nan_at].error.code, fc::ErrorCode::kNonFinite);
    // Healthy lanes (and the deterministic failures): bitwise vs
    // run_scenario.
    // The NaN lane is pinned by code above and excluded here only because
    // NaN payloads defeat ASSERT_EQ (NaN != NaN), not because it may drift.
    std::vector<fc::ScenarioResult> ref_cmp;
    std::vector<fc::ScenarioResult> res_cmp;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i == nan_at) continue;
      ref_cmp.push_back(reference[i]);
      res_cmp.push_back(results[i]);
    }
    expect_identical(ref_cmp, res_cmp);
  }
}

// ---------------------------------------------------------------------------
// Stock sinks
// ---------------------------------------------------------------------------

TEST(Streaming, CallbackSinkReportsProgressAndErrors) {
  const auto scenarios = mixed_frontend_workload(10);
  std::size_t results_seen = 0;
  std::size_t errors_seen = 0;
  std::size_t last_done = 0;
  std::size_t last_total = 0;
  fc::CallbackSink sink({
      .on_result = [&](std::size_t, const fc::ScenarioResult&) {
        ++results_seen;
      },
      .on_error = [&](std::size_t index, const fc::ScenarioResult& r) {
        ++errors_seen;
        EXPECT_EQ(scenarios[index].name, "broken");
        EXPECT_FALSE(r.ok());
      },
      .on_progress = [&](std::size_t done, std::size_t total) {
        last_done = done;
        last_total = total;
      },
  });
  const auto summary = fc::BatchRunner({.threads = 3}).run(scenarios, sink);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(results_seen, scenarios.size());
  EXPECT_EQ(errors_seen, 1u);
  EXPECT_EQ(last_done, scenarios.size());
  EXPECT_EQ(last_total, scenarios.size());
}

TEST(Streaming, TeeSinkDeliversToEverySink) {
  const auto scenarios = mixed_frontend_workload(6);
  fc::CollectingSink a;
  fc::CollectingSink b;
  fc::TeeSink tee({&a, &b});
  const auto summary = fc::BatchRunner({.threads = 2}).run(scenarios, tee);
  EXPECT_TRUE(summary.ok());
  expect_identical(a.results(), b.results());
  ASSERT_EQ(a.results().size(), scenarios.size());
}

TEST(Streaming, CsvCurveSinkWritesEveryPointInScenarioOrder) {
  const std::string path = "test_streaming_curves.csv";
  const auto scenarios = mixed_frontend_workload(5);
  const auto reference = ts::run_each(scenarios);

  {
    fc::CsvCurveSink csv(path);
    fc::OrderedSink ordered(csv);
    const auto summary =
        fc::BatchRunner({.threads = 4}).run(scenarios, ordered);
    EXPECT_TRUE(summary.ok());
    EXPECT_TRUE(csv.ok());
  }

  const fu::CsvTable table = fu::read_csv(path);
  std::size_t expected_rows = 0;
  for (const auto& r : reference) expected_rows += r.curve.size();
  ASSERT_EQ(table.rows.size(), expected_rows);

  // Ordered delivery means the file is grouped by ascending scenario index,
  // and each row reproduces the exact curve point.
  std::size_t row = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (std::size_t j = 0; j < reference[i].curve.size(); ++j, ++row) {
      EXPECT_EQ(table.rows[row][0], static_cast<double>(i));
      // Column 1 is the numeric model tag (0 = ja for this workload).
      EXPECT_EQ(table.rows[row][1], 0.0);
      EXPECT_EQ(table.rows[row][2], reference[i].curve.points()[j].h);
      EXPECT_EQ(table.rows[row][4], reference[i].curve.points()[j].b);
    }
  }
  std::filesystem::remove(path);
}

TEST(Streaming, JsonlMetricsSinkWritesOneRecordPerScenario) {
  const std::string path = "test_streaming_metrics.jsonl";
  const auto scenarios = mixed_frontend_workload(8);
  {
    fc::JsonlMetricsSink jsonl(path);
    const auto summary =
        fc::BatchRunner({.threads = 2}).run(scenarios, jsonl);
    EXPECT_TRUE(summary.ok());
    EXPECT_TRUE(jsonl.ok());
    EXPECT_EQ(jsonl.records_written(), scenarios.size());
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), scenarios.size());
  std::size_t broken_lines = 0;
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\": "), std::string::npos);
    if (line.find("\"ok\": false") != std::string::npos) ++broken_lines;
  }
  EXPECT_EQ(broken_lines, 1u);  // exactly the invalid-parameter job
  std::filesystem::remove(path);
}

TEST(Streaming, StreamWritersLatchFailedWritesWithErrnoDetail) {
  // /dev/full accepts the open but fails every flushed write with ENOSPC —
  // the canonical full-disk stand-in. (Linux-specific; skip elsewhere.)
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }

  fu::CsvStreamWriter csv("/dev/full", {"a", "b"}, /*flush_every=*/0);
  csv.row({1.0, 2.0});
  csv.flush();
  EXPECT_FALSE(csv.ok());
  EXPECT_NE(csv.error_detail().find("flush failed"), std::string::npos)
      << csv.error_detail();
  EXPECT_NE(csv.error_detail().find("No space left"), std::string::npos)
      << csv.error_detail();
  // The latch is sticky: later writes don't clear the diagnosis.
  const std::string detail = csv.error_detail();
  csv.row({3.0, 4.0});
  EXPECT_EQ(csv.error_detail(), detail);

  fu::JsonLinesWriter jsonl("/dev/full", /*flush_every=*/1);
  jsonl.record({{"k", 1.0}});
  jsonl.flush();
  EXPECT_FALSE(jsonl.ok());
  EXPECT_NE(jsonl.error_detail().find("failed"), std::string::npos)
      << jsonl.error_detail();
}

TEST(Streaming, FullDiskSurfacesAsSinkErrorNotATruncatedFile) {
  // Regression: the file sinks used to swallow write/flush failures — a
  // full disk produced a clean-looking summary over a truncated artefact.
  // Now the first failed flush throws from the sink, the stream shell
  // converts it to kSinkError with the errno detail, and the accounting
  // invariant (delivered + discarded == total) still holds.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }

  const auto scenarios = mixed_frontend_workload(6);
  fc::CsvCurveSink csv("/dev/full");
  const auto summary = fc::BatchRunner({.threads = 2}).run(scenarios, csv);

  EXPECT_FALSE(summary.ok());
  EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kSinkError);
  EXPECT_NE(summary.sink_error.detail.find("csv curve sink"),
            std::string::npos)
      << summary.sink_error;
  EXPECT_NE(summary.sink_error.detail.find("No space left"),
            std::string::npos)
      << summary.sink_error;
  EXPECT_FALSE(csv.ok());
  EXPECT_GE(summary.discarded_deliveries, 1u);
  EXPECT_EQ(summary.delivered + summary.discarded_deliveries,
            scenarios.size());
}

TEST(Streaming, FileSinksThatCannotOpenFailOnceAtStart) {
  // A sink whose file never opened used to fail every on_result with a bare
  // "stream failed", so the error count grew with the batch. Now the writer
  // records the path and errno at open and the sink throws from on_start:
  // the driver withholds every delivery and the count stays put.
  const std::string dir = "/nonexistent-dir-for-test-streaming";
  ASSERT_FALSE(std::filesystem::exists(dir));
  const auto check = [&](const char* sink_name, const std::string& path,
                         auto make_sink) {
    std::size_t errors_at_first_size = 0;
    for (const std::size_t count : {std::size_t{5}, std::size_t{9}}) {
      const auto scenarios = mixed_frontend_workload(count);
      for (const unsigned threads : {1u, 3u}) {
        auto sink = make_sink();
        const auto summary =
            fc::BatchRunner({.threads = threads}).run(scenarios, *sink);
        EXPECT_FALSE(summary.ok());
        EXPECT_EQ(summary.sink_error.code, fc::ErrorCode::kSinkError);
        const std::string& detail = summary.sink_error.detail;
        EXPECT_NE(detail.find(sink_name), std::string::npos) << detail;
        EXPECT_NE(detail.find(path), std::string::npos) << detail;
        EXPECT_NE(detail.find("No such file or directory"), std::string::npos)
            << detail;
        EXPECT_EQ(summary.delivered, 0u);
        EXPECT_EQ(summary.discarded_deliveries, count);
        if (errors_at_first_size == 0) {
          errors_at_first_size = summary.sink_error_count;
        }
        EXPECT_EQ(summary.sink_error_count, errors_at_first_size)
            << sink_name << ": " << count << " scenarios at " << threads
            << " threads";
      }
    }
    EXPECT_GE(errors_at_first_size, 1u);
    EXPECT_LE(errors_at_first_size, 2u);  // on_start, then on_complete
  };
  const std::string jsonl_path = dir + "/out.jsonl";
  check("jsonl metrics sink", jsonl_path, [&] {
    return std::make_unique<fc::JsonlMetricsSink>(jsonl_path);
  });
  const std::string csv_path = dir + "/out.csv";
  check("csv curve sink", csv_path,
        [&] { return std::make_unique<fc::CsvCurveSink>(csv_path); });
}
