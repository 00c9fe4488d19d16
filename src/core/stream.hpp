// Generic streaming result machinery: the sink contract, the stock sink
// adapters, the bounded MPSC hand-off queue, and the one streaming driver,
// templated on the result type so every batch engine in the repo delivers
// through the same plumbing. `core::ResultSink`/`core::ResultQueue`
// (result_sink.hpp / result_queue.hpp) are the ScenarioResult
// instantiations BatchRunner speaks; ckt::MonteCarlo instantiates the same
// templates over its CornerResult, and both engines' sink overloads run
// stream_to_sink and return its StreamSummary.
//
// Sink contract (what stream_to_sink guarantees a sink):
//   * on_start(total) once, then zero or more on_result calls, then
//     on_complete() once — all from ONE thread, never concurrently, so
//     sinks need no locking of their own;
//   * on_result(index, result) may arrive in ANY order; `index` is the
//     position in the job list, and every index in [0, total) arrives
//     exactly once (wrap in BasicOrderedSink for in-order delivery);
//   * a sink callback may throw: the batch still runs to completion and a
//     broken consumer never tears down the pool. A throw from on_result
//     loses THAT delivery only; a throw from on_start withholds every
//     delivery; on_complete still runs either way;
//   * under RunLimits cancellation/deadline, unfinished jobs are still
//     delivered — exactly once per index — carrying their kCancelled /
//     kDeadlineExceeded verdict;
//   * results are delivered while workers are still computing; a slow sink
//     backpressures the workers through the bounded queue rather than
//     buffering unboundedly;
//   * on_result may move `result` out to keep it, whole or in part; what
//     it leaves behind belongs to the engine again once the call returns
//     (BatchRunner's packed path records later lanes into that curve
//     storage), so a sink keeps nothing that points into `result` without
//     moving it out.
//
// The result type R must be movable; BasicCallbackSink additionally wants
// an `ok()` member for its on_error hook, and BasicTeeSink wants copyability.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "core/error.hpp"
#include "core/fault_injection.hpp"

namespace ferro::core {

template <typename R>
class BasicResultSink {
 public:
  virtual ~BasicResultSink() = default;

  /// Called once, before any result, with the batch size.
  virtual void on_start(std::size_t total) { (void)total; }

  /// Called once per job, in arrival (NOT job) order, from a single thread.
  /// Move `result` out to keep it; what is left goes back to the engine.
  virtual void on_result(std::size_t index, R&& result) = 0;

  /// Called once after the last delivery attempt, even when an earlier sink
  /// callback threw.
  virtual void on_complete() {}
};

/// Re-sequencing adapter: buffers out-of-order arrivals and forwards to the
/// inner sink strictly by ascending index, so the inner sink sees exactly
/// the order a collecting run would have returned. The price of ordering is
/// buffering — worst case (index 0 finishes last) it holds the whole batch,
/// so callers who only need "which job is this" should consume unordered.
template <typename R>
class BasicOrderedSink : public BasicResultSink<R> {
 public:
  explicit BasicOrderedSink(BasicResultSink<R>& inner) : inner_(inner) {}

  void on_start(std::size_t total) override {
    next_ = 0;
    max_buffered_ = 0;
    pending_.clear();
    inner_.on_start(total);
  }

  void on_result(std::size_t index, R&& result) override {
    if (index != next_) {
      pending_.emplace(index, std::move(result));
      max_buffered_ = std::max(max_buffered_, pending_.size());
      return;
    }
    inner_.on_result(next_++, std::move(result));
    // Flush the contiguous run this arrival unblocked. Each entry is erased
    // BEFORE its delivery: if the inner sink throws mid-flush, on_complete
    // must not re-forward a moved-from duplicate.
    while (!pending_.empty() && pending_.begin()->first == next_) {
      R next_result = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      inner_.on_result(next_++, std::move(next_result));
    }
  }

  void on_complete() override {
    // Every index arrives exactly once, so nothing can still be pending
    // unless deliveries were cut short by a sink error; forward what we have
    // in order rather than dropping it silently.
    for (auto& [index, result] : pending_) {
      inner_.on_result(index, std::move(result));
    }
    pending_.clear();
    inner_.on_complete();
  }

  /// Largest buffer the adapter ever held — observability for tests/benches.
  [[nodiscard]] std::size_t max_buffered() const { return max_buffered_; }

 private:
  BasicResultSink<R>& inner_;
  std::map<std::size_t, R> pending_;
  std::size_t next_ = 0;
  std::size_t max_buffered_ = 0;
};

/// Collects results into a vector indexed by job — the streaming equivalent
/// of a collecting run's return value, mostly for tests and migration.
template <typename R>
class BasicCollectingSink : public BasicResultSink<R> {
 public:
  void on_start(std::size_t total) override { results_.resize(total); }
  void on_result(std::size_t index, R&& result) override {
    results_[index] = std::move(result);
  }

  [[nodiscard]] std::vector<R>& results() { return results_; }
  [[nodiscard]] const std::vector<R>& results() const { return results_; }

 private:
  std::vector<R> results_;
};

/// Live progress/error hooks without writing a sink class. Any callback may
/// be empty. on_error fires (before on_result) for results carrying a
/// per-job error (R::ok() false); on_progress fires after every delivery
/// with the running count, for progress bars.
template <typename R>
struct BasicStreamCallbacks {
  std::function<void(std::size_t index, const R& result)> on_result;
  std::function<void(std::size_t index, const R& result)> on_error;
  std::function<void(std::size_t done, std::size_t total)> on_progress;
};

template <typename R>
class BasicCallbackSink : public BasicResultSink<R> {
 public:
  explicit BasicCallbackSink(BasicStreamCallbacks<R> callbacks)
      : callbacks_(std::move(callbacks)) {}

  void on_start(std::size_t total) override {
    total_ = total;
    done_ = 0;  // the sink is reusable across batches, like BasicOrderedSink
  }

  void on_result(std::size_t index, R&& result) override {
    if (!result.ok() && callbacks_.on_error) callbacks_.on_error(index, result);
    if (callbacks_.on_result) callbacks_.on_result(index, result);
    ++done_;
    if (callbacks_.on_progress) callbacks_.on_progress(done_, total_);
  }

 private:
  BasicStreamCallbacks<R> callbacks_;
  std::size_t total_ = 0;
  std::size_t done_ = 0;
};

/// Fans every delivery out to several sinks (e.g. a CSV writer plus a
/// progress printer). Downstream sinks receive the result by const reference
/// copy, so they are independent owners. Pointers are non-owning.
template <typename R>
class BasicTeeSink : public BasicResultSink<R> {
 public:
  explicit BasicTeeSink(std::vector<BasicResultSink<R>*> sinks)
      : sinks_(std::move(sinks)) {}

  void on_start(std::size_t total) override {
    for (BasicResultSink<R>* s : sinks_) s->on_start(total);
  }

  void on_result(std::size_t index, R&& result) override {
    for (std::size_t i = 0; i + 1 < sinks_.size(); ++i) {
      R copy = result;
      sinks_[i]->on_result(index, std::move(copy));
    }
    if (!sinks_.empty()) sinks_.back()->on_result(index, std::move(result));
  }

  void on_complete() override {
    for (BasicResultSink<R>* s : sinks_) s->on_complete();
  }

 private:
  std::vector<BasicResultSink<R>*> sinks_;
};

/// One in-flight result: the index names the job, because arrival order is
/// scheduling-dependent by design.
template <typename R>
struct BasicStreamItem {
  std::size_t index = 0;
  R result;
};

/// The bounded MPSC hand-off between a batch engine's workers and the
/// single consumer thread that drives a sink.
///
/// Many producers (pool workers) push finished results; exactly one consumer
/// takes them, normally with drain(): every pending item under one lock.
/// The queue is bounded: push() blocks while capacity() results are
/// queued, so a slow sink applies backpressure to the workers instead of
/// letting results buffer unboundedly — in flight are at most capacity()
/// queued results plus the drained batch the consumer is delivering (itself
/// at most capacity()), whatever the batch size. Wake-ups are paid only
/// when someone sleeps: a push signals only while the consumer is waiting,
/// and the consumer wakes blocked producers once per drain. Condition-
/// variable based on purpose: with wake-ups paid per drain rather than per
/// result, a blocking queue keeps the code obviously correct under TSan
/// without a lock-free structure.
///
/// Shutdown: close() marks the stream finished. Drains and pops return
/// whatever is still queued and then false; pushes after close() are
/// refused (returns false, item dropped) — that only happens if a producer
/// outlives the batch, which the drivers' structure prevents.
template <typename R>
class BasicResultQueue {
 public:
  using Batch = std::vector<BasicStreamItem<R>>;

  /// `capacity` is clamped to at least 1 (a zero-capacity queue could never
  /// transfer anything).
  explicit BasicResultQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  BasicResultQueue(const BasicResultQueue&) = delete;
  BasicResultQueue& operator=(const BasicResultQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `item`) only if
  /// the queue was closed.
  bool push(BasicStreamItem<R>&& item) {
    // Fault site BEFORE the lock: an injected throw or stall here models a
    // producer dying in the hand-off, never a producer unwinding mid-queue.
    (void)FERRO_FAULT_HIT(FaultSite::kQueuePush);
    std::unique_lock<std::mutex> lk(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      ++blocked_producers_;
      can_push_.wait(lk,
                     [this] { return closed_ || items_.size() < capacity_; });
      --blocked_producers_;
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    high_water_ = std::max(high_water_, items_.size());
    const bool wake = consumer_waiting_;
    lk.unlock();
    if (wake) can_pop_.notify_one();
    return true;
  }

  /// Replaces `out` with every pending item, in push order, taken under one
  /// lock; blocks while the queue is empty and not closed. Returns false
  /// (with `out` empty) once the queue is closed *and* drained. Reusing
  /// one `out` across calls keeps the hand-off allocation-free.
  bool drain(Batch& out) {
    out.clear();
    std::unique_lock<std::mutex> lk(mutex_);
    wait_for_items(lk);
    if (items_.empty()) return false;  // closed and drained
    out.swap(items_);
    const bool wake = blocked_producers_ != 0;
    lk.unlock();
    if (wake) can_push_.notify_all();
    return true;
  }

  /// Takes the oldest pending item; blocks like drain(). Returns false once
  /// the queue is closed *and* drained; true with `out` filled otherwise.
  bool pop(BasicStreamItem<R>& out) {
    std::unique_lock<std::mutex> lk(mutex_);
    wait_for_items(lk);
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.erase(items_.begin());
    const bool wake = blocked_producers_ != 0;
    lk.unlock();
    if (wake) can_push_.notify_one();
    return true;
  }

  /// No more pushes; pending items stay poppable. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      closed_ = true;
    }
    can_push_.notify_all();
    can_pop_.notify_all();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Highest occupancy ever observed — lets tests and benches check that
  /// backpressure actually bounded the buffer. Racy only in the benign
  /// "read while producing" sense; read it after the batch for exact values.
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return high_water_;
  }

 private:
  /// The consumer's wait; consumer_waiting_ tells producers to signal.
  void wait_for_items(std::unique_lock<std::mutex>& lk) {
    consumer_waiting_ = true;
    can_pop_.wait(lk, [this] { return closed_ || !items_.empty(); });
    consumer_waiting_ = false;
  }

  mutable std::mutex mutex_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  Batch items_;
  std::size_t capacity_;
  std::size_t high_water_ = 0;
  std::size_t blocked_producers_ = 0;
  bool consumer_waiting_ = false;
  bool closed_ = false;
};

/// What a streaming run reports back. Invariant: delivered +
/// discarded_deliveries always equals the job count — a result is
/// discarded (never silently dropped elsewhere) only when its own delivery
/// failed, when on_start threw (the sink was never initialised, so every
/// delivery is withheld), or when its queue hand-off failed. The verdict
/// fields (failed_jobs, cancelled_jobs, quarantined, stop) are the batch's
/// RunGate counters — what a collecting run reports in its BatchReport.
struct StreamSummary {
  std::size_t delivered = 0;  ///< on_result calls that returned normally
  /// Results withheld from or refused by the sink (see invariant above).
  std::size_t discarded_deliveries = 0;
  std::size_t failed_jobs = 0;     ///< results carrying a per-job error
  std::size_t cancelled_jobs = 0;  ///< kCancelled/kDeadlineExceeded results
  std::size_t quarantined = 0;     ///< packed lanes retried via the exact path
  /// Sink callbacks (on_start/on_result/on_complete) that threw — tells
  /// "one hiccup" (1, and delivery continued) from "the sink kept failing".
  std::size_t sink_error_count = 0;
  /// Most results ever waiting in the worker-to-sink queue (at most its
  /// capacity); 0 when the sink was driven inline by one worker. Timing-
  /// dependent, unlike every field above.
  std::size_t queue_high_water = 0;
  /// First pipeline failure: kSinkError for a throwing sink callback,
  /// kInternal for a failed queue hand-off. kOk when the stream was clean.
  Error sink_error;
  /// Why the batch stopped early (kCancelled/kDeadlineExceeded — the same
  /// code stamped on every unfinished job); kOk when it ran out.
  Error stop;

  [[nodiscard]] bool ok() const { return sink_error.ok(); }
};

/// The worker-to-sink queue bound stream_to_sink uses: `requested`, or
/// twice `workers` when 0.
[[nodiscard]] inline std::size_t resolve_queue_capacity(std::size_t requested,
                                                        unsigned workers) {
  return requested != 0 ? requested : std::size_t{2} * workers;
}

/// stream_to_sink's default hand-back: the engine reuses nothing.
struct NoReclaim {
  template <typename R>
  void operator()(R& /*left*/) const {}
};

/// The streaming driver behind every engine's sink overload. Runs the
/// engine's own work distribution, `dispatch(emit)`, which must call
/// emit(index, result) exactly once per index in [0, jobs) — from any
/// worker thread — and book each verdict into `gate`; drives `sink` through
/// the contract at the top of this header. With `workers` <= 1 the dispatch
/// runs in the calling thread and the sink is driven inline; otherwise the
/// results cross a BasicResultQueue of resolve_queue_capacity(
/// `queue_capacity`, `workers`) to one consumer thread. After every
/// delivery attempt, `reclaim(result)` receives what the sink left of the
/// result (nothing, if it kept all of it), on the delivering thread, for
/// the engine to reuse; it must not throw. Blocks until the batch has
/// drained and on_complete returned.
template <typename R, typename Dispatch, typename Reclaim = NoReclaim>
StreamSummary stream_to_sink(BasicResultSink<R>& sink, std::size_t jobs,
                             unsigned workers, std::size_t queue_capacity,
                             const RunGate& gate, const Dispatch& dispatch,
                             const Reclaim& reclaim = {}) {
  using Emit = std::function<void(std::size_t, R&&)>;
  StreamSummary summary;

  // Every sink callback runs behind this guard, from one thread at a time
  // (the caller, or the consumer while the caller only dispatches), so a
  // broken consumer can never deadlock the workers or tear down the pool.
  const auto record = [&summary](std::string detail) {
    ++summary.sink_error_count;
    if (summary.sink_error.ok()) {
      summary.sink_error = {ErrorCode::kSinkError, std::move(detail)};
    }
  };
  const auto guard = [&record](const auto& callback) {
    try {
      callback();
      return true;
    } catch (const std::exception& e) {
      record(e.what());
    } catch (...) {
      record("unknown exception from sink");
    }
    return false;
  };

  // A sink whose on_start threw never initialised (e.g. a collecting
  // sink's backing vector was never sized), so every delivery is withheld;
  // an on_result that throws loses that delivery only.
  const bool started = guard([&] { sink.on_start(jobs); });
  const auto deliver = [&](std::size_t index, R&& result) {
    if (started && guard([&] {
          (void)FERRO_FAULT_HIT(FaultSite::kSinkDeliver);
          sink.on_result(index, std::move(result));
        })) {
      ++summary.delivered;
    } else {
      ++summary.discarded_deliveries;
    }
    reclaim(result);
  };

  if (workers <= 1) {
    dispatch(Emit(deliver));
  } else {
    BasicResultQueue<R> queue(resolve_queue_capacity(queue_capacity, workers));

    // A failed hand-off (only possible through fault injection or
    // allocation death inside push) loses that result but must not unwind
    // a pool worker: count it so delivered + discarded still covers every
    // job.
    std::mutex lost_mutex;
    std::size_t lost = 0;
    Error first_lost;
    const auto lose = [&](std::string detail) {
      std::lock_guard<std::mutex> lk(lost_mutex);
      if (lost++ == 0) first_lost = {ErrorCode::kInternal, std::move(detail)};
    };

    // One consumer drains the queue for the whole batch. It keeps draining
    // after a sink error (deliver() then counts the delivery as discarded)
    // — otherwise workers blocked on a full queue would deadlock the pool.
    std::thread consumer([&] {
      typename BasicResultQueue<R>::Batch batch;
      while (queue.drain(batch)) {
        for (BasicStreamItem<R>& item : batch) {
          deliver(item.index, std::move(item.result));
        }
      }
    });

    // The consumer MUST be closed-and-joined even if dispatch throws (e.g.
    // planning running out of memory) — letting a joinable std::thread
    // unwind calls std::terminate.
    try {
      dispatch(Emit([&](std::size_t index, R&& result) {
        try {
          queue.push(BasicStreamItem<R>{index, std::move(result)});
        } catch (const std::exception& e) {
          lose(std::string("result hand-off failed: ") + e.what());
        } catch (...) {
          lose("result hand-off failed");
        }
      }));
    } catch (...) {
      queue.close();
      consumer.join();
      throw;
    }
    queue.close();
    consumer.join();
    summary.queue_high_water = queue.high_water();
    summary.discarded_deliveries += lost;
    if (lost != 0 && summary.sink_error.ok()) {
      summary.sink_error = std::move(first_lost);
    }
  }

  // on_complete always fires, even after earlier sink failures — it is the
  // sink's chance to close files.
  guard([&] { sink.on_complete(); });
  BatchReport verdict;
  gate.fill(verdict);
  summary.failed_jobs = verdict.failed;
  summary.cancelled_jobs = verdict.cancelled;
  summary.quarantined = verdict.quarantined;
  summary.stop = std::move(verdict.stop);
  return summary;
}

}  // namespace ferro::core
