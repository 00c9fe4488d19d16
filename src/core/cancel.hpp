// Cooperative cancellation and per-batch run limits.
//
// CancelToken is a copyable handle to one shared atomic flag: hand copies to
// BatchRunner (via RunLimits) and to whoever may abort the work — a signal
// handler, another thread, a timeout watchdog. Cancellation is cooperative
// and graceful: the execution layers poll the token at chunk boundaries, so
// an in-flight scenario finishes, every not-yet-started scenario is emitted
// with a kCancelled result, and streaming sinks still see every index
// exactly once followed by on_complete(). Nothing is torn down mid-sink.
//
// RunLimits bundles the token with a wall-clock deadline and an error
// budget; RunGate is the engine-side referee that fuses the three into one
// latched stop decision plus the counters BatchReport/StreamSummary report.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/error.hpp"

namespace ferro::core {

/// Copyable cancellation handle; copies share the underlying flag. cancel()
/// is sticky (there is no rearm — make a fresh token per batch) and safe to
/// call from any thread, including concurrently with polling.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-batch fault-tolerance limits. Default-constructed limits impose
/// nothing (the pre-PR-7 behaviour).
struct RunLimits {
  /// Shared cancellation flag; keep a copy and call cancel() to abort.
  CancelToken cancel;
  /// Wall-clock budget in seconds measured from batch start; <= 0 = none.
  /// On expiry the batch drains exactly like a cancellation, with
  /// kDeadlineExceeded on every unfinished scenario.
  double deadline_s = 0.0;
  /// Stop dispatching after this many failed scenarios (counted over
  /// per-job errors, not cancellations); 0 = unlimited. The remainder is
  /// emitted as kCancelled with an "error budget" detail.
  std::size_t max_errors = 0;
};

/// How a batch ended and what it shed along the way — the collect-path
/// counterpart of StreamSummary (run() fills one on request).
struct BatchReport {
  std::size_t jobs = 0;         ///< scenarios dispatched
  std::size_t failed = 0;       ///< results carrying a per-job error
  std::size_t cancelled = 0;    ///< kCancelled/kDeadlineExceeded results
  std::size_t quarantined = 0;  ///< packed lanes retried via the exact path
  /// kOk when the batch ran to completion; otherwise why it stopped early
  /// (kCancelled or kDeadlineExceeded — the same code stamped on every
  /// unfinished scenario).
  Error stop;

  [[nodiscard]] bool completed() const { return stop.ok(); }
};

/// The engine-side stop authority for one batch: fuses the cancel token,
/// the deadline, and the error budget into a single *latched* decision —
/// once stopped() first returns true the cause never changes, so every
/// unfinished scenario of the batch reports the same code. Also carries the
/// batch's failure/cancel/quarantine counters (atomic: workers bump them
/// concurrently). Internal to the execution layers; callers speak RunLimits.
class RunGate {
 public:
  explicit RunGate(const RunLimits& limits);

  /// Polled at chunk boundaries. Cheap when nothing has fired: one relaxed
  /// atomic load plus (with a deadline armed) a steady_clock read.
  [[nodiscard]] bool stopped() const;

  /// The stop verdict for unfinished scenarios (kCancelled or
  /// kDeadlineExceeded). Only meaningful once stopped() returned true.
  [[nodiscard]] Error stop_error() const;

  /// Wall-clock budget left, clamped positive; +inf when no deadline is
  /// armed. Lets nested batches (fit generations) inherit the remainder.
  [[nodiscard]] double remaining_seconds() const;

  void count_failure() { failures_.fetch_add(1, std::memory_order_relaxed); }
  void count_cancelled() { cancelled_.fetch_add(1, std::memory_order_relaxed); }
  /// Books one job's verdict by its code: nothing for kOk, a cancellation
  /// for kCancelled/kDeadlineExceeded, a failure for anything else.
  void count_verdict(const Error& verdict);
  void count_quarantined() {
    quarantined_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

  /// Folds the counters and stop verdict into a report (jobs set by caller).
  void fill(BatchReport& report) const;

 private:
  enum class Cause : std::uint8_t {
    kNone = 0,
    kCancelToken,
    kDeadline,
    kErrorBudget,
  };

  CancelToken cancel_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::size_t max_errors_ = 0;

  std::atomic<std::size_t> failures_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> quarantined_{0};
  /// First cause to fire, latched by compare-exchange so concurrent pollers
  /// agree on one verdict forever after.
  mutable std::atomic<std::uint8_t> stop_cause_{0};
};

}  // namespace ferro::core
