// ThreadPool — a persistent worker pool with per-worker chunk deques and
// work-stealing, built for BatchRunner's fan-out patterns:
//
//   * workers are spawned once (constructor) and parked on a condition
//     variable between batches — no thread creation on the hot path;
//   * parallel_for(n, chunk, fn) splits [0, n) into contiguous chunks,
//     deals them round-robin onto the deques, and wakes the workers;
//   * each worker pops its own deque from the back (LIFO, cache-warm) and
//     steals from other deques' fronts (FIFO) when dry — heterogeneous job
//     sizes rebalance without a single contended atomic counter;
//   * the calling thread participates as worker 0, so a pool constructed
//     with `workers = 1` spawns no threads and degenerates to a serial loop.
//
// Determinism contract: fn(begin, end) receives disjoint index ranges that
// exactly cover [0, n); which thread runs which range is unspecified, so fn
// must only write state owned by its indices. Under that contract results
// are bitwise independent of the worker count and of stealing order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ferro::core {

/// The worker count every engine resolves its `threads` option to:
/// `requested`, or std::thread::hardware_concurrency() when it is 0, never
/// more than `jobs`, and at least 1.
[[nodiscard]] unsigned resolve_workers(
    unsigned requested,
    std::size_t jobs = std::numeric_limits<std::size_t>::max());

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;
  /// Cancellable variant: `stopped` is the stop predicate's verdict at the
  /// moment this chunk was claimed.
  using StoppableRangeFn =
      std::function<void(std::size_t begin, std::size_t end, bool stopped)>;
  /// Polled once per claimed chunk; must be callable concurrently from every
  /// worker. Once it returns true it must keep returning true (a latched
  /// RunGate, not a momentary condition).
  using StopQuery = std::function<bool()>;

  /// `workers` is the total worker count including the calling thread:
  /// workers - 1 threads are spawned. 0 is treated as 1 (serial).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn over [0, n) in chunks of `chunk` indices (the tail chunk may be
  /// shorter) and blocks until every chunk has finished. The calling thread
  /// works too. Not reentrant: one parallel_for at a time per pool.
  void parallel_for(std::size_t n, std::size_t chunk, const RangeFn& fn);

  /// Cooperative cancellation: `stop` is polled once per claimed chunk, and
  /// its verdict is handed to fn as `stopped`. Coverage of [0, n) stays
  /// exact — every chunk still reaches fn exactly once — so fn can emit
  /// cancellation markers for ranges it no longer computes; what stops is
  /// the *work*, decided by fn, not the bookkeeping. An empty `stop` makes
  /// this identical to the plain overload.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const StoppableRangeFn& fn, const StopQuery& stop);

  /// Total worker count (spawned threads + the calling thread).
  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Chunk size heuristic: large enough to keep deque traffic negligible for
  /// tiny jobs, small enough that stealing can still balance (~4 chunks per
  /// worker).
  [[nodiscard]] static std::size_t default_chunk(std::size_t n,
                                                 unsigned workers);

  /// Same heuristic rounded up to a multiple of `multiple` (>= 1): callers
  /// dispatching SIMD lane blocks pass the active vector width so a
  /// partition never splits a vector group mid-register — every block but
  /// the last runs full vectors, no ragged tails. Lane results don't depend
  /// on the partition either way; this keeps the fast path fast.
  [[nodiscard]] static std::size_t default_chunk(std::size_t n,
                                                 unsigned workers,
                                                 std::size_t multiple);

 private:
  struct Chunk {
    std::size_t begin;
    std::size_t end;
  };
  struct WorkerDeque {
    std::mutex mutex;
    std::deque<Chunk> chunks;
  };

  bool try_claim(unsigned self, Chunk& out);
  void drain(unsigned self);
  void worker_loop(unsigned self);

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> threads_;

  std::mutex coord_mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  /// Chunks not yet claimed from any deque. Stored before the deques fill so
  /// a racing pop can never underflow it; parked workers' wake predicate.
  std::atomic<std::size_t> unclaimed_{0};
  /// Chunks fully executed; the submitting thread waits for == total_.
  std::atomic<std::size_t> completed_{0};
  /// Chunks in the active batch. Atomic because the worker finishing the
  /// last chunk compares against it OUTSIDE coord_mutex_, and the submitter
  /// can observe completion through its wait predicate (no notify needed),
  /// return, and publish the next batch's total while that comparison is
  /// still in flight. A stale read only mis-skips a notify the old batch no
  /// longer needs (or fires a spurious one the predicate absorbs).
  std::atomic<std::size_t> total_{0};
  const StoppableRangeFn* active_fn_ = nullptr;
  /// Stop predicate of the active batch; nullptr = never stopped.
  const StopQuery* active_stop_ = nullptr;
  bool stop_ = false;

  std::mutex submit_mutex_;  ///< serialises concurrent parallel_for callers
};

}  // namespace ferro::core
