// ThreadPool — a persistent worker pool that hands out contiguous index
// chunks from one atomic cursor:
//
//   * parallel_for(n, chunk, fn) splits [0, n) into contiguous chunks, and
//     every worker claims the next one from the cursor until none is left,
//     so chunks start in index order: a caller that lists its units
//     longest first gets them started longest first;
//   * the calling thread participates as worker 0, so a pool constructed
//     with `workers = 1` starts no threads and degenerates to a serial loop;
//   * the other workers - 1 threads are started by the first parallel_for
//     that dispatches, after its batch is published, so none parks before
//     its first batch; they then park on a condition variable between
//     batches, so reusing a pool pays thread start-up once. A thread that
//     cannot be started leaves its chunks to the others.
//
// The units this pool serves are few and coarse (lane blocks, Monte-Carlo
// chunks, fit instance groups: at most a few hundred per batch), so one
// cursor claimed a few hundred times a second is never contended.
//
// Determinism contract: fn(begin, end) receives disjoint index ranges that
// exactly cover [0, n); which thread runs which range is unspecified, so fn
// must only write state owned by its indices. Under that contract results
// are bitwise independent of the worker count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
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
  /// workers - 1 threads join the first parallel_for that dispatches. 0 is
  /// treated as 1 (serial).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn over [0, n) in chunks of `chunk` indices (the tail chunk may be
  /// shorter), claimed in index order, and blocks until every chunk has
  /// finished and no worker still holds the batch. The calling thread works
  /// too. A chunk whose fn throws does not stop the others; the first
  /// exception is rethrown here once the batch has finished. Not
  /// reentrant: one parallel_for at a time per pool.
  void parallel_for(std::size_t n, std::size_t chunk, const RangeFn& fn);

  /// Cooperative cancellation: `stop` is polled once per claimed chunk, and
  /// its verdict is handed to fn as `stopped`. Coverage of [0, n) stays
  /// exact — every chunk still reaches fn exactly once — so fn can emit
  /// cancellation markers for ranges it no longer computes; what stops is
  /// the *work*, decided by fn, not the bookkeeping. An empty `stop` makes
  /// this identical to the plain overload.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const StoppableRangeFn& fn, const StopQuery& stop);

  /// Total worker count (the threads it starts + the calling thread).
  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Chunk size heuristic: large enough that claiming is negligible for
  /// tiny jobs, small enough to balance uneven ones (~4 chunks per worker).
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
  /// Claims chunks from the cursor and runs them until none is left.
  void run_chunks();
  void worker_loop();

  const unsigned workers_;

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // The active batch: written under mutex_ while no worker holds a batch,
  // read by the workers that joined it.
  const StoppableRangeFn* fn_ = nullptr;
  const StopQuery* stop_query_ = nullptr;  ///< nullptr = never stopped
  std::size_t n_ = 0;
  std::size_t chunk_ = 0;
  std::size_t n_chunks_ = 0;
  /// The next chunk to claim; every claim is one fetch_add.
  std::atomic<std::size_t> next_{0};
  /// Counts published batches, so a worker joins each one at most once.
  std::uint64_t batch_ = 0;
  /// True from a batch's publication until parallel_for has seen it finish;
  /// a worker that wakes later sleeps on.
  bool open_ = false;
  /// Workers that joined the open batch and have not left it.
  unsigned holders_ = 0;
  /// The first exception a chunk of the active batch threw.
  std::exception_ptr error_;
  bool stop_ = false;

  std::mutex submit_mutex_;  ///< serialises concurrent parallel_for callers
  /// Declared after the state its threads use; joined by the destructor.
  std::vector<std::thread> threads_;
};

}  // namespace ferro::core
