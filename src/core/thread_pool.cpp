#include "core/thread_pool.hpp"

#include <algorithm>
#include <system_error>
#include <utility>

namespace ferro::core {

unsigned resolve_workers(unsigned requested, std::size_t jobs) {
  unsigned workers =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  if (jobs < workers) workers = static_cast<unsigned>(jobs);
  return std::max(workers, 1u);
}

ThreadPool::ThreadPool(unsigned workers) : workers_(std::max(workers, 1u)) {
  // Reserved, so starting a thread later never reallocates.
  threads_.reserve(workers_ - 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ThreadPool::default_chunk(std::size_t n, unsigned workers) {
  // ~4 chunks per worker: coarse enough that one claim per chunk is noise
  // even for sub-microsecond jobs, fine enough to balance uneven ones.
  const std::size_t target = static_cast<std::size_t>(std::max(workers, 1u)) * 4;
  return std::max<std::size_t>(1, n / target);
}

std::size_t ThreadPool::default_chunk(std::size_t n, unsigned workers,
                                      std::size_t multiple) {
  const std::size_t m = std::max<std::size_t>(multiple, 1);
  const std::size_t base = default_chunk(n, workers);
  return ((base + m - 1) / m) * m;
}

void ThreadPool::run_chunks() {
  for (;;) {
    const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= n_chunks_) return;
    const std::size_t begin = c * chunk_;
    const std::size_t end = begin + std::min(chunk_, n_ - begin);
    try {
      // One stop poll per claimed chunk: the cancellation granularity the
      // batch layers are specified against.
      const bool stopped = stop_query_ != nullptr && (*stop_query_)();
      (*fn_)(begin, end, stopped);
    } catch (...) {
      // Kept for the caller: an exception must not end a worker thread.
      std::lock_guard<std::mutex> lk(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t joined = 0;  // the last batch this worker ran
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || (open_ && batch_ != joined); });
    if (stop_) return;
    joined = batch_;
    ++holders_;
    lk.unlock();
    run_chunks();
    lk.lock();
    if (--holders_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk,
                              const RangeFn& fn) {
  parallel_for(
      n, chunk,
      [&fn](std::size_t begin, std::size_t end, bool) { fn(begin, end); },
      StopQuery{});
}

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk,
                              const StoppableRangeFn& fn,
                              const StopQuery& stop) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  std::lock_guard<std::mutex> submit(submit_mutex_);

  if (workers_ <= 1 || n <= chunk) {
    fn(0, n, stop && stop());
    return;
  }

  {
    std::lock_guard<std::mutex> lk(mutex_);
    fn_ = &fn;
    stop_query_ = stop ? &stop : nullptr;
    n_ = n;
    chunk_ = chunk;
    // No n + chunk sum here or in run_chunks: near SIZE_MAX it wraps.
    n_chunks_ = n / chunk + (n % chunk != 0);
    next_.store(0, std::memory_order_relaxed);
    ++batch_;
    open_ = true;
  }
  // Started here, after the batch is published, so a new thread finds it
  // waiting instead of parking first. One that fails to start leaves its
  // chunks to the others; a later batch tries again.
  while (threads_.size() + 1 < workers_) {
    try {
      threads_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      break;
    }
  }
  cv_work_.notify_all();

  run_chunks();  // the calling thread is worker 0

  // Every chunk is claimed now; the ones still running belong to holders.
  std::unique_lock<std::mutex> lk(mutex_);
  cv_done_.wait(lk, [this] { return holders_ == 0; });
  open_ = false;
  fn_ = nullptr;
  stop_query_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace ferro::core
