#include "core/thread_pool.hpp"

#include <algorithm>

namespace ferro::core {

unsigned resolve_workers(unsigned requested, std::size_t jobs) {
  unsigned workers =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  if (jobs < workers) workers = static_cast<unsigned>(jobs);
  return std::max(workers, 1u);
}

ThreadPool::ThreadPool(unsigned workers) {
  const unsigned total = std::max(workers, 1u);
  deques_.reserve(total);
  for (unsigned i = 0; i < total; ++i) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  threads_.reserve(total - 1);
  for (unsigned i = 1; i < total; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(coord_mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ThreadPool::default_chunk(std::size_t n, unsigned workers) {
  // ~4 chunks per worker: coarse enough that the two atomics per chunk are
  // noise even for sub-microsecond jobs, fine enough to steal-balance.
  const std::size_t target = static_cast<std::size_t>(std::max(workers, 1u)) * 4;
  return std::max<std::size_t>(1, n / target);
}

std::size_t ThreadPool::default_chunk(std::size_t n, unsigned workers,
                                      std::size_t multiple) {
  const std::size_t m = std::max<std::size_t>(multiple, 1);
  const std::size_t base = default_chunk(n, workers);
  return ((base + m - 1) / m) * m;
}

bool ThreadPool::try_claim(unsigned self, Chunk& out) {
  {
    WorkerDeque& own = *deques_[self];
    std::lock_guard<std::mutex> lk(own.mutex);
    if (!own.chunks.empty()) {
      out = own.chunks.back();  // LIFO on the own deque: cache-warm ranges
      own.chunks.pop_back();
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  const unsigned w = static_cast<unsigned>(deques_.size());
  for (unsigned offset = 1; offset < w; ++offset) {
    WorkerDeque& victim = *deques_[(self + offset) % w];
    std::lock_guard<std::mutex> lk(victim.mutex);
    if (!victim.chunks.empty()) {
      out = victim.chunks.front();  // FIFO steal: take the victim's coldest
      victim.chunks.pop_front();
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::drain(unsigned self) {
  Chunk c{0, 0};
  while (try_claim(self, c)) {
    // One stop poll per claimed chunk: the cancellation granularity the
    // batch layers are specified against.
    const bool stopped = active_stop_ != nullptr && (*active_stop_)();
    (*active_fn_)(c.begin, c.end, stopped);
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        total_.load(std::memory_order_relaxed)) {
      // Lock-then-notify so the submitter's predicate check cannot miss it.
      { std::lock_guard<std::mutex> lk(coord_mutex_); }
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop(unsigned self) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(coord_mutex_);
      cv_work_.wait(lk, [this] {
        return stop_ || unclaimed_.load(std::memory_order_relaxed) > 0;
      });
      if (stop_) return;
    }
    drain(self);
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

  const unsigned w = workers();
  if (w <= 1 || n <= chunk) {
    fn(0, n, stop && stop());
    return;
  }

  // No n + chunk sum here or in the chunk ends below: near SIZE_MAX it
  // wraps, which queued zero chunks and skipped fn entirely.
  const std::size_t n_chunks = n / chunk + (n % chunk != 0);
  {
    std::lock_guard<std::mutex> lk(coord_mutex_);
    active_fn_ = &fn;
    active_stop_ = stop ? &stop : nullptr;
    total_.store(n_chunks, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    // Published before any chunk is pushed: a pop (and its decrement) can
    // only happen after the push it claims, so the counter never underflows.
    unclaimed_.store(n_chunks, std::memory_order_relaxed);
  }
  for (std::size_t ci = 0; ci < n_chunks; ++ci) {
    const std::size_t begin = ci * chunk;
    const std::size_t end = begin + std::min(chunk, n - begin);
    WorkerDeque& d = *deques_[ci % w];
    std::lock_guard<std::mutex> lk(d.mutex);
    d.chunks.push_back({begin, end});
  }
  cv_work_.notify_all();

  drain(0);  // the submitting thread is worker 0

  std::unique_lock<std::mutex> lk(coord_mutex_);
  cv_done_.wait(lk, [this] {
    return completed_.load(std::memory_order_acquire) ==
           total_.load(std::memory_order_relaxed);
  });
  active_fn_ = nullptr;
  active_stop_ = nullptr;
}

}  // namespace ferro::core
