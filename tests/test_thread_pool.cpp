// ThreadPool: exact coverage of the index space, serial degeneration,
// reuse across batches, stress with many tiny chunks — the contracts
// BatchRunner's determinism guarantees are built on — plus the order chunks
// start in, when the threads start, and exceptions reaching the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"

namespace fc = ferro::core;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    fc::ThreadPool pool(workers);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                      std::size_t{64}, std::size_t{5000}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "workers=" << workers << " n=" << n << " chunk=" << chunk
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ThreadPool, ZeroJobsIsANoOp) {
  fc::ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkCountDoesNotWrapNearSizeMax) {
  // n + chunk - 1 wraps here, which counted zero chunks and returned without
  // calling fn. fn only records its ranges; iterating them is not the point.
  fc::ThreadPool pool(2);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t kHalf = kMax / 2 + 1;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for(kMax, kHalf, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lk(mutex);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {0, kHalf}, {kHalf, kMax}};
  EXPECT_EQ(ranges, expected);
}

TEST(ThreadPool, SingleWorkerSpawnsNoThreadsAndRunsInline) {
  fc::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(5, 2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) seen.push_back(caller);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  // The persistent-pool property: one construction, many dispatches, each
  // woken from the same parked threads.
  fc::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.parallel_for(97, 5, [&](std::size_t begin, std::size_t end) {
      std::int64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        local += static_cast<std::int64_t>(i);
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200 * (96 * 97 / 2));
}

TEST(ThreadPool, ManyTinyJobsStress) {
  // 20k near-empty jobs: the chunked dispatch keeps cursor claims to ~4 per
  // worker and every index still runs exactly once.
  fc::ThreadPool pool(8);
  constexpr std::size_t kJobs = 20000;
  std::vector<std::atomic<int>> hits(kJobs);
  const std::size_t chunk = fc::ThreadPool::default_chunk(kJobs, pool.workers());
  EXPECT_GE(chunk, kJobs / (8 * 4));
  pool.parallel_for(kJobs, chunk, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  const int sum = std::accumulate(
      hits.begin(), hits.end(), 0,
      [](int acc, const std::atomic<int>& h) { return acc + h.load(); });
  EXPECT_EQ(sum, static_cast<int>(kJobs));
}

TEST(ThreadPool, ChunksStartInIndexOrder) {
  // Chunk c is claimed only after chunks 0..c-1, and each of the other
  // three workers holds at most one claimed chunk it has not entered yet,
  // so at least c - 3 chunks have been entered when chunk c is.
  fc::ThreadPool pool(4);
  constexpr std::size_t kChunks = 64;
  std::atomic<std::size_t> entered{0};
  std::vector<std::size_t> seen(kChunks);
  pool.parallel_for(kChunks, 1, [&](std::size_t begin, std::size_t end) {
    seen[begin] = entered.fetch_add(1);
    EXPECT_EQ(end, begin + 1);
  });
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_GE(seen[c] + 3, c) << "chunk " << c << " entered " << seen[c]
                              << "th";
  }
}

TEST(ThreadPool, StartsNoThreadBeforeItsFirstParallelFor) {
  // The threads start with the first batch, after it is published, so none
  // exists (or parks) before there is work for it; then they persist. A
  // thread an earlier test joined may still be leaving the task list, so
  // the counts are bounded from above, never compared for equality.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  const auto threads = [] {
    std::size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  const std::size_t before = threads();
  fc::ThreadPool pool(4);
  EXPECT_LE(threads(), before);
  std::atomic<int> ran{0};
  pool.parallel_for(8, 1, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  const std::size_t after = threads();
  EXPECT_LE(after, before + 3);
  EXPECT_GE(after, 4u);  // the caller and three parked workers
}

TEST(ThreadPool, ExceptionInAChunkReachesTheCaller) {
  // A throwing chunk neither ends a worker thread nor stops the other
  // chunks, and the caller gets the exception. (A one-worker pool hands fn
  // all of [0, n) in one call, which the throw ends.)
  for (const unsigned workers : {1u, 4u}) {
    fc::ThreadPool pool(workers);
    constexpr std::size_t kJobs = 64;
    constexpr std::size_t kThrowAt = 37;
    std::vector<std::atomic<int>> hits(kJobs);
    const auto fn = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (i == kThrowAt) throw std::runtime_error("index 37");
        hits[i].fetch_add(1);
      }
    };
    EXPECT_THROW(pool.parallel_for(kJobs, 1, fn), std::runtime_error);
    for (std::size_t i = 0; i < kJobs; ++i) {
      const int expected = i < kThrowAt || (workers > 1 && i > kThrowAt);
      EXPECT_EQ(hits[i].load(), expected) << "workers=" << workers << " i=" << i;
    }
    // The pool is whole afterwards.
    std::atomic<std::size_t> ran{0};
    pool.parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
      ran.fetch_add(end - begin);
    });
    EXPECT_EQ(ran.load(), 8u);
  }
}

TEST(ThreadPool, StoppableOverloadKeepsCoverageExact) {
  // The cancellation contract: the stop query flips what fn is TOLD, never
  // which ranges fn receives — [0, n) stays exactly covered so the caller
  // can emit cancellation markers for every skipped index.
  for (const unsigned workers : {1u, 4u}) {
    fc::ThreadPool pool(workers);
    constexpr std::size_t kJobs = 500;
    std::atomic<bool> stop_now{false};
    std::vector<std::atomic<int>> hits(kJobs);
    std::atomic<std::size_t> stopped_indices{0};
    pool.parallel_for(
        kJobs, 1,
        [&](std::size_t begin, std::size_t end, bool stopped) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (stopped) stopped_indices.fetch_add(1);
          }
          // Trip the latch partway through the batch.
          if (begin == kJobs / 4) stop_now.store(true);
        },
        [&] { return stop_now.load(); });
    for (std::size_t i = 0; i < kJobs; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
    // How many chunks observed the trip is scheduling-dependent (the serial
    // fast path is a single pre-trip call); the invariant is coverage.
    EXPECT_LE(stopped_indices.load(), kJobs);
  }
}

TEST(ThreadPool, StoppableOverloadWithEmptyQueryNeverStops) {
  fc::ThreadPool pool(4);
  std::atomic<std::size_t> stopped{0};
  pool.parallel_for(
      100, 1,
      [&](std::size_t, std::size_t, bool is_stopped) {
        if (is_stopped) stopped.fetch_add(1);
      },
      fc::ThreadPool::StopQuery{});
  EXPECT_EQ(stopped.load(), 0u);
}

TEST(ThreadPool, ResolveWorkersCapsAtJobsAndDefaultsToHardware) {
  EXPECT_EQ(fc::resolve_workers(8, 3), 3u);
  EXPECT_EQ(fc::resolve_workers(8, 100), 8u);
  EXPECT_EQ(fc::resolve_workers(8, 0), 1u);
  EXPECT_EQ(fc::resolve_workers(8), 8u);  // uncapped: a pool's size
  const unsigned hardware = std::max(std::thread::hardware_concurrency(), 1u);
  EXPECT_EQ(fc::resolve_workers(0), hardware);
  EXPECT_EQ(fc::resolve_workers(0, 1), 1u);
}

TEST(ThreadPool, DefaultChunkScalesWithWorkload) {
  EXPECT_EQ(fc::ThreadPool::default_chunk(0, 4), 1u);
  EXPECT_EQ(fc::ThreadPool::default_chunk(15, 4), 1u);
  EXPECT_EQ(fc::ThreadPool::default_chunk(160, 4), 10u);
  EXPECT_GE(fc::ThreadPool::default_chunk(1000000, 1), 100000u);
}

TEST(ThreadPool, DefaultChunkRoundsUpToTheRequestedMultiple) {
  // The SIMD-aware overload: never below the plain heuristic, always a
  // multiple of the vector width, and already-aligned sizes are unchanged.
  for (const std::size_t n : {0u, 15u, 160u, 1000u, 4097u}) {
    for (const unsigned workers : {1u, 3u, 4u, 16u}) {
      const std::size_t base = fc::ThreadPool::default_chunk(n, workers);
      for (const std::size_t multiple : {1u, 2u, 4u, 8u}) {
        const std::size_t chunk =
            fc::ThreadPool::default_chunk(n, workers, multiple);
        EXPECT_GE(chunk, base);
        EXPECT_LT(chunk, base + multiple);
        EXPECT_EQ(chunk % multiple, 0u);
      }
    }
  }
  EXPECT_EQ(fc::ThreadPool::default_chunk(160, 4, 8), 16u);
  // multiple = 0 is treated as 1 rather than dividing by zero.
  EXPECT_EQ(fc::ThreadPool::default_chunk(160, 4, 0), 10u);
}
