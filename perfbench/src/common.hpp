// Shared plumbing of the benchmark executable: clocks and process counters,
// deterministic input randomness, order-independent output digests, the
// in-memory span tracer, and the result record it prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide origin (steady clock).
[[nodiscard]] double now_s();
/// Process CPU time (user + system, every thread) [s].
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process so far [MiB].
[[nodiscard]] double peak_rss_mib();
[[nodiscard]] double median(std::vector<double> values);
/// "p10 p25 p50 p75 p90 n" of `values`, for the record's info block.
[[nodiscard]] std::string quantile_summary(std::vector<double> values);

/// Set-ups per untraced run; setup_s is their median, so one slow set-up
/// (a late thread start, a page-fault burst) does not move it.
constexpr int kSetupRepeats = 9;

/// Command-line contract of the benchmark executable.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< usable cores (nproc), not an option: set by main
  std::string out_dir = ".";
};

/// Seeded input generator: every workload input derives from --seed
/// through this stream, so a seed reproduces the inputs exactly.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(ferro::util::SplitMix64::mix(seed)) {}
  double uniform(double lo, double hi) { return lo + (hi - lo) * gen_.next_unit(); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(gen_.next() % static_cast<std::uint64_t>(n));
  }

 private:
  ferro::util::SplitMix64 gen_;
};

/// FNV-1a over the exact bits of what is fed in.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of one scenario result: index, error code, loop metrics (a
/// function of every curve sample), both counter sets, curve length and the
/// last point. Sums of these are arrival-order independent.
[[nodiscard]] std::uint64_t result_digest(std::size_t index,
                                          const ferro::core::ScenarioResult& r);

/// Thread-safe time accumulator for calls too frequent to keep as
/// individual spans (device stamps, queue pushes).
struct Accum {
  std::atomic<std::int64_t> ns{0};
  void add(Clock::duration d) {
    ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
                 std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const { return 1e-9 * double(ns.load()); }
};

/// One recorded span. Times are now_s() values.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  const char* name = "";  ///< a string literal (span names are static)
  double start = 0.0;
  double end = 0.0;
  std::uint32_t run = 0;
};

/// In-memory span recorder. Spans go to per-thread buffers (no lock on the
/// hot path) and are written out after the run. A span's parent is the
/// innermost open span of the recording thread; a span opened with none
/// open parents to the current root (the outermost open span of whichever
/// thread opened one first), which is how work a pool worker picked up
/// attaches to the pass that dispatched it.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    std::int64_t saved_ = -1;
  };

  /// Run id stamped on every span opened from now on.
  void set_run(std::uint32_t run) { run_ = run; }

  [[nodiscard]] std::vector<Span> spans() const;
  /// Sum of durations of every span called `name` [s].
  [[nodiscard]] double busy(const std::string& name) const;
  /// Sum of self times (duration minus the union of child intervals) [s].
  [[nodiscard]] double self(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Appends every span as one JSON line to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span>& local();

  std::uint64_t generation_;
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::int64_t> root_{-1};
  std::uint32_t run_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span that is a no-op when the tracer is null (the untraced path).
#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
#define PB_SPAN(tracer, name) \
  ::perfbench::Tracer::Scope PB_CAT(pb_span_, __LINE__)((tracer), (name))

/// What one invocation reports. `metrics` become the benchmark's
/// metrics; `counts` are the exact counts the same-seed guard compares;
/// `info` is host/build/workload metadata.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> problems;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void count(std::string name, std::uint64_t value) {
    counts.emplace_back(std::move(name), value);
  }
  /// A failed output check: one failed operation and an incorrect run.
  void fail(std::string problem) {
    correct = false;
    ++failed;
    problems.push_back(std::move(problem));
  }
  [[nodiscard]] std::string json() const;
};

/// The three workloads. Each fills `report` (end-to-end metrics when
/// untraced, per-layer metrics of its own pipeline when traced).
void run_sweep_stream(const Args& args, Report& report);
void run_mc_circuits(const Args& args, Report& report);
void run_fit_library(const Args& args, Report& report);

/// Measurement loop shared by the workloads: runs `pass` until `seconds`
/// have elapsed (at least `min_passes` times) and returns each pass's wall
/// time; the process CPU time of all passes lands in `cpu_s`.
template <typename Fn>
std::vector<double> measure_passes(double seconds, std::size_t min_passes,
                                   double& cpu_s, const Fn& pass) {
  std::vector<double> walls;
  const double cpu0 = process_cpu_s();
  const double stop_at = now_s() + seconds;
  while (walls.size() < min_passes || now_s() < stop_at) {
    const double t0 = now_s();
    pass();
    walls.push_back(now_s() - t0);
  }
  cpu_s = process_cpu_s() - cpu0;
  return walls;
}

}  // namespace perfbench
