// Shared helpers for the bench binaries: every bench prints the table rows
// of the paper artefact it regenerates, then runs google-benchmark timings. The JSON context of every run carries
// the build/host metadata (git SHA, compiler, CPU feature flags, selected
// SIMD width) so BENCH_*.json artifacts from different commits and runners
// stay comparable.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/cpu_features.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace ferro::benchutil {

inline void header(const char* experiment_id, const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", experiment_id, title);
  std::printf("==============================================================\n");
}

inline void footnote(const char* text) { std::printf("  note: %s\n", text); }

/// Records the run metadata into the benchmark JSON "context" object.
inline void add_run_metadata() {
#if defined(FERRO_GIT_SHA)
  benchmark::AddCustomContext("git_sha", FERRO_GIT_SHA);
#endif
#if defined(__clang__)
  benchmark::AddCustomContext("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  benchmark::AddCustomContext("compiler", "gcc " __VERSION__);
#else
  benchmark::AddCustomContext("compiler", "unknown");
#endif
  benchmark::AddCustomContext("cpu_features",
                              core::feature_string(core::cpu_features()));
  benchmark::AddCustomContext(
      "simd_width",
      std::to_string(mag::TimelessJaBatch::active_simd_width()));
  std::string widths;
  for (const int w : mag::TimelessJaBatch::available_simd_widths()) {
    if (!widths.empty()) widths += ' ';
    widths += std::to_string(w);
  }
  benchmark::AddCustomContext("simd_widths_available", widths);
}

/// Pins the FastMath SIMD dispatch to `width` for a benchmark's lifetime
/// and restores the automatic pick on destruction (exception-safe: a
/// throwing benchmark body cannot leave the process-global dispatch pinned
/// for the runs after it). `ok()` is false when the width is unavailable
/// on this build/CPU — skip the benchmark then.
class ScopedSimdWidth {
 public:
  explicit ScopedSimdWidth(int width)
      : ok_(mag::TimelessJaBatch::force_simd_width(width) == width) {}
  ~ScopedSimdWidth() { mag::TimelessJaBatch::force_simd_width(0); }
  ScopedSimdWidth(const ScopedSimdWidth&) = delete;
  ScopedSimdWidth& operator=(const ScopedSimdWidth&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_;
};

}  // namespace ferro::benchutil

/// Every bench uses the same main: report first, timings second (with the
/// run metadata recorded into the JSON context).
#define FERRO_BENCH_MAIN(report_fn)                         \
  int main(int argc, char** argv) {                         \
    report_fn();                                            \
    ::benchmark::Initialize(&argc, argv);                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::ferro::benchutil::add_run_metadata();                 \
    ::benchmark::RunSpecifiedBenchmarks();                  \
    ::benchmark::Shutdown();                                \
    return 0;                                               \
  }
