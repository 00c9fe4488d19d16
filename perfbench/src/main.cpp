// perfbench — the repository benchmark executable.
//
//   perfbench --workload <sweep_stream|mc_circuits|fit_library> --seed N
//             --seconds S --trace <0|1> --out-dir DIR
//
// Untraced (--trace 0): sets the workload up from the seed, measures its
// real entry point for S seconds, checks the outputs, and prints the
// end-to-end metrics. Traced (--trace 1): replays every workload's pipeline
// through the public layer functions with spans around each layer, checks
// that each replay reproduces its real entry point's output digest, and
// prints the per-layer metrics. The last stdout line is one JSON record;
// perfbench/run.py turns it into the benchmark's result line. Every workload
// sizes its threads from the cores this process may run on (nproc).
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

/// The cores this process may run on (what `nproc` prints).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string widths_string(const std::vector<int>& widths) {
  std::string s;
  for (const int w : widths) {
    if (!s.empty()) s += ',';
    s += std::to_string(w);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR\n");
    return 2;
  }
  args.threads = usable_cpus();
  const bool known = args.workload == "sweep_stream" ||
                     args.workload == "mc_circuits" ||
                     args.workload == "fit_library";
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Report report;
  report.info = {
      {"compiler", __VERSION__},
      {"simd_width_active",
       std::to_string(ferro::mag::TimelessJaBatch::active_simd_width())},
      {"simd_widths_available",
       widths_string(ferro::mag::TimelessJaBatch::available_simd_widths())},
      {"threads", std::to_string(args.threads)},
  };
  try {
    if (args.trace) {
      // Every traced run reports every per-layer metric, so it replays all
      // three pipelines (at their traced sizes) whichever workload it was
      // started for.
      perfbench::run_sweep_stream(args, report);
      perfbench::run_mc_circuits(args, report);
      perfbench::run_fit_library(args, report);
    } else if (args.workload == "sweep_stream") {
      perfbench::run_sweep_stream(args, report);
    } else if (args.workload == "mc_circuits") {
      perfbench::run_mc_circuits(args, report);
    } else {
      perfbench::run_fit_library(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& problem : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
