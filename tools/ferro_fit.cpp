// ferro_fit — JA parameter identification from a measured B-H curve.
//
// Reads a CSV of (H, B) samples in sweep order (the format BhCurve
// writes: an "h,m,b" header is understood out of the box; other layouts
// select columns by name with --h-col/--b-col), searches for the
// (Ms, a, k, c, alpha) set whose simulated loop matches, and prints the
// fitted parameters plus a per-branch residual report. The multistart
// searches run in concurrent groups (--threads of them), and each group
// evaluates every generation as one packed batch (BatchRunner::run with
// Packing::kExact), so the fit scales across cores while staying bitwise
// reproducible whatever --threads is.
//
// Typical use:
//   ferro_fit --input measured.csv
//   ferro_fit --input measured.csv --tip-weight 4 --coercive-weight 2 \
//             --multistarts 8 --out fitted_curve.csv
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/batch_runner.hpp"
#include "core/scenario.hpp"
#include "fit/fitter.hpp"
#include "fit/objective.hpp"
#include "mag/ja_params.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "wave/sweep.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --input <curve.csv> [options]\n"
      "\n"
      "input\n"
      "  --input PATH        CSV with the measured curve, samples in sweep order\n"
      "  --h-col NAME        field column name (default: h)\n"
      "  --b-col NAME        flux-density column name (default: b)\n"
      "\n"
      "objective\n"
      "  --dhmax V           candidate-model event threshold > 0 [A/m] (default: 25)\n"
      "  --grid N            resample points per monotone branch (default: 64)\n"
      "  --tip-weight W      weight >= 0 of |H| >= 0.75*Hmax points (default: 1)\n"
      "  --coercive-weight W weight >= 0 of |H| <= 0.15*Hmax points (default: 1)\n"
      "\n"
      "search\n"
      "  --multistarts N     independent searches (default: 6)\n"
      "  --restarts N        simplex re-seeds per search (default: 2)\n"
      "  --generations N     packed-batch budget per search group (default: 1500)\n"
      "  --seed N            multistart placement seed (default: 2006)\n"
      "  --threads N         concurrent search groups, 0 = hardware (default: 0)\n"
      "  --fast              evaluate with the FastMath lane (bounded error)\n"
      "\n"
      "output\n"
      "  --out PATH          also write the fitted model's curve as CSV\n",
      argv0);
}

const char* arg_string(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value after %s\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// The value after flag argv[i] as a T (util::parse_number) inside the
/// flag's domain (`in_domain`, when given); exits 2 naming the flag when it
/// is not one.
template <typename T>
T arg_number(int argc, char** argv, int& i, bool (*in_domain)(T) = nullptr) {
  const char* flag = argv[i];
  const char* text = arg_string(argc, argv, i);
  const auto value = ferro::util::parse_number<T>(text);
  if (value && (in_domain == nullptr || in_domain(*value))) return *value;
  std::fprintf(stderr, "bad value '%s' for %s\n", text, flag);
  std::exit(2);
}

bool positive(double v) { return v > 0.0; }
bool non_negative(double v) { return v >= 0.0; }
bool at_least_one(int n) { return n >= 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ferro;

  std::string input, out_path;
  std::string h_col = "h", b_col = "b";
  fit::FitObjectiveOptions obj_opts;
  fit::FitOptions fit_opts;
  mag::TimelessConfig config;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--input") == 0) {
      input = arg_string(argc, argv, i);
    } else if (std::strcmp(arg, "--h-col") == 0) {
      h_col = arg_string(argc, argv, i);
    } else if (std::strcmp(arg, "--b-col") == 0) {
      b_col = arg_string(argc, argv, i);
    } else if (std::strcmp(arg, "--dhmax") == 0) {
      config.dhmax = arg_number<double>(argc, argv, i, positive);
    } else if (std::strcmp(arg, "--grid") == 0) {
      obj_opts.grid_per_segment = arg_number<std::size_t>(
          argc, argv, i, [](std::size_t n) { return n >= 2; });
    } else if (std::strcmp(arg, "--tip-weight") == 0) {
      obj_opts.weights.tip = arg_number<double>(argc, argv, i, non_negative);
    } else if (std::strcmp(arg, "--coercive-weight") == 0) {
      obj_opts.weights.coercive =
          arg_number<double>(argc, argv, i, non_negative);
    } else if (std::strcmp(arg, "--multistarts") == 0) {
      fit_opts.multistarts = arg_number<int>(argc, argv, i, at_least_one);
    } else if (std::strcmp(arg, "--restarts") == 0) {
      fit_opts.restarts =
          arg_number<int>(argc, argv, i, [](int n) { return n >= 0; });
    } else if (std::strcmp(arg, "--generations") == 0) {
      fit_opts.max_generations =
          arg_number<int>(argc, argv, i, at_least_one);
    } else if (std::strcmp(arg, "--seed") == 0) {
      fit_opts.seed = arg_number<std::uint32_t>(argc, argv, i);
    } else if (std::strcmp(arg, "--threads") == 0) {
      fit_opts.threads = arg_number<unsigned>(argc, argv, i);
    } else if (std::strcmp(arg, "--fast") == 0) {
      fit_opts.math = mag::BatchMath::kFast;
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = arg_string(argc, argv, i);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }
  if (input.empty()) {
    usage(argv[0]);
    return 2;
  }

  const util::CsvTable table = util::read_csv(input);
  std::vector<double> h = table.column(h_col);
  std::vector<double> b = table.column(b_col);
  if (h.empty() || b.empty()) {
    std::fprintf(stderr,
                 "%s: could not read columns '%s' and '%s' (found %zu columns, "
                 "%zu rows)\n",
                 input.c_str(), h_col.c_str(), b_col.c_str(),
                 table.columns.size(), table.rows.size());
    return 1;
  }

  // Input hardening: reject malformed measurements before the fitter sees
  // them. A NaN row would poison every candidate's residual silently, a
  // one-row or monotone drive has no loop to fit — each gets exit code 3
  // and a one-line diagnostic instead of a confusing downstream failure.
  if (h.size() < 2) {
    std::fprintf(stderr,
                 "%s: need at least 2 samples to fit a curve (got %zu)\n",
                 input.c_str(), h.size());
    return 3;
  }
  for (std::size_t r = 0; r < h.size(); ++r) {
    if (!std::isfinite(h[r])) {
      std::fprintf(stderr, "%s: non-finite '%s' value at data row %zu\n",
                   input.c_str(), h_col.c_str(), r);
      return 3;
    }
    if (!std::isfinite(b[r])) {
      std::fprintf(stderr, "%s: non-finite '%s' value at data row %zu\n",
                   input.c_str(), b_col.c_str(), r);
      return 3;
    }
  }
  if (wave::find_turning_points(h).empty()) {
    std::fprintf(stderr,
                 "%s: field sweep is monotone (no turning points) — a "
                 "hysteresis fit needs at least one reversal\n",
                 input.c_str());
    return 3;
  }

  try {
    const fit::FitObjective objective(std::move(h), std::move(b), config,
                                      obj_opts);
    std::printf("target: %zu samples, %zu monotone branches resampled to %zu "
                "grid points, Hmax %.1f A/m\n",
                objective.sweep().size(),
                objective.sweep().turning_points.size() + 1,
                objective.grid_size(), objective.h_max());

    const fit::FitResult result = fit::fit_ja_parameters(objective, fit_opts);
    if (!result.stop.ok()) {
      std::fprintf(stderr, "fit stopped: %s\n", result.stop.message().c_str());
      return 1;
    }

    std::printf("\nfitted parameters (%s math, %zu curves over %zu packed "
                "generations, start %d%s):\n",
                to_string(fit_opts.math).data(), result.evaluations,
                result.generations, result.winning_start,
                result.converged ? "" : ", NOT converged");
    std::printf("  ms    = %.6e A/m\n", result.params.ms);
    std::printf("  a     = %.6e A/m\n", result.params.a);
    std::printf("  k     = %.6e A/m\n", result.params.k);
    std::printf("  c     = %.6e\n", result.params.c);
    std::printf("  alpha = %.6e\n", result.params.alpha);

    // Residual report over the fitted model's own curve.
    const core::ScenarioResult fitted =
        core::run_scenario(objective.scenario(result.params, "fitted"));
    if (!fitted.ok()) {
      std::fprintf(stderr, "fitted model failed to simulate: %s\n",
                   fitted.error.message().c_str());
      return 1;
    }
    const fit::ResidualReport report = objective.report(fitted.curve);
    std::printf("\nresidual: %.3e T weighted RMS\n", report.weighted_rms);
    for (std::size_t s = 0; s < report.segments.size(); ++s) {
      const auto& seg = report.segments[s];
      std::printf("  branch %zu  H %9.1f -> %9.1f A/m   rms %.3e T\n", s,
                  seg.h_begin, seg.h_end, seg.rms_b);
    }

    if (!out_path.empty()) {
      if (fitted.curve.write_csv(out_path)) {
        std::printf("\nfitted curve written to %s\n", out_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
