// fit_ja_parameters — batch-powered identification of the JA parameter set.
//
// Forward problem: parameters -> BH loop (what the rest of the repo does).
// This layer solves the inverse: given a measured loop, find (Ms, a, k, c,
// alpha) whose simulated loop matches it. The search runs M independent
// Nelder-Mead instances (multistart, deterministic seeding). The instances
// share nothing until the winner is picked, so they are split into
// contiguous groups of ceil(M / T) (T = FitOptions::threads), and each group
// runs as one core::ThreadPool task with no barrier between groups. Within a
// group the instances advance in lockstep: every generation gathers each
// live instance's pending trial points, decodes them into parameter sets,
// and evaluates them as ONE homogeneous kDirect batch through a serial,
// packed BatchRunner::run — the SoA kernel treats an optimizer generation
// like any other material sweep. An instance's candidates score the same
// whichever group they share a batch with, so the result does not depend
// on the thread count. With BatchMath::kExact the evaluations are bitwise
// identical to the serial model, so a fit is reproducible across machines
// and --threads settings; kFast trades bounded error for speed.
//
// Search space: ms, a, k, alpha span decades, so they are encoded
// log-uniformly over their bounds; c is bounded in [0, 1) and encoded
// linearly. All five coordinates are normalised to [0, 1], decoded with a
// clamp, and penalised smoothly outside the box so the unconstrained
// simplex is steered back instead of wandering.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/cancel.hpp"
#include "fit/objective.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace ferro::fit {

/// Box bounds of the identified parameters. ms/a/k/alpha are searched in
/// log space (their plausible ranges span decades), c linearly.
struct FitBounds {
  double ms_lo = 1e4, ms_hi = 1e7;        ///< [A/m]
  double a_lo = 10.0, a_hi = 1e5;         ///< [A/m]
  double k_lo = 10.0, k_hi = 1e5;         ///< [A/m]
  double c_lo = 0.0, c_hi = 0.95;         ///< [-]
  double alpha_lo = 1e-6, alpha_hi = 0.1; ///< [-]
};

struct FitOptions {
  FitBounds bounds;
  /// Independent Nelder-Mead instances searching in parallel. The first
  /// starts from `start` (when inside the bounds), the rest from
  /// deterministic seeded positions.
  int multistarts = 6;
  /// Simplex re-seeds around the incumbent after convergence, each at half
  /// the previous edge length (escapes collapsed simplices).
  int restarts = 2;
  /// Generation cap of each group (one generation = one packed batch
  /// covering every live instance of the group), so no instance is asked
  /// for points more than this many times.
  int max_generations = 1500;
  double f_tol = 1e-14;         ///< simplex value-spread tolerance [T]
  double x_tol = 1e-10;         ///< simplex diameter tolerance (normalised)
  double initial_scale = 0.15;  ///< first simplex edge (normalised coords)
  /// Concurrent instance groups T (0 = hardware concurrency): the
  /// instances split into contiguous groups of ceil(multistarts / T), each
  /// searched by one pool worker with its own serial packed batches. Any T
  /// gives the same result.
  unsigned threads = 0;
  mag::BatchMath math = mag::BatchMath::kExact;
  std::uint32_t seed = 2006;    ///< multistart placement seed
  /// Template for the non-identified fields (anhysteretic kind, a2, blend)
  /// and the first instance's starting point.
  mag::JaParameters start;
  /// Cooperative cancellation/deadline for the whole fit. The token and the
  /// remaining deadline are threaded into every generation's packed batch,
  /// and the fit itself stops at the next generation boundary — the
  /// incumbent best found so far is still returned (FitResult::stop says
  /// why the search ended early). max_errors is not applied at the fit
  /// level: an out-of-box candidate failing to simulate is a normal,
  /// infinitely-penalised probe, not a fault.
  core::RunLimits limits;
};

struct FitResult {
  mag::JaParameters params;     ///< best parameter set found
  double residual = 0.0;        ///< objective at `params` [T RMS]
  /// The most generations any group ran (one packed batch each).
  std::size_t generations = 0;
  std::size_t evaluations = 0;  ///< forward curves simulated, all groups
  int winning_start = -1;       ///< which multistart produced `params`
  bool converged = false;       ///< the winner's simplex met the tolerances
  /// kOk when the search ran to its natural end; kCancelled /
  /// kDeadlineExceeded when FitOptions::limits stopped it early (params
  /// then hold the best point seen before the stop); kInvalidScenario when
  /// no candidate could run (an objective over a non-JA model, or a
  /// discretisation core::validate_config rejects), with no evaluation made
  /// and an infinite residual.
  core::Error stop;
};

/// Runs the multistart Nelder-Mead search against `objective`. Throws
/// std::invalid_argument for malformed bounds, multistarts < 1, restarts < 0
/// or max_generations < 1.
[[nodiscard]] FitResult fit_ja_parameters(const FitObjective& objective,
                                          const FitOptions& options = {});

}  // namespace ferro::fit
