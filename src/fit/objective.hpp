// FitObjective — the measurement side of JA parameter identification.
//
// A measured B-H loop and a candidate simulation generally sample different
// field points (a data-acquisition system logs wherever it triggered; the
// model emits one point per sweep sample), and B(H) is multivalued over a
// hysteresis loop, so the two curves cannot be compared pointwise. The
// objective splits the target at its turning points into monotone branches,
// lays a uniform H grid over each branch, resamples target and candidate
// onto those grids by linear interpolation, and scores the candidate as the
// weighted RMS flux-density difference over all grid points.
//
// Every candidate is sampled at the same field points (sweep().h), so each
// grid point's bracketing sample indices and interpolation weight are
// fixed at construction. Scoring a candidate is then one allocation-free
// pass that reads two flux samples per grid point.
//
// The excitation replayed into every candidate is the target's own H
// sequence, so branch k of the candidate curve covers the same field span
// as branch k of the target and the per-branch grids compare like with
// like. Optional region weights emphasise the loop tips (saturation level,
// where Ms dominates) or the coercive zone (loop width, where k dominates)
// relative to the shoulders.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"

namespace ferro::fit {

/// Per-region emphasis of the residual. All-1 weights reduce the score to
/// the plain RMS flux difference. Regions are classified by |H| relative to
/// the largest target field: tips are |H| >= tip_fraction * h_max, the
/// coercive zone is |H| <= coercive_fraction * h_max.
struct FitWeights {
  double tip = 1.0;               ///< weight of the near-saturation points
  double coercive = 1.0;          ///< weight of the low-field (loop-width) points
  double tip_fraction = 0.75;     ///< |H|/h_max above which a point is a tip
  double coercive_fraction = 0.15;  ///< |H|/h_max below which it is coercive
};

struct FitObjectiveOptions {
  /// Resample grid points per monotone branch of the target.
  std::size_t grid_per_segment = 64;
  FitWeights weights;
};

/// Residual breakdown of one candidate against the target (per monotone
/// branch plus the aggregate) — what ferro_fit prints as its report.
struct ResidualReport {
  struct Segment {
    double h_begin = 0.0;  ///< field at the branch start [A/m]
    double h_end = 0.0;    ///< field at the branch end [A/m]
    double rms_b = 0.0;    ///< unweighted RMS flux difference [T]
  };
  std::vector<Segment> segments;
  double weighted_rms = 0.0;  ///< the value residual() returns [T]
};

class FitObjective {
 public:
  /// Builds the objective from measured (h, b) samples in sweep order. The
  /// forward-model discretisation `config` is what every candidate runs
  /// with; its default (no sub-stepping) keeps the whole
  /// generation inside the packed SoA subset. Throws std::invalid_argument
  /// when the target has fewer than two samples, a non-finite sample, or a
  /// branch with fewer than two distinct field values, and when a region
  /// weight is negative or non-finite or the weights sum to zero.
  FitObjective(std::vector<double> h, std::vector<double> b,
               mag::TimelessConfig config = {}, FitObjectiveOptions options = {});

  /// Convenience: target from a simulated/loaded BhCurve.
  explicit FitObjective(const mag::BhCurve& target,
                        mag::TimelessConfig config = {},
                        FitObjectiveOptions options = {});

  /// Model-contract constructor: the spec names which backend candidates
  /// run on. For a JaSpec only its `config` matters here (candidates
  /// supply the parameters); the JA identification entry point
  /// (fit_ja_parameters) rejects any other spec with kInvalidScenario
  /// before evaluating a single candidate.
  FitObjective(std::vector<double> h, std::vector<double> b,
               core::ModelSpec model, FitObjectiveOptions options = {});

  /// The excitation every candidate replays (the target's own H sequence).
  [[nodiscard]] const wave::HSweep& sweep() const { return sweep_; }

  /// The model spec candidates are scored against (JaSpec by default).
  [[nodiscard]] const core::ModelSpec& model() const { return model_; }

  /// The JA discretisation every candidate runs with (std::get semantics:
  /// throws when the objective was built over a non-JA spec).
  [[nodiscard]] const mag::TimelessConfig& config() const {
    return std::get<core::JaSpec>(model_).config;
  }

  /// One candidate as a batch job (kDirect, packable with the default
  /// config). Whole generations go through core::scenarios_for_parameters
  /// with sweep() and config() instead.
  [[nodiscard]] core::Scenario scenario(const mag::JaParameters& params,
                                        std::string name = "candidate") const;

  /// Weighted RMS flux-density difference [T] between `candidate` (sampled
  /// at sweep()'s points, i.e. a result of scenario()) and the target.
  /// Returns +infinity when the candidate cannot be compared (a field
  /// column other than sweep().h, or non-finite flux), so failed
  /// simulations lose to any valid fit.
  [[nodiscard]] double residual(const mag::BhCurve& candidate) const;

  /// residual() plus the per-branch breakdown.
  [[nodiscard]] ResidualReport report(const mag::BhCurve& candidate) const;

  /// Total resample grid points across all branches.
  [[nodiscard]] std::size_t grid_size() const { return grid_.size(); }

  /// Largest |H| of the target [A/m] (the region-weight reference).
  [[nodiscard]] double h_max() const { return h_max_; }

 private:
  /// One monotone branch of the target: the index range [begin, end] into
  /// the sweep and the range [grid_begin, grid_end) into the flat grids.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grid_begin = 0;
    std::size_t grid_end = 0;
  };

  /// One grid point's resampling rule, fixed by sweep_.h: the flux there
  /// is b[lo] + t * (b[hi] - b[lo]), or b[lo] itself where the grid point
  /// clamps onto a branch end (lo == hi).
  struct GridSample {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double t = 0.0;
  };

  /// The GridSample of field `hq` on a branch whose ascending sample
  /// indices are `branch` (util::lerp_at's bracket search over h alone).
  [[nodiscard]] static GridSample bracket(const std::vector<double>& h,
                                          const std::vector<std::size_t>& branch,
                                          double hq);

  /// True when `candidate` is sampled at exactly sweep_.h.
  [[nodiscard]] bool on_sweep(const mag::BhCurve& candidate) const;

  /// Candidate flux minus target flux at grid point g.
  [[nodiscard]] double misfit(const mag::BhPoint* candidate,
                              std::size_t g) const;

  /// sqrt(acc / weight_sum_), or +infinity when that is not finite.
  [[nodiscard]] double weighted_rms(double acc) const;

  wave::HSweep sweep_;
  core::ModelSpec model_;
  FitObjectiveOptions options_;
  std::vector<Segment> segments_;
  std::vector<GridSample> grid_;     ///< flat resample grid (all branches)
  std::vector<double> grid_weight_;  ///< per-grid-point region weight
  std::vector<double> target_b_;     ///< target resampled onto grid_
  double h_max_ = 0.0;
  double weight_sum_ = 0.0;
};

}  // namespace ferro::fit
