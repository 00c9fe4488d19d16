// EnergyBasedBatch — structure-of-arrays batch kernel for the energy-based
// play-operator model: N independent lanes advance through their sweeps over
// contiguous state arrays (per-cell play states and anhysteretic caches in
// one flat slab, per-lane offsets), the energy-model counterpart of
// mag::TimelessJaBatch behind BatchRunner's packed pipeline.
//
// Exactness: every lane executes energy_detail::play_update — the SAME
// inline function the scalar model calls — over its SoA slice, so batch
// results (curve, stats, dissipated energy) are bitwise identical to
// running a scalar EnergyBased per lane by construction, whatever the lane
// grouping or thread partition. Both BatchMath modes execute this exact
// path: the play update is dominated by per-cell branches (yield tests)
// rather than the transcendental chain the JA FastMath lane vectorises, so
// there is no approximate lane to opt into (yet) and kFast is accepted as a
// synonym to keep run-level math selection model-agnostic.
//
// Unlike the JA kernel there is no config subset to gate on: the play
// update has no integrator scheme or sub-stepping. The only packability
// condition is quasi-static parameters (`supports`): a lane with
// tau_dyn > 0 needs the time axis only the serial time-driven path carries.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/loop_metrics.hpp"
#include "mag/anhysteretic.hpp"
#include "mag/bh.hpp"
#include "mag/energy_based.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "wave/sweep.hpp"

namespace ferro::mag {

class EnergyBasedBatch {
 public:
  explicit EnergyBasedBatch(BatchMath math = BatchMath::kExact);

  /// True when a lane with these parameters is packable: the quasi-static
  /// model (tau_dyn == 0). The dynamic/excess-loss term needs per-sample dt.
  [[nodiscard]] static bool supports(const EnergyBasedParams& params) {
    return params.tau_dyn == 0.0;
  }

  /// Appends a lane in the demagnetised virgin state; returns its index.
  /// `params` must be valid and supported (asserted, like the scalar
  /// model's constructor). Lanes may differ in cell count.
  std::size_t add_lane(const EnergyBasedParams& params);

  [[nodiscard]] std::size_t lanes() const { return n_; }
  [[nodiscard]] BatchMath math() const { return math_; }

  /// Drives lane i through sweeps[i] (ragged lengths allowed), recording
  /// every sample of lane i into curves[i]. `sweeps` must have lanes()
  /// entries; `curves` is resized to lanes(), and each curve's contents
  /// are replaced in the storage it already holds (cleared, then appended
  /// to) — the storage contract of TimelessJaBatch::run, bitwise the same
  /// whatever the curves held.
  void run(const std::vector<const wave::HSweep*>& sweeps,
           std::vector<BhCurve>& curves);

  /// run() that finishes every lane as its points are recorded — the
  /// contract of TimelessJaBatch's finishing overload: finish[i] (lanes()
  /// entries, begin/count set) ends as curves[i] walked through a fresh
  /// analysis::CurveFinish would leave it.
  void run(const std::vector<const wave::HSweep*>& sweeps,
           std::vector<BhCurve>& curves,
           std::vector<analysis::CurveFinish>& finish);

  // Per-lane views, mirroring the scalar accessors.
  [[nodiscard]] double magnetisation(std::size_t lane) const {
    return ms_[lane] * m_total_[lane];
  }
  [[nodiscard]] double flux_density(std::size_t lane) const;
  [[nodiscard]] const EnergyStats& stats(std::size_t lane) const {
    return stats_[lane];
  }

 private:
  /// One update of lane i at field h — the scalar model's step() over the
  /// lane's SoA slice.
  void step_lane(std::size_t i, double h);

  BatchMath math_;
  std::size_t n_ = 0;

  // Flat per-cell slabs; lane i owns [offset_[i], offset_[i] + cells_[i]).
  std::vector<double> xi_;
  std::vector<double> man_;
  std::vector<double> kappa_;
  std::vector<double> weight_;
  std::vector<double> diss_;
  std::vector<std::size_t> offset_;
  std::vector<int> cells_;

  // Per-lane state and constants.
  std::vector<double> m_total_;
  std::vector<double> present_h_;
  std::vector<double> c_rev_;
  std::vector<double> ms_;
  std::vector<Anhysteretic> an_;
  std::vector<EnergyStats> stats_;
};

}  // namespace ferro::mag
