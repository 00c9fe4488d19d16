#include "mag/energy_based_batch.hpp"

#include <cassert>

#include "util/constants.hpp"

namespace ferro::mag {

EnergyBasedBatch::EnergyBasedBatch(BatchMath math) : math_(math) {}

std::size_t EnergyBasedBatch::add_lane(const EnergyBasedParams& params) {
  assert(params.is_valid());
  assert(supports(params));
  // The scalar model is the single source of truth for the pinning tables:
  // constructing one and copying its slabs guarantees the batch lane starts
  // from bitwise-identical constants and virgin state.
  const EnergyBased scalar(params);
  const std::size_t offset = xi_.size();

  offset_.push_back(offset);
  cells_.push_back(params.cells);
  xi_.insert(xi_.end(), scalar.state().xi.begin(), scalar.state().xi.end());
  man_.insert(man_.end(), scalar.state().man.begin(), scalar.state().man.end());
  kappa_.insert(kappa_.end(), scalar.kappa_table().begin(),
                scalar.kappa_table().end());
  weight_.insert(weight_.end(), scalar.weight_table().begin(),
                 scalar.weight_table().end());
  diss_.insert(diss_.end(), scalar.dissipation_table().begin(),
               scalar.dissipation_table().end());
  assert(xi_.size() == offset + static_cast<std::size_t>(params.cells));

  m_total_.push_back(0.0);
  present_h_.push_back(0.0);
  c_rev_.push_back(params.c_rev);
  ms_.push_back(params.ms);
  an_.push_back(scalar.anhysteretic());
  stats_.emplace_back();
  return n_++;
}

void EnergyBasedBatch::step_lane(std::size_t i, double h) {
  ++stats_[i].samples;
  const std::size_t off = offset_[i];
  const energy_detail::CellArrays cells{kappa_.data() + off,
                                        weight_.data() + off,
                                        diss_.data() + off,
                                        xi_.data() + off,
                                        man_.data() + off,
                                        cells_[i]};
  const double m_hyst = energy_detail::play_update(an_[i], h, cells, stats_[i]);
  m_total_[i] = c_rev_[i] * an_[i].man(h) + m_hyst;
  present_h_[i] = h;
}

void EnergyBasedBatch::run(const std::vector<const wave::HSweep*>& sweeps,
                           std::vector<BhCurve>& curves) {
  std::vector<analysis::CurveFinish> unused(n_);
  run(sweeps, curves, unused);
}

void EnergyBasedBatch::run(const std::vector<const wave::HSweep*>& sweeps,
                           std::vector<BhCurve>& curves,
                           std::vector<analysis::CurveFinish>& finish) {
  assert(sweeps.size() == n_);
  assert(finish.size() == n_);
  curves.resize(n_);
  for (analysis::CurveFinish& f : finish) {
    f.loop = {};
    f.finite = true;
  }
  // Lane-major: each lane runs its full (possibly ragged) sweep to
  // completion. The play update is branch-dominated, so there is no SIMD
  // lockstep to preserve across lanes, and lane-major keeps each lane's
  // cell slab hot in cache for the whole sweep.
  for (std::size_t i = 0; i < n_; ++i) {
    const wave::HSweep& sweep = *sweeps[i];
    BhCurve& curve = curves[i];
    analysis::CurveFinish lane = finish[i];
    curve.clear();
    curve.reserve(sweep.h.size());
    for (std::size_t j = 0; j < sweep.h.size(); ++j) {
      const double h = sweep.h[j];
      step_lane(i, h);
      const double m = ms_[i] * m_total_[i];
      const double b = util::kMu0 * (m + h);
      curve.append(h, m, b);
      lane.add(j, h, m, b);
    }
    finish[i] = lane;
  }
}

double EnergyBasedBatch::flux_density(std::size_t lane) const {
  return util::kMu0 * (magnetisation(lane) + present_h_[lane]);
}

}  // namespace ferro::mag
