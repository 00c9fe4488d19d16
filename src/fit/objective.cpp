#include "fit/objective.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/interp.hpp"

namespace ferro::fit {

namespace {

/// The sample indices of [begin, end] in ascending field order, for
/// interpolating along the branch: a falling branch is walked backwards,
/// and samples that do not advance the field (a stalled acquisition, or the
/// sweep's exact turning sample) are dropped so the fields strictly rise.
void ascending_branch(const std::vector<double>& h, std::size_t begin,
                      std::size_t end, std::vector<std::size_t>& out) {
  out.clear();
  const auto push = [&](std::size_t i) {
    if (!out.empty() && h[i] <= h[out.back()]) return;
    out.push_back(i);
  };
  if (h[end] >= h[begin]) {
    for (std::size_t i = begin; i <= end; ++i) push(i);
  } else {
    for (std::size_t i = end + 1; i-- > begin;) push(i);
  }
}

/// Flux at a grid point from sample accessor `b`: b(lo) + t * (b(hi) -
/// b(lo)), or b(lo) itself where the grid point clamps onto a branch end.
template <class Sample, class Flux>
double interpolate(const Sample& s, Flux b) {
  const double lo = b(s.lo);
  return s.lo == s.hi ? lo : lo + s.t * (b(s.hi) - lo);
}

}  // namespace

FitObjective::FitObjective(const mag::BhCurve& target,
                           mag::TimelessConfig config,
                           FitObjectiveOptions options)
    : FitObjective(target.h_values(), target.b_values(), config, options) {}

FitObjective::FitObjective(std::vector<double> h, std::vector<double> b,
                           mag::TimelessConfig config,
                           FitObjectiveOptions options)
    : FitObjective(std::move(h), std::move(b),
                   core::ModelSpec(core::JaSpec{{}, config}),
                   std::move(options)) {}

FitObjective::FitObjective(std::vector<double> h, std::vector<double> b,
                           core::ModelSpec model, FitObjectiveOptions options)
    : model_(std::move(model)), options_(options) {
  if (h.size() != b.size()) {
    throw std::invalid_argument("fit target: h and b column sizes differ");
  }
  if (h.size() < 2) {
    throw std::invalid_argument("fit target: needs at least two samples");
  }
  if (options_.grid_per_segment < 2) {
    throw std::invalid_argument("fit objective: grid_per_segment must be >= 2");
  }
  for (const double v : h) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("fit target: non-finite field sample");
    }
    h_max_ = std::max(h_max_, std::fabs(v));
  }
  if (h_max_ == 0.0) {
    throw std::invalid_argument("fit target: field is identically zero");
  }
  for (const double v : b) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("fit target: non-finite flux sample");
    }
  }

  sweep_.h = std::move(h);
  sweep_.turning_points = wave::find_turning_points(sweep_.h);

  // Branch boundaries: start, every turning point, end.
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  for (const std::size_t t : sweep_.turning_points) {
    if (t > bounds.back() && t < sweep_.h.size() - 1) bounds.push_back(t);
  }
  bounds.push_back(sweep_.h.size() - 1);

  const FitWeights& w = options_.weights;
  // A negative weight would reward misfit in its region.
  if (!(std::isfinite(w.tip) && w.tip >= 0.0 && std::isfinite(w.coercive) &&
        w.coercive >= 0.0)) {
    throw std::invalid_argument(
        "fit objective: weights must be finite and >= 0");
  }
  std::vector<std::size_t> branch;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    Segment seg;
    seg.begin = bounds[s];
    seg.end = bounds[s + 1];
    ascending_branch(sweep_.h, seg.begin, seg.end, branch);
    if (branch.size() < 2) {
      throw std::invalid_argument(
          "fit target: a branch has fewer than two distinct field values");
    }
    seg.grid_begin = grid_.size();
    const auto grid = util::linspace(sweep_.h[branch.front()],
                                     sweep_.h[branch.back()],
                                     options_.grid_per_segment);
    for (const double hq : grid) {
      grid_.push_back(bracket(sweep_.h, branch, hq));
      target_b_.push_back(
          interpolate(grid_.back(), [&b](std::size_t i) { return b[i]; }));
      const double ah = std::fabs(hq);
      double weight = 1.0;
      if (ah >= w.tip_fraction * h_max_) {
        weight = w.tip;
      } else if (ah <= w.coercive_fraction * h_max_) {
        weight = w.coercive;
      }
      grid_weight_.push_back(weight);
      weight_sum_ += weight;
    }
    seg.grid_end = grid_.size();
    segments_.push_back(seg);
  }
  if (weight_sum_ <= 0.0) {
    throw std::invalid_argument("fit objective: weights sum to zero");
  }
}

core::Scenario FitObjective::scenario(const mag::JaParameters& params,
                                      std::string name) const {
  core::Scenario s;
  s.name = std::move(name);
  s.model = core::JaSpec{params, config()};
  s.drive = sweep_;
  s.frontend = core::Frontend::kDirect;
  return s;
}

FitObjective::GridSample FitObjective::bracket(
    const std::vector<double>& h, const std::vector<std::size_t>& branch,
    double hq) {
  // util::lerp_at over the table (h[branch[j]], b[branch[j]]), split into
  // the part that depends on h alone (done here, once) and the part that
  // reads b (interpolate): the flux comes out bitwise what lerp_at returns.
  // The branch fields strictly rise, so lerp_at's zero-span case is moot.
  if (std::isnan(hq)) {
    return {branch[0], branch[1], std::numeric_limits<double>::quiet_NaN()};
  }
  if (hq <= h[branch.front()]) return {branch.front(), branch.front(), 0.0};
  if (hq >= h[branch.back()]) return {branch.back(), branch.back(), 0.0};
  const auto it = std::upper_bound(
      branch.begin(), branch.end(), hq,
      [&h](double q, std::size_t i) { return q < h[i]; });
  const std::size_t lo = *(it - 1);
  const std::size_t hi = *it;
  return {lo, hi, (hq - h[lo]) / (h[hi] - h[lo])};
}

bool FitObjective::on_sweep(const mag::BhCurve& candidate) const {
  const auto& points = candidate.points();
  if (points.size() != sweep_.h.size()) return false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].h != sweep_.h[i]) return false;
  }
  return true;
}

double FitObjective::misfit(const mag::BhPoint* candidate,
                            std::size_t g) const {
  return interpolate(grid_[g],
                     [candidate](std::size_t i) { return candidate[i].b; }) -
         target_b_[g];
}

double FitObjective::weighted_rms(double acc) const {
  const double r = std::sqrt(acc / weight_sum_);
  return std::isfinite(r) ? r : std::numeric_limits<double>::infinity();
}

double FitObjective::residual(const mag::BhCurve& candidate) const {
  if (!on_sweep(candidate)) return std::numeric_limits<double>::infinity();
  // All-1 weights make this exactly util::rms_diff over the grid: the
  // weight sum is then the grid size, and 1 * d * d == d * d.
  const mag::BhPoint* points = candidate.points().data();
  double acc = 0.0;
  for (std::size_t g = 0; g < grid_.size(); ++g) {
    const double d = misfit(points, g);
    acc += grid_weight_[g] * d * d;
  }
  return weighted_rms(acc);
}

ResidualReport FitObjective::report(const mag::BhCurve& candidate) const {
  ResidualReport rep;
  if (!on_sweep(candidate)) {
    rep.weighted_rms = std::numeric_limits<double>::infinity();
    return rep;
  }
  const mag::BhPoint* points = candidate.points().data();
  double acc = 0.0;
  rep.segments.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    double sum = 0.0;
    for (std::size_t g = seg.grid_begin; g < seg.grid_end; ++g) {
      const double d = misfit(points, g);
      acc += grid_weight_[g] * d * d;
      sum += d * d;
    }
    const auto n = static_cast<double>(seg.grid_end - seg.grid_begin);
    rep.segments.push_back(
        {sweep_.h[seg.begin], sweep_.h[seg.end], std::sqrt(sum / n)});
  }
  rep.weighted_rms = weighted_rms(acc);
  if (!std::isfinite(rep.weighted_rms)) rep.segments.clear();
  return rep;
}

}  // namespace ferro::fit
