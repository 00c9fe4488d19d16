#include "analysis/loop_metrics.hpp"

#include <cassert>
#include <cmath>

namespace ferro::analysis {

double LoopAccumulator::twice_signed_area() const {
  if (points_ < 3) return 0.0;
  return twice_area_ + shoelace_term(last_h_, last_b_, first_h_, first_b_);
}

LoopMetrics LoopAccumulator::metrics() const {
  LoopMetrics metrics;
  if (points_ == 0) return metrics;
  metrics.h_peak = h_peak_;
  metrics.b_peak = b_peak_;
  metrics.points = points_;
  metrics.area = std::fabs(0.5 * twice_signed_area());

  // An exact zero at the last point has no following segment to report it.
  AbsMean remanence = remanence_;
  AbsMean coercivity = coercivity_;
  if (last_h_ == 0.0) remanence(last_b_);
  if (last_b_ == 0.0) coercivity(last_h_);
  if (remanence.count != 0) {
    metrics.remanence = remanence.sum / static_cast<double>(remanence.count);
  }
  if (coercivity.count != 0) {
    metrics.coercivity = coercivity.sum / static_cast<double>(coercivity.count);
  }
  return metrics;
}

double enclosed_area(std::span<const double> h, std::span<const double> b) {
  assert(h.size() == b.size());
  LoopAccumulator loop;
  for (std::size_t i = 0; i < h.size(); ++i) loop.add(h[i], b[i]);
  return 0.5 * loop.twice_signed_area();
}

std::vector<double> values_at_zero_of(std::span<const double> x,
                                      std::span<const double> y) {
  assert(x.size() == y.size());
  std::vector<double> out;
  const auto emit = [&out](double value) { out.push_back(value); };
  for (std::size_t i = 1; i < x.size(); ++i) {
    detail::zero_crossing(x[i - 1], y[i - 1], x[i], y[i], emit);
  }
  if (!x.empty() && x.back() == 0.0) out.push_back(y.back());
  return out;
}

LoopMetrics analyze_loop(const mag::BhCurve& curve, std::size_t begin,
                         std::size_t end) {
  if (curve.empty() || end >= curve.size() || begin > end) return {};
  const auto& pts = curve.points();
  LoopAccumulator loop;
  for (std::size_t i = begin; i <= end; ++i) loop.add(pts[i]);
  return loop.metrics();
}

LoopMetrics analyze_loop(const mag::BhCurve& curve) {
  if (curve.empty()) return {};
  return analyze_loop(curve, 0, curve.size() - 1);
}

std::vector<std::pair<std::size_t, std::size_t>> monotone_branches(
    const mag::BhCurve& curve) {
  std::vector<std::pair<std::size_t, std::size_t>> branches;
  const auto& pts = curve.points();
  if (pts.size() < 2) return branches;

  std::size_t start = 0;
  double dir = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double dh = pts[i].h - pts[i - 1].h;
    if (dh == 0.0) continue;
    const double d = dh > 0.0 ? 1.0 : -1.0;
    if (dir == 0.0) {
      dir = d;
    } else if (d != dir) {
      branches.emplace_back(start, i - 1);
      start = i - 1;
      dir = d;
    }
  }
  branches.emplace_back(start, pts.size() - 1);
  return branches;
}

double closure_error(const mag::BhCurve& curve, std::size_t begin,
                     std::size_t end) {
  if (curve.empty() || end >= curve.size() || begin > end) return 0.0;
  return std::fabs(curve.points()[end].b - curve.points()[begin].b);
}

}  // namespace ferro::analysis
