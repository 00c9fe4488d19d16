#include "analysis/loop_metrics.hpp"

#include <cassert>
#include <cmath>

namespace ferro::analysis {

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
  for (std::size_t i = 1; i < x.size(); ++i) {
    const auto crossing = detail::zero_crossing<mag::fastmath::VecD<1>>(
        x[i - 1], y[i - 1], x[i], y[i]);
    if (crossing.reports) out.push_back(crossing.value);
  }
  if (!x.empty() && x.back() == 0.0) out.push_back(y.back());
  return out;
}

LoopMetrics analyze_loop(const mag::BhCurve& curve, std::size_t begin,
                         std::size_t end) {
  if (curve.empty() || end >= curve.size() || begin > end) return {};
  const auto& pts = curve.points();
  LoopAccumulator loop;
  for (std::size_t i = begin; i <= end; ++i) loop.add(pts[i].h, pts[i].b);
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
