#include "util/interp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ferro::util {

double lerp_at(std::span<const double> xs, std::span<const double> ys, double xq) {
  assert(xs.size() == ys.size());
  if (xs.empty()) return 0.0;
  // A NaN query compares false against everything, so it would fall through
  // the clamps into upper_bound with an unordered predicate (hi = 0, lo
  // underflows). Propagate it instead: NaN in, NaN out.
  if (std::isnan(xq)) return std::numeric_limits<double>::quiet_NaN();
  if (xq <= xs.front()) return ys.front();
  if (xq >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), xq);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double span = xs[hi] - xs[lo];
  if (span <= 0.0) return ys[lo];
  const double t = (xq - xs[lo]) / span;
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

std::vector<double> resample(std::span<const double> xs, std::span<const double> ys,
                             std::span<const double> xq) {
  std::vector<double> out;
  out.reserve(xq.size());
  for (const double x : xq) out.push_back(lerp_at(xs, ys, x));
  return out;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  // Explicit degenerate grids: the assert-only guard was UB in Release
  // (n == 0 underflowed n - 1 and called .back() on an empty vector).
  if (n == 0) return {};
  if (n == 1) return {lo};
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;  // avoid accumulated rounding at the end point
  return out;
}

}  // namespace ferro::util
