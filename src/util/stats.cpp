#include "util/stats.hpp"

#include <cassert>
#include <cmath>

namespace ferro::util {

void RunningStats::add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  // Welford's m2 update is not exactly non-negative in floating point:
  // near-identical samples around a large mean can cancel catastrophically
  // and leave a tiny negative residue, which would make stddev() NaN.
  if (m2_ <= 0.0) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double rms(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v * v;
  return std::sqrt(sum / static_cast<double>(values.size()));
}

double rms_diff(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (d > worst) worst = d;
  }
  return worst;
}

}  // namespace ferro::util
