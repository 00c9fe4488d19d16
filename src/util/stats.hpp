// Streaming statistics and vector error metrics.
#pragma once

#include <cstddef>
#include <span>

namespace ferro::util {

/// Welford-style running accumulator: mean/variance/min/max in one pass.
class RunningStats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples). Clamped at 0
  /// so floating-point cancellation can never surface a negative variance —
  /// and stddev() therefore never returns NaN.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Root-mean-square of `values` (0 for an empty span).
[[nodiscard]] double rms(std::span<const double> values);

/// RMS of the pointwise difference a[i]-b[i]; spans must be equal length.
[[nodiscard]] double rms_diff(std::span<const double> a, std::span<const double> b);

/// Largest |a[i]-b[i]|; spans must be equal length.
[[nodiscard]] double max_abs_diff(std::span<const double> a, std::span<const double> b);

}  // namespace ferro::util
