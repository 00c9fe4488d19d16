// Piecewise-linear interpolation and curve resampling.
//
// Used by analysis code to compare BH curves sampled at different field
// points (different frontends take different step sequences, so curves must
// be resampled onto a common axis before computing RMS differences).
#pragma once

#include <span>
#include <vector>

namespace ferro::util {

/// Linear interpolation of y(x) at `xq`, where `xs` is strictly increasing.
/// Values outside the range clamp to the end values; a NaN query propagates
/// as NaN instead of being silently interpolated.
[[nodiscard]] double lerp_at(std::span<const double> xs, std::span<const double> ys,
                             double xq);

/// Resample y(x) at each point of `xq` with lerp_at.
[[nodiscard]] std::vector<double> resample(std::span<const double> xs,
                                           std::span<const double> ys,
                                           std::span<const double> xq);

/// Uniformly spaced grid of `n` points spanning [lo, hi]. Degenerate counts
/// are well-defined: n == 0 gives an empty grid, n == 1 gives {lo}.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace ferro::util
