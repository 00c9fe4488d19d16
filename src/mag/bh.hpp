// BH curve containers, core geometry, and sweep runners.
#pragma once

#include <string>
#include <vector>

#include "mag/ja_params.hpp"
#include "util/constants.hpp"
#include "wave/sweep.hpp"

namespace ferro::mag {

/// One point of a hysteresis trajectory.
struct BhPoint {
  double h;  ///< applied field [A/m]
  double m;  ///< magnetisation [A/m]
  double b;  ///< flux density [T]
};

/// An ordered BH trajectory (the thing Fig. 1 plots).
class BhCurve {
 public:
  BhCurve() = default;
  /// Adopts a pre-built trajectory (the batch kernel records into raw
  /// storage and wraps it without copying).
  explicit BhCurve(std::vector<BhPoint> points) : points_(std::move(points)) {}

  void append(double h, double m, double b) { points_.push_back({h, m, b}); }
  void append(const BhPoint& p) { points_.push_back(p); }
  /// Pre-size the storage when the trajectory length is known (the batch
  /// kernel and sweep runners record one point per input sample).
  void reserve(std::size_t n) { points_.reserve(n); }
  /// Drops every point but keeps the storage for the next trajectory.
  void clear() { points_.clear(); }
  /// Hands the storage out and leaves the curve empty without storage —
  /// the inverse of the adopting constructor, for callers that reuse it.
  [[nodiscard]] std::vector<BhPoint> release() { return std::move(points_); }

  [[nodiscard]] const std::vector<BhPoint>& points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  [[nodiscard]] std::vector<double> h_values() const;
  [[nodiscard]] std::vector<double> m_values() const;
  [[nodiscard]] std::vector<double> b_values() const;

  /// Writes "h,m,b" rows; returns false on IO failure.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<BhPoint> points_;
};

/// Magnetic core geometry: converts between the circuit quantities
/// (current, flux linkage, induced voltage) and the field quantities the
/// JA model works in. Toroid/uniform-path approximation, as in every
/// SPICE-level core model.
struct CoreGeometry {
  double area = 1e-4;         ///< cross-section [m^2]
  double path_length = 0.1;   ///< mean magnetic path [m]
  int turns = 100;            ///< winding turns (primary)

  /// H = N*i/l  [A/m]
  [[nodiscard]] double field_from_current(double i) const {
    return static_cast<double>(turns) * i / path_length;
  }
  /// i = H*l/N  [A]
  [[nodiscard]] double current_from_field(double h) const {
    return h * path_length / static_cast<double>(turns);
  }
  /// Core flux phi = B*A [Wb]
  [[nodiscard]] double flux_from_b(double b) const { return b * area; }
  /// Flux linkage lambda = N*phi [Wb-turns]
  [[nodiscard]] double linkage_from_b(double b) const {
    return static_cast<double>(turns) * flux_from_b(b);
  }
};

/// Runs any model with an `apply(h)/magnetisation()/flux_density()`
/// interface through a timeless H sweep, recording every sample.
template <typename Model>
[[nodiscard]] BhCurve run_sweep(Model& model, const wave::HSweep& sweep) {
  BhCurve curve;
  curve.reserve(sweep.size());
  for (const double h : sweep.h) {
    model.apply(h);
    curve.append(h, model.magnetisation(), model.flux_density());
  }
  return curve;
}

}  // namespace ferro::mag
