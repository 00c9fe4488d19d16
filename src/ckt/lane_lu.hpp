// ckt::LaneLu — factors and solves up to W independent MNA systems of one
// size together, lane-wise over mag::fastmath::VecD<W>, each lane bitwise
// equal to ams::LuSolver::factor + solve on its own system (x and the
// singular verdict; property-tested in tests/test_lane_lu.cpp).
//
// This is how ckt::MonteCarlo's packed lockstep group solves the Newton
// systems of its live corners (ckt/monte_carlo.cpp): every corner of a group
// linearises its own latched branch with the same operation sequence, so W
// of them share one vector pass. W is the process-wide SIMD pick,
// mag::TimelessJaBatch::active_simd_width() (capped by
// FERRO_FORCE_SIMD_WIDTH); a block with fewer live systems runs at the
// narrowest available width that covers them, with identity systems in the
// idle lanes. The kernel lives in ckt/lane_lu_kernel.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ams/matrix.hpp"

namespace ferro::ckt {

namespace detail {
struct LaneLuArgs;
}  // namespace detail

class LaneLu {
 public:
  /// Most systems one block holds: the active SIMD width.
  [[nodiscard]] static std::size_t max_lanes();

  /// Starts a block of `lanes` (1..max_lanes()) systems of n unknowns.
  void reset(std::size_t n, std::size_t lanes);

  /// Copies system `lane` in: `a` is n x n, `b` has n entries.
  void load(std::size_t lane, const ams::Matrix& a, std::span<const double> b);

  /// Factors and solves every lane of the block.
  void solve();

  /// Lane `lane`'s verdict after solve(): LuSolver::factor returned false.
  [[nodiscard]] bool singular(std::size_t lane) const {
    return singular_[lane] != 0.0;
  }

  /// Copies lane `lane`'s solution (n entries) out; regular lanes only.
  void store(std::size_t lane, std::span<double> x) const;

  /// Lane count of the pass the block runs at (>= its system count).
  [[nodiscard]] std::size_t width() const { return width_; }

 private:
  std::size_t n_ = 0;
  std::size_t width_ = 1;
  void (*fn_)(const detail::LaneLuArgs&) = nullptr;
  std::vector<double> a_, b_, x_, singular_;
};

}  // namespace ferro::ckt
