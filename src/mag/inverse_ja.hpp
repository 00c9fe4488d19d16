// InverseTimelessJa — the flux-driven (inverse) form of the timeless model.
//
// Circuit formulations that solve flux linkage (voltage-driven windings
// integrate v = d(lambda)/dt, so B is the natural state) need H(B) rather
// than B(H). The inverse model wraps TimelessJa with a per-sample scalar
// Newton/bisection solve of
//
//     mu0 * (H + M(H)) = B_target
//
// where M(H) is evaluated without moving the forward model
// (TimelessJa::flux_density_at), so the hysteresis state only advances once
// per accepted sample — the same commit discipline the circuit devices use.
#pragma once

#include "mag/timeless_ja.hpp"

namespace ferro::mag {

struct InverseConfig {
  TimelessConfig forward;      ///< discretisation of the wrapped model
  double tolerance_b = 1e-9;   ///< |B - target| acceptance [T]
  int max_iterations = 60;     ///< bisection/secant iterations per sample
};

/// Flux-driven Jiles-Atherton: apply_b(B) finds the field that produces the
/// requested flux density and commits the forward model there.
class InverseTimelessJa {
 public:
  explicit InverseTimelessJa(const JaParameters& params,
                             const InverseConfig& config = {});

  /// Drives the core to flux density `b` [T]; returns the field H [A/m]
  /// that realises it.
  double apply_b(double b);

  [[nodiscard]] double field() const { return model_.state().present_h; }
  [[nodiscard]] double magnetisation() const { return model_.magnetisation(); }
  [[nodiscard]] double flux_density() const { return model_.flux_density(); }
  [[nodiscard]] const TimelessJa& forward() const { return model_; }

  /// Total scalar-solve iterations across all samples (cost observable).
  [[nodiscard]] std::uint64_t solve_iterations() const { return iterations_; }

  /// True when the last apply_b() bracketed its target and met tolerance_b
  /// (vacuously true before the first call). False means the returned field
  /// does NOT realise the requested flux — either the bracket expansion
  /// failed (the model then stays at its previous field rather than
  /// committing a wrong one) or the iteration budget ran out.
  [[nodiscard]] bool converged() const { return converged_; }

  /// apply_b() calls whose bracket expansion failed outright (possible only
  /// in the unclamped negative-slope regime, where B(H) is not monotone).
  [[nodiscard]] std::uint64_t bracket_failures() const {
    return bracket_failures_;
  }

  void reset();

 private:
  /// Flux density apply(h) would reach from the committed state, bitwise,
  /// without applying it (TimelessJa::flux_density_at on apply's own
  /// event decision).
  [[nodiscard]] double trial_b(double h) const;

  JaParameters params_;
  InverseConfig config_;
  TimelessJa model_;
  std::uint64_t iterations_ = 0;
  std::uint64_t bracket_failures_ = 0;
  bool converged_ = true;
};

}  // namespace ferro::mag
