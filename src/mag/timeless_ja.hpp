// TimelessJa — the paper's contribution: Jiles-Atherton hysteresis with
// *timeless discretisation* of the magnetisation slope.
//
// Instead of converting dM/dH into time derivatives and handing them to an
// analogue solver (the route the paper criticises), the model integrates
// dM/dH itself, using the applied field H as the independent variable:
//
//   - an *event threshold* `dhmax` decides when the field has moved enough
//     to take an integration step (the listing's `monitorH()` process);
//   - the irreversible component m_irr is advanced by Forward Euler in H
//     (the listing's `Integral()` process);
//   - the reversible component is algebraic: m_rev = c*man/(1+c)
//     (the listing's `core()` process).
//
// Negative slopes are clamped to zero (non-physical, Brown et al. 2001) and
// steps where dm would oppose dh are rejected, exactly as in the listing.
//
// One extension beyond the paper (off by default so the default object is
// paper-faithful): sub-stepping of large field increments.
#pragma once

#include <cmath>
#include <cstdint>

#include "mag/anhysteretic.hpp"
#include "mag/ja_params.hpp"
#include "mag/model.hpp"

namespace ferro::mag {

/// Discretisation controls. Defaults reproduce the published model.
struct TimelessConfig {
  /// Field event threshold [A/m]: integration fires only when the field has
  /// moved more than this since the last accepted update (paper's `dhmax`).
  double dhmax = 25.0;

  /// When > 0, a field event of |dH| > substep_max is integrated in
  /// ceil(|dH|/substep_max) equal sub-steps. 0 = one step per event (paper).
  double substep_max = 0.0;

  /// Clamp negative dM/dH to zero ("to assure positive derivatives").
  bool clamp_negative_slope = true;

  /// Reject steps where dm*dh < 0 (the listing's second guard).
  bool clamp_direction = true;
};

/// Counters exposed for the stability experiments: the timeless model's
/// whole pitch is that these are its *only* interventions — there is no
/// Newton loop to fail and no time step to reject.
struct TimelessStats {
  std::uint64_t samples = 0;           ///< calls to apply()
  std::uint64_t field_events = 0;      ///< events that crossed dhmax
  std::uint64_t integration_steps = 0; ///< sub-steps actually integrated
  std::uint64_t slope_clamps = 0;      ///< negative slopes clamped to 0
  std::uint64_t direction_clamps = 0;  ///< dm*dh < 0 rejections
};

/// State snapshot (normalised magnetisation, i.e. fractions of Ms).
struct TimelessState {
  double m_irr = 0.0;    ///< irreversible component (listing's `mirr`)
  double m_total = 0.0;  ///< total normalised magnetisation (listing's `mtotal`)
  double anchor_h = 0.0; ///< field at the last accepted event (listing's `lasth`)
  double present_h = 0.0;///< most recently applied field
};

/// B and its derivative in H at one field (TimelessJa::evaluate).
struct FluxTangent {
  double b = 0.0;      ///< flux density [T]
  double db_dh = 0.0;  ///< dB/dH [T/(A/m)]
};

/// The timeless Jiles-Atherton hysteresis model.
///
/// Typical use:
/// ```
/// TimelessJa ja(paper_parameters());
/// for (double h : sweep.h) ja.apply(h);
/// double b = ja.flux_density();
/// ```
class TimelessJa {
 public:
  explicit TimelessJa(const JaParameters& params, const TimelessConfig& config = {});

  [[nodiscard]] static constexpr ModelKind kind() {
    return ModelKind::kJilesAtherton;
  }

  /// Applies a new field sample H [A/m]: refreshes the algebraic part and,
  /// when |H - anchor| exceeds dhmax, integrates the slope. Returns the
  /// normalised total magnetisation after the update.
  double apply(double h) { return apply(h, crosses(h)); }

  /// The field-event decision apply(h) takes by itself: true when h lies
  /// more than dhmax from the field of the last accepted event.
  [[nodiscard]] bool crosses(double h) const {
    return std::fabs(h - state_.anchor_h) > config_.dhmax;
  }

  /// apply() with the field-event decision made by the caller: `event`
  /// integrates the slope over H - anchor whatever its size, !event only
  /// refreshes the algebraic part. The circuit devices hold one decision
  /// for a whole Newton solve (ckt/core_companion.hpp).
  double apply(double h, bool event);

  /// What apply(h, event) would leave, without applying it: B bitwise
  /// apply(h, event) then flux_density(), from the same operations, with
  /// each quantity's derivative in H carried next to it (chain rule). A
  /// clamped slope or a rejected step contributes no derivative, and the
  /// sub-step count is held constant. The circuit devices linearise a core
  /// with it (ckt/core_companion.hpp).
  [[nodiscard]] FluxTangent evaluate(double h, bool event) const;

  /// B [T] that apply(h, event) would leave, bitwise, without applying it:
  /// evaluate() without the derivative, for callers that need only B.
  [[nodiscard]] double flux_density_at(double h, bool event) const;

  /// Magnetisation M [A/m] = Ms * m_total.
  [[nodiscard]] double magnetisation() const;

  /// Flux density B [T] = mu0 * (M + H) at the present field.
  [[nodiscard]] double flux_density() const;

  /// The last slope dm/dH used [1/(A/m)], after clamping (0 until the first
  /// field event). Normalised: multiply by Ms for dM/dH.
  [[nodiscard]] double last_slope() const { return last_slope_; }

  [[nodiscard]] const TimelessState& state() const { return state_; }
  [[nodiscard]] const TimelessStats& stats() const { return stats_; }
  [[nodiscard]] const JaParameters& params() const { return params_; }
  [[nodiscard]] const TimelessConfig& config() const { return config_; }

  /// Returns to the demagnetised virgin state at H = 0.
  void reset();

  /// Restores an explicit state (used by the circuit devices to rewind a
  /// rejected transient step — the model itself never rejects).
  void set_state(const TimelessState& s);

 private:
  /// m_irr, m_total, man and the slope through one apply(), in `Real`:
  /// double for apply(), a value with its derivative for evaluate()
  /// (defined in timeless_ja.cpp).
  template <class Real>
  struct Walk;

  /// apply(h, event)'s arithmetic on `w`, counting into `stats`; the anchor
  /// is read, not moved.
  template <class Real>
  void walk(Walk<Real>& w, Real h, bool event, TimelessStats& stats) const;

  /// The listing's slope expression from a precomputed (man - mtotal);
  /// clamping is applied per config and counted.
  template <class Real>
  Real slope_from_deltam(Real delta_m, double delta, TimelessStats& stats) const;

  /// Refreshes He, man, m_rev, m_total at field h from m_irr — the
  /// listing's core() process.
  template <class Real>
  void refresh_algebraic(Walk<Real>& w, Real h) const;

  /// One Forward-Euler step of m_irr by dh, with the slope at the field
  /// core() just published — exactly like the listing.
  template <class Real>
  void integrate_step(Walk<Real>& w, Real dh, TimelessStats& stats) const;

  JaParameters params_;
  TimelessConfig config_;
  Anhysteretic anhysteretic_;
  TimelessState state_;
  TimelessStats stats_;
  double last_slope_ = 0.0;
  double c_over_1pc_;   ///< c/(1+c), the reversible weighting of the listing
  double alpha_ms_;     ///< alpha*Ms, the effective-field coupling [A/m]
  double one_pc_k_;        ///< (1+c)*k — slope denominator, pinning term
  double one_pc_alpha_ms_; ///< (1+c)*alpha*Ms — slope denominator, coupling term

 public:
  /// Precomputed hot-path constants. TimelessJaBatch::add_lane copies these
  /// instead of re-deriving them, so there is exactly one place the
  /// constant expressions live and the batch kernel's bitwise-identity
  /// contract cannot drift out of sync with the scalar model.
  [[nodiscard]] double c_over_1pc() const { return c_over_1pc_; }
  [[nodiscard]] double alpha_ms() const { return alpha_ms_; }
  [[nodiscard]] double one_pc_k() const { return one_pc_k_; }
  [[nodiscard]] double one_pc_alpha_ms() const { return one_pc_alpha_ms_; }
};

static_assert(HysteresisModel<TimelessJa>);

}  // namespace ferro::mag
