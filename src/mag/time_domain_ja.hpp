// TimeDomainJa — the conventional implementation route the paper argues
// against: convert the magnetisation slope into time derivatives,
//
//   dM/dt = dM/dH * dH/dt,
//
// and let the analogue solver integrate it (the VHDL-AMS `'INTEG` pattern).
// The right-hand side is *discontinuous in time* at every field turning
// point because delta = sign(dH/dt) flips there; the adaptive solver
// responds with error-control rejections, step collapse and occasional
// Newton failures. Those counters are the paper's CLM2 evidence.
//
// The magnetic equations are identical to TimelessJa (same normalised
// formulation), so any accuracy difference is attributable purely to the
// integration route.
#pragma once

#include "ams/transient.hpp"
#include "mag/anhysteretic.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "wave/waveform.hpp"

namespace ferro::mag {

struct TimeDomainConfig {
  double t_start = 0.0;
  double t_end = 0.06;  ///< three 50 Hz periods by default
  ams::TransientOptions solver;
  /// Clamp negative slopes exactly as the timeless model does, so the two
  /// routes differ only in who integrates.
  bool clamp_negative_slope = true;
};

struct TimeDomainResult {
  BhCurve curve;               ///< (H, M, B) at accepted solver steps
  ams::TransientStats stats;   ///< the CLM2 observables
  /// False when the solver gave up short of t_end (25 consecutive forced
  /// accepts, then one more hard failure); the curve stops there.
  bool completed = false;
};

/// ODE view of the JA model for the analogue solver: the state is m_irr
/// (normalised irreversible magnetisation), starting from 0.
class TimeDomainJaSystem final : public ams::OdeSystem {
 public:
  TimeDomainJaSystem(const JaParameters& params, const wave::Waveform& h_of_t,
                     bool clamp_negative_slope);

  [[nodiscard]] double initial() const override { return 0.0; }
  /// dm_irr/dt = dM/dH * dH/dt at field H(t).
  [[nodiscard]] double derivative(double t, double m_irr) const override;

  /// Normalised total magnetisation for state m_irr at field h (explicit
  /// fixed-point in the effective field, same equations as TimelessJa).
  [[nodiscard]] double total_m(double h, double m_irr) const;

  [[nodiscard]] const JaParameters& params() const { return params_; }

 private:
  [[nodiscard]] double slope(double h, double m_total, double delta) const;

  JaParameters params_;
  const wave::Waveform& h_of_t_;
  Anhysteretic anhysteretic_;
  double c_over_1pc_;
  double alpha_ms_;
  bool clamp_;
};

/// Runs the time-domain baseline over `h_of_t` and records the trajectory.
[[nodiscard]] TimeDomainResult run_time_domain_ja(const JaParameters& params,
                                                  const wave::Waveform& h_of_t,
                                                  const TimeDomainConfig& config);

}  // namespace ferro::mag
