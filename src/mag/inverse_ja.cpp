#include "mag/inverse_ja.hpp"

#include <cassert>
#include <cmath>

#include "util/constants.hpp"

namespace ferro::mag {

namespace {

/// The scalar solve probes trial fields far from the committed state; a
/// single Forward-Euler event across such a span is unbounded (m_irr grows
/// by dh*slope with no saturation guard), so trial steps must sub-step at
/// the event resolution — exactly like the AMS frontend.
TimelessConfig substepped(TimelessConfig config) {
  if (config.substep_max == 0.0) config.substep_max = config.dhmax;
  return config;
}

/// Doubling rounds before the bracket expansion gives up. For the clamped
/// (monotone-B) model the very first mu0 stride brackets every reachable
/// target up to rounding, so 6 rounds — a 64-stride span — is a generous
/// ceiling for the corner cases. Past it the model is in the unclamped
/// runaway regime where B recedes from the target as fast as the probe
/// advances; each further round would *double* the sub-stepped trial cost,
/// so the solve reports bracket failure instead of chasing it.
constexpr int kMaxBracketRounds = 6;

}  // namespace

InverseTimelessJa::InverseTimelessJa(const JaParameters& params,
                                     const InverseConfig& config)
    : params_(params),
      config_(config),
      model_(params, substepped(config.forward)) {}

void InverseTimelessJa::reset() {
  model_.reset();
  iterations_ = 0;
  bracket_failures_ = 0;
  converged_ = true;
}

double InverseTimelessJa::trial_b(double h) const {
  return model_.flux_density_at(h, model_.crosses(h));
}

double InverseTimelessJa::apply_b(double b) {
  // B(H) is monotone non-decreasing (clamped slopes >= 0 plus the mu0*H
  // term), so a bracketed secant/bisection hybrid is globally convergent.
  double h_lo = model_.state().present_h;
  double b_lo = trial_b(h_lo);

  // Initial bracket: expand in the direction of the residual. The air-line
  // slope mu0 bounds dB/dH from below, giving a safe first stride.
  const double db = b - b_lo;
  if (std::fabs(db) <= config_.tolerance_b) {
    converged_ = true;
    model_.apply(h_lo);
    return h_lo;
  }
  double stride = db / util::kMu0;  // overshoots when the core is active
  double h_hi = h_lo + stride;
  double b_hi = trial_b(h_hi);
  ++iterations_;

  // Ensure the target is bracketed. In the clamped (monotone-B) model the
  // mu0 stride can undershoot only by rounding at the clamp corners, which
  // one extra round repairs. With the clamps disabled (the raw
  // negative-slope regime) the trial magnetisation can run away faster than
  // H moves, so B recedes from the target as the probe advances; the old
  // fixed-stride expansion then fell off the end of its loop and silently
  // committed a field whose flux was off by thousands of tesla. Doubling
  // covers every repairable undershoot within the round budget and lets the
  // runaway case fail *detectably* instead.
  bool bracketed = (b - b_lo) * (b - b_hi) <= 0.0;
  for (int i = 0; i < kMaxBracketRounds && !bracketed; ++i) {
    stride *= 2.0;
    const double h_next = h_hi + stride;
    // A NaN target (or an overflowing expansion) can never satisfy the
    // bracket predicate, and once a trial has gone NaN every wider probe
    // from the same committed state repeats the blow-up at geometrically
    // growing sub-step cost. Both are unbracketable: take the failure path.
    if (!std::isfinite(h_next) || std::isnan(b_hi)) break;
    h_hi = h_next;
    b_hi = trial_b(h_hi);
    ++iterations_;
    bracketed = (b - b_lo) * (b - b_hi) <= 0.0;
  }
  if (!bracketed) {
    // No interval provably contains the target: running the bisection
    // anyway would commit a field whose flux is arbitrarily wrong. Leave
    // the model untouched at its present state and surface the failure
    // (trial_b never moves the model, so no commit has happened).
    ++bracket_failures_;
    converged_ = false;
    return h_lo;
  }

  // Bisection with a secant refinement inside the bracket.
  converged_ = false;
  double h_mid = h_hi;
  for (int i = 0; i < config_.max_iterations; ++i) {
    // Secant proposal, clamped into the bracket.
    const double denom = b_hi - b_lo;
    double h_sec = denom != 0.0 ? h_lo + (b - b_lo) * (h_hi - h_lo) / denom
                                : 0.5 * (h_lo + h_hi);
    const double lo = std::min(h_lo, h_hi);
    const double hi = std::max(h_lo, h_hi);
    if (h_sec <= lo || h_sec >= hi) h_sec = 0.5 * (h_lo + h_hi);

    h_mid = h_sec;
    const double b_mid = trial_b(h_mid);
    ++iterations_;
    if (std::fabs(b_mid - b) <= config_.tolerance_b) {
      converged_ = true;
      break;
    }
    if ((b - b_lo) * (b - b_mid) <= 0.0) {
      h_hi = h_mid;
      b_hi = b_mid;
    } else {
      h_lo = h_mid;
      b_lo = b_mid;
    }
  }

  model_.apply(h_mid);  // commit the accepted field once
  return h_mid;
}

}  // namespace ferro::mag
