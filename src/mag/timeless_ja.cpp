#include "mag/timeless_ja.hpp"

#include <cassert>
#include <cmath>

#include "util/constants.hpp"

namespace ferro::mag {

TimelessJa::TimelessJa(const JaParameters& params, const TimelessConfig& config)
    : params_(params),
      config_(config),
      anhysteretic_(params),
      c_over_1pc_(params.c / (1.0 + params.c)),
      alpha_ms_(params.alpha * params.ms),
      one_pc_k_((1.0 + params.c) * params.k),
      one_pc_alpha_ms_((1.0 + params.c) * (params.alpha * params.ms)) {
  assert(params.is_valid());
  assert(config.dhmax > 0.0);
  assert(config.substep_max >= 0.0);
  reset();
}

void TimelessJa::reset() {
  state_ = TimelessState{};
  stats_ = TimelessStats{};
  last_slope_ = 0.0;
  refresh_algebraic(0.0);
}

void TimelessJa::set_state(const TimelessState& s) {
  // Restores the snapshot verbatim — no algebraic refresh, so a
  // state()/set_state round trip is exact.
  state_ = s;
}

double TimelessJa::slope_from_deltam(double delta_m, double delta) {
  // The listing's Integral() process:
  //   deltam = man - mtotal
  //   dmdh   = deltam / ((1+c) * (delta*k - alpha*ms*deltam))
  // with the (1+c) factor distributed into the precomputed constants so the
  // hot path does two multiplies instead of three. The redistribution
  // rounds differently in the last ulp — the fig1 golden was regenerated
  // with it, and the golden-curve regression bounds any future drift to
  // 1e-6 T RMS (not bitwise).
  const double denom = delta * one_pc_k_ - one_pc_alpha_ms_ * delta_m;
  if (denom == 0.0) {
    ++stats_.slope_clamps;
    return 0.0;
  }
  double dmdh = delta_m / denom;
  if (config_.clamp_negative_slope && dmdh < 0.0) {
    ++stats_.slope_clamps;
    dmdh = 0.0;
  }
  return dmdh;
}

void TimelessJa::refresh_algebraic(double h) {
  // The listing's core() process: He uses the *previous* m_total (a plain
  // member in the SystemC code — there is no fixed-point iteration), then
  // man, m_rev and m_total are refreshed explicitly. `man` is cached
  // because Integral() consumes exactly this value.
  const double he = h + alpha_ms_ * state_.m_total;
  last_man_ = anhysteretic_.man(he);
  state_.m_total = c_over_1pc_ * last_man_ + state_.m_irr;
  state_.present_h = h;
}

void TimelessJa::integrate_step(double dh) {
  // Integral() consumes the man/mtotal pair that core() just published
  // (man evaluated with the pre-update m_total), then m_irr steps by
  // dh*slope.
  const double delta = dh > 0.0 ? 1.0 : -1.0;
  const double s = slope_from_deltam(last_man_ - state_.m_total, delta);
  double dm = dh * s;
  last_slope_ = s;

  // The listing's second guard: if dm * dh < 0, dm = 0. With the slope
  // clamp active it never triggers.
  if (config_.clamp_direction && dm * dh < 0.0) {
    ++stats_.direction_clamps;
    dm = 0.0;
  }

  state_.m_irr += dm;
  ++stats_.integration_steps;
}

double TimelessJa::apply(double h, bool event) {
  ++stats_.samples;

  // core(): the algebraic part refreshes on every field sample.
  refresh_algebraic(h);

  // monitorH(): fire an integration event only on sufficient field movement
  // (apply(h) decides |h - anchor| > dhmax).
  if (event) {
    const double dh_total = h - state_.anchor_h;
    ++stats_.field_events;

    if (config_.substep_max > 0.0 && std::fabs(dh_total) > config_.substep_max) {
      // int64: an inverse-solve bracket probe can span fields where the
      // substep count exceeds INT_MAX, and the int cast was UB there.
      const auto n = static_cast<std::int64_t>(
          std::ceil(std::fabs(dh_total) / config_.substep_max));
      const double sub = dh_total / static_cast<double>(n);
      const double h0 = state_.anchor_h;
      for (std::int64_t i = 1; i <= n; ++i) {
        const double h_i = h0 + sub * static_cast<double>(i);
        refresh_algebraic(h_i);
        integrate_step(sub);
      }
    } else {
      // Integral(): one step spanning the whole event, slope at the new
      // field — exactly the listing.
      integrate_step(dh_total);
    }
    state_.anchor_h = h;

    // Feedback refresh so the output already reflects this event's dm
    // (the raw listing republishes on the next field sample instead; the
    // SystemC frontend reproduces this refresh with a feedback signal).
    refresh_algebraic(h);
  }
  return state_.m_total;
}

double TimelessJa::magnetisation() const { return params_.ms * state_.m_total; }

double TimelessJa::flux_density() const {
  return util::kMu0 * (magnetisation() + state_.present_h);
}

}  // namespace ferro::mag
