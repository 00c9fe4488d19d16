#include "mag/timeless_ja.hpp"

#include <cassert>
#include <cmath>

#include "util/constants.hpp"

namespace ferro::mag {

std::string_view to_string(HIntegrator scheme) {
  switch (scheme) {
    case HIntegrator::kForwardEuler: return "forward-euler";
    case HIntegrator::kHeun: return "heun";
    case HIntegrator::kRk4: return "rk4";
  }
  return "?";
}

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

double TimelessJa::slope(double h, double m_total, double delta) {
  const double he = h + alpha_ms_ * m_total;
  const double man = anhysteretic_.man(he);
  return slope_from_deltam(man - m_total, delta);
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

double TimelessJa::m_total_at(double h, double m_irr) const {
  // Algebraic total magnetisation for the extension schemes' trial states:
  // a short fixed-point in the effective field (strongly contracting for
  // all physical parameter sets).
  double m = state_.m_total;  // warm start from the present state
  for (int i = 0; i < 3; ++i) {
    m = c_over_1pc_ * anhysteretic_.man(h + alpha_ms_ * m) + m_irr;
  }
  return m;
}

void TimelessJa::integrate_step(double h_target, double dh) {
  const double delta = dh > 0.0 ? 1.0 : -1.0;
  double dm = 0.0;

  switch (config_.scheme) {
    case HIntegrator::kForwardEuler: {
      // Paper-exact: Integral() consumes the man/mtotal pair that core()
      // just published (man evaluated with the pre-update m_total), then
      // m_irr steps by dh*slope.
      const double s = slope_from_deltam(last_man_ - state_.m_total, delta);
      dm = dh * s;
      last_slope_ = s;
      break;
    }
    case HIntegrator::kHeun: {
      const double h0 = h_target - dh;
      const auto f = [&](double h, double m_irr) {
        return slope(h, m_total_at(h, m_irr), delta);
      };
      const double s1 = f(h0, state_.m_irr);
      const double s2 = f(h_target, state_.m_irr + dh * s1);
      const double s = 0.5 * (s1 + s2);
      dm = dh * s;
      last_slope_ = s;
      break;
    }
    case HIntegrator::kRk4: {
      const double h0 = h_target - dh;
      const auto f = [&](double h, double m_irr) {
        return slope(h, m_total_at(h, m_irr), delta);
      };
      const double s1 = f(h0, state_.m_irr);
      const double s2 = f(h0 + 0.5 * dh, state_.m_irr + 0.5 * dh * s1);
      const double s3 = f(h0 + 0.5 * dh, state_.m_irr + 0.5 * dh * s2);
      const double s4 = f(h_target, state_.m_irr + dh * s3);
      const double s = (s1 + 2.0 * s2 + 2.0 * s3 + s4) / 6.0;
      dm = dh * s;
      last_slope_ = s;
      break;
    }
  }

  // The listing's second guard: if dm * dh < 0, dm = 0. With the slope
  // clamp active this only triggers through the higher-order schemes.
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
        integrate_step(h_i, sub);
      }
    } else {
      // Integral(): one step spanning the whole event, slope at the new
      // field — exactly the listing.
      integrate_step(h, dh_total);
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
