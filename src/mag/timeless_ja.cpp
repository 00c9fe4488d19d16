#include "mag/timeless_ja.hpp"

#include <cassert>
#include <cmath>

#include "util/constants.hpp"

namespace ferro::mag {

namespace {

/// A quantity and its derivative in H. evaluate() runs apply()'s helpers
/// on it: each operator computes the value exactly as the double
/// expression does, so the value side is bitwise apply()'s.
struct Dual {
  double v;
  double d;
  // Implicit: a double is a constant in H.
  Dual(double x = 0.0, double dx = 0.0) : v(x), d(dx) {}
};

Dual operator+(Dual a, Dual b) { return {a.v + b.v, a.d + b.d}; }
Dual operator-(Dual a, Dual b) { return {a.v - b.v, a.d - b.d}; }
Dual operator*(Dual a, Dual b) { return {a.v * b.v, a.d * b.v + a.v * b.d}; }
Dual operator/(Dual a, Dual b) {
  const double q = a.v / b.v;
  return {q, (a.d - q * b.d) / b.v};
}

double value(double x) { return x; }
double value(Dual x) { return x.v; }

double man(const Anhysteretic& curve, double he) { return curve.man(he); }
Dual man(const Anhysteretic& curve, Dual he) {
  return {curve.man(he.v), curve.dman_dhe(he.v) * he.d};
}

}  // namespace

template <class Real>
struct TimelessJa::Walk {
  Real m_irr;
  Real m_total;
  Real man;      ///< man published by the last core() refresh
  double slope;  ///< the last slope integrated, after clamping
};

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
  apply(0.0, false);  // the algebraic part at H = 0
  stats_ = TimelessStats{};
  last_slope_ = 0.0;
}

void TimelessJa::set_state(const TimelessState& s) {
  // Restores the snapshot verbatim — no algebraic refresh, so a
  // state()/set_state round trip is exact.
  state_ = s;
}

template <class Real>
Real TimelessJa::slope_from_deltam(Real delta_m, double delta,
                                   TimelessStats& stats) const {
  // The listing's Integral() process:
  //   deltam = man - mtotal
  //   dmdh   = deltam / ((1+c) * (delta*k - alpha*ms*deltam))
  // with the (1+c) factor distributed into the precomputed constants so the
  // hot path does two multiplies instead of three. The redistribution
  // rounds differently in the last ulp — the fig1 golden was regenerated
  // with it, and the golden-curve regression bounds any future drift to
  // 1e-6 T RMS (not bitwise).
  const Real denom = delta * one_pc_k_ - one_pc_alpha_ms_ * delta_m;
  if (value(denom) == 0.0) {
    ++stats.slope_clamps;
    return Real(0.0);
  }
  Real dmdh = delta_m / denom;
  if (config_.clamp_negative_slope && value(dmdh) < 0.0) {
    ++stats.slope_clamps;
    dmdh = Real(0.0);
  }
  return dmdh;
}

template <class Real>
void TimelessJa::refresh_algebraic(Walk<Real>& w, Real h) const {
  // The listing's core() process: He uses the *previous* m_total (a plain
  // member in the SystemC code — there is no fixed-point iteration), then
  // man, m_rev and m_total are refreshed explicitly. `man` is kept because
  // Integral() consumes exactly this value.
  const Real he = h + alpha_ms_ * w.m_total;
  w.man = man(anhysteretic_, he);
  w.m_total = c_over_1pc_ * w.man + w.m_irr;
}

template <class Real>
void TimelessJa::integrate_step(Walk<Real>& w, Real dh,
                                TimelessStats& stats) const {
  // Integral() consumes the man/mtotal pair that core() just published
  // (man evaluated with the pre-update m_total), then m_irr steps by
  // dh*slope.
  const double delta = value(dh) > 0.0 ? 1.0 : -1.0;
  const Real s = slope_from_deltam(w.man - w.m_total, delta, stats);
  Real dm = dh * s;
  w.slope = value(s);

  // The listing's second guard: if dm * dh < 0, dm = 0. With the slope
  // clamp active it never triggers.
  if (config_.clamp_direction && value(dm) * value(dh) < 0.0) {
    ++stats.direction_clamps;
    dm = Real(0.0);
  }

  w.m_irr = w.m_irr + dm;
  ++stats.integration_steps;
}

template <class Real>
void TimelessJa::walk(Walk<Real>& w, Real h, bool event,
                      TimelessStats& stats) const {
  // core(): the algebraic part refreshes on every field sample.
  refresh_algebraic(w, h);

  // monitorH(): fire an integration event only on sufficient field movement
  // (apply(h) decides |h - anchor| > dhmax).
  if (!event) return;
  const double h0 = state_.anchor_h;
  const Real dh_total = h - h0;
  ++stats.field_events;

  const double span = std::fabs(value(dh_total));
  if (config_.substep_max > 0.0 && span > config_.substep_max) {
    // int64: an inverse-solve bracket probe can span fields where the
    // substep count exceeds INT_MAX, and the int cast was UB there.
    const auto n =
        static_cast<std::int64_t>(std::ceil(span / config_.substep_max));
    const Real sub = dh_total / static_cast<double>(n);
    for (std::int64_t i = 1; i <= n; ++i) {
      refresh_algebraic(w, h0 + sub * static_cast<double>(i));
      integrate_step(w, sub, stats);
    }
  } else {
    // Integral(): one step spanning the whole event, slope at the new
    // field — exactly the listing.
    integrate_step(w, dh_total, stats);
  }

  // Feedback refresh so the output already reflects this event's dm
  // (the raw listing republishes on the next field sample instead; the
  // SystemC frontend reproduces this refresh with a feedback signal).
  refresh_algebraic(w, h);
}

double TimelessJa::apply(double h, bool event) {
  ++stats_.samples;
  Walk<double> w{state_.m_irr, state_.m_total, 0.0, last_slope_};
  walk(w, h, event, stats_);
  state_.m_irr = w.m_irr;
  state_.m_total = w.m_total;
  state_.present_h = h;
  if (event) state_.anchor_h = h;
  last_slope_ = w.slope;
  return state_.m_total;
}

double TimelessJa::flux_density_at(double h, bool event) const {
  TimelessStats unused;
  Walk<double> w{state_.m_irr, state_.m_total, 0.0, last_slope_};
  walk(w, h, event, unused);
  return util::kMu0 * (params_.ms * w.m_total + h);
}

FluxTangent TimelessJa::evaluate(double h, bool event) const {
  TimelessStats unused;
  Walk<Dual> w{state_.m_irr, state_.m_total, 0.0, last_slope_};
  walk(w, Dual(h, 1.0), event, unused);
  return {util::kMu0 * (params_.ms * w.m_total.v + h),
          util::kMu0 * (params_.ms * w.m_total.d + 1.0)};
}

double TimelessJa::magnetisation() const { return params_.ms * state_.m_total; }

double TimelessJa::flux_density() const {
  return util::kMu0 * (magnetisation() + state_.present_h);
}

}  // namespace ferro::mag
