#include "mag/time_domain_ja.hpp"

#include <cmath>

#include "util/constants.hpp"

namespace ferro::mag {

TimeDomainJaSystem::TimeDomainJaSystem(const JaParameters& params,
                                       const wave::Waveform& h_of_t,
                                       bool clamp_negative_slope)
    : params_(params),
      h_of_t_(h_of_t),
      anhysteretic_(params),
      c_over_1pc_(params.c / (1.0 + params.c)),
      alpha_ms_(params.alpha * params.ms),
      clamp_(clamp_negative_slope) {}

double TimeDomainJaSystem::total_m(double h, double m_irr) const {
  // m = c/(1+c)*man(h + alpha*ms*m) + m_irr; strongly contracting, so a few
  // fixed-point sweeps reach float accuracy.
  double m = m_irr;
  for (int i = 0; i < 6; ++i) {
    const double he = h + alpha_ms_ * m;
    const double next = c_over_1pc_ * anhysteretic_.man(he) + m_irr;
    if (std::fabs(next - m) < 1e-12) return next;
    m = next;
  }
  return m;
}

double TimeDomainJaSystem::slope(double h, double m_total, double delta) const {
  const double he = h + alpha_ms_ * m_total;
  const double man = anhysteretic_.man(he);
  const double delta_m = man - m_total;
  const double denom =
      (1.0 + params_.c) * (delta * params_.k - alpha_ms_ * delta_m);
  if (denom == 0.0) return 0.0;
  double dmdh = delta_m / denom;
  if (clamp_ && dmdh < 0.0) dmdh = 0.0;
  return dmdh;
}

double TimeDomainJaSystem::derivative(double t, double m_irr) const {
  const double h = h_of_t_.value(t);
  const double dhdt = h_of_t_.derivative(t);
  // The discontinuity the paper's technique avoids: delta flips with dH/dt.
  const double delta = dhdt >= 0.0 ? 1.0 : -1.0;
  const double m_total = total_m(h, m_irr);
  return slope(h, m_total, delta) * dhdt;
}

TimeDomainResult run_time_domain_ja(const JaParameters& params,
                                    const wave::Waveform& h_of_t,
                                    const TimeDomainConfig& config) {
  TimeDomainResult result;
  TimeDomainJaSystem system(params, h_of_t, config.clamp_negative_slope);

  ams::TransientOptions options = config.solver;
  options.t_start = config.t_start;
  options.t_end = config.t_end;

  ams::TransientSolver solver(options);
  result.completed = solver.run(system, [&](double t, double m_irr) {
    const double h = h_of_t.value(t);
    const double m = params.ms * system.total_m(h, m_irr);
    const double b = util::kMu0 * (m + h);
    result.curve.append(h, m, b);
  });
  result.stats = solver.stats();
  return result;
}

}  // namespace ferro::mag
