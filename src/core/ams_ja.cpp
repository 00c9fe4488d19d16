#include "core/ams_ja.hpp"

#include <stdexcept>
#include <string>

namespace ferro::core {

namespace {

/// The analogue-solver side of the VHDL-AMS split: a single smooth quantity
/// y = H(t) with dH/dt given analytically by the excitation. The hysteresis
/// model never appears in the residual — it consumes the accepted steps
/// after the fact (run_ams_timeless's replay), which is the paper's whole
/// point: turning points cannot cause Newton failures.
class ExcitationQuantity final : public ams::OdeSystem {
 public:
  ExcitationQuantity(const wave::Waveform& h_of_t, double t_start)
      : h_of_t_(h_of_t), t_start_(t_start) {}

  [[nodiscard]] double initial() const override {
    return h_of_t_.value(t_start_);
  }

  [[nodiscard]] double derivative(double t, double) const override {
    return h_of_t_.derivative(t);
  }

 private:
  const wave::Waveform& h_of_t_;
  double t_start_;
};

}  // namespace

AmsTrajectory plan_ams_trajectory(const wave::Waveform& h_of_t,
                                  const AmsJaConfig& config) {
  AmsTrajectory trajectory;

  ExcitationQuantity system(h_of_t, config.t_start);

  ams::TransientOptions options = config.solver;
  options.t_start = config.t_start;
  options.t_end = config.t_end;

  ams::TransientSolver solver(options);
  double t_reached = config.t_start;
  const bool completed = solver.run(system, [&](double t, double h) {
    t_reached = t;
    trajectory.h.push_back(h);
  });
  if (!completed) {
    throw std::runtime_error(
        "analogue solver gave up at t = " + std::to_string(t_reached) +
        " s of " + std::to_string(config.t_end) + " s (H = " +
        std::to_string(trajectory.h.back()) + " A/m) after " +
        std::to_string(solver.stats().hard_failures) + " hard failures");
  }
  trajectory.solver_stats = solver.stats();
  return trajectory;
}

mag::TimelessConfig ams_effective_timeless(
    const mag::TimelessConfig& timeless) {
  mag::TimelessConfig effective = timeless;
  if (effective.substep_max == 0.0) {
    effective.substep_max = effective.dhmax;
  }
  return effective;
}

AmsSweepDrive ams_drive_for_sweep(const wave::HSweep& sweep,
                                  const mag::TimelessConfig& timeless) {
  // Synthesise a 1 s piecewise-linear traversal of the sweep samples and
  // hand it to the analogue solver.
  std::vector<wave::PwlPoint> points;
  points.reserve(sweep.h.size());
  const double dt = 1.0 / static_cast<double>(sweep.h.size());
  for (std::size_t i = 0; i < sweep.h.size(); ++i) {
    points.push_back({dt * static_cast<double>(i), sweep.h[i]});
  }
  AmsSweepDrive drive{wave::Pwl(std::move(points)), AmsJaConfig{}};
  drive.config.t_start = 0.0;
  drive.config.t_end = drive.pwl.points().back().t;
  drive.config.timeless = timeless;
  drive.config.solver.breakpoints = drive.pwl.breakpoints();
  return drive;
}

AmsJaResult run_ams_timeless(const mag::JaParameters& params,
                             const wave::Waveform& h_of_t,
                             const AmsJaConfig& config) {
  AmsJaResult result;

  const AmsTrajectory trajectory = plan_ams_trajectory(h_of_t, config);
  result.solver_stats = trajectory.solver_stats;

  mag::TimelessJa ja(params, ams_effective_timeless(config.timeless));

  // The initial point is published from the virgin state — the solver
  // reports its initial condition before any step is accepted, so the model
  // has not been applied yet (present_h is still 0 inside flux_density, as
  // it always was).
  result.curve.reserve(trajectory.h.size());
  if (!trajectory.h.empty()) {
    result.curve.append(trajectory.h.front(), ja.magnetisation(),
                        ja.flux_density());
    for (std::size_t s = 1; s < trajectory.h.size(); ++s) {
      ja.apply(trajectory.h[s]);
      result.curve.append(trajectory.h[s], ja.magnetisation(),
                          ja.flux_density());
    }
  }
  result.stats = ja.stats();
  return result;
}

}  // namespace ferro::core
