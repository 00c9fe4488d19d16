// Shared test fixtures: the paper-faithful configuration, the canonical
// excitations the suites keep rebuilding, curve-comparison helpers, the
// run_scenario oracle of the batch paths, and a circuit device that blows
// up.
// Header-only; include as "support/fixtures.hpp" (tests/ is on the include
// path of every test target).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ckt/device.hpp"
#include "core/scenario.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"

namespace ferro::testsupport {

/// The paper's discretisation: dhmax = 25 A/m, Forward Euler, both clamps on.
inline mag::TimelessConfig paper_config() {
  mag::TimelessConfig c;
  c.dhmax = 25.0;
  return c;
}

/// The canonical major-loop excitation of the Fig. 1 material: symmetric
/// cycles to +-10 kA/m starting from the virgin state.
inline wave::HSweep major_loop(double step = 10.0, int cycles = 2) {
  return wave::SweepBuilder(step).cycles(10e3, cycles).build();
}

/// Saturating sweep amplitude for a material: far into the knee.
inline double saturation_amplitude(const mag::JaParameters& p) {
  return 5.0 * (p.a + p.k);
}

/// A saturating 2000-samples-per-leg major loop scaled to the material.
inline wave::HSweep saturating_major_loop(const mag::JaParameters& p,
                                          int cycles = 2) {
  const double amp = saturation_amplitude(p);
  return wave::SweepBuilder(amp / 2000.0).cycles(amp, cycles).build();
}

/// Fresh TimelessJa run through a sweep, recording every sample.
inline mag::BhCurve run_timeless(const mag::JaParameters& params,
                                 const mag::TimelessConfig& config,
                                 const wave::HSweep& sweep) {
  mag::TimelessJa ja(params, config);
  return mag::run_sweep(ja, sweep);
}

/// run_scenario over every scenario in order: the per-scenario oracle every
/// BatchRunner path (collect or streaming, any thread count, SIMD width or
/// partition) must reproduce bit for bit under Packing::kExact.
inline std::vector<core::ScenarioResult> run_each(
    const std::vector<core::Scenario>& scenarios) {
  std::vector<core::ScenarioResult> results;
  results.reserve(scenarios.size());
  for (const core::Scenario& s : scenarios) {
    results.push_back(core::run_scenario(s));
  }
  return results;
}

/// run_scenario on one JA scenario, `params`/`config` over `sweep` on
/// `frontend`: how the frontend-parity suites obtain the curves they
/// compare.
inline core::ScenarioResult run_ja_frontend(const mag::JaParameters& params,
                                            const mag::TimelessConfig& config,
                                            const wave::HSweep& sweep,
                                            core::Frontend frontend) {
  core::Scenario s;
  s.name = std::string(core::to_string(frontend));
  s.model = core::JaSpec{params, config};
  s.drive = sweep;
  s.frontend = frontend;
  return core::run_scenario(s);
}

/// Worst pointwise |delta B| between two equal-length trajectories.
inline double max_b_deviation(const mag::BhCurve& a, const mag::BhCurve& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(a.points()[i].b - b.points()[i].b));
  }
  return worst;
}

/// A 1 mS conductance to ground that stamps a NaN current once the iterate
/// puts its node above 0.5 V: a device model blowing up past its valid
/// region.
class NanAboveHalfVolt final : public ckt::Device {
 public:
  NanAboveHalfVolt(std::string name, ckt::NodeId node)
      : Device(std::move(name)), node_(node) {}

  void stamp(ckt::Stamper& s, const ckt::EvalContext& ctx) override {
    s.conductance(node_, ckt::kGround, 1e-3);
    if (ctx.v(node_) > 0.5) {
      s.current_source(node_, ckt::kGround,
                       std::numeric_limits<double>::quiet_NaN());
    }
  }
  [[nodiscard]] bool nonlinear() const override { return true; }

 private:
  ckt::NodeId node_;
};

/// Absolute path of a committed data file under tests/data/.
inline std::string data_path(const std::string& name) {
#ifdef FERRO_TEST_DATA_DIR
  return std::string(FERRO_TEST_DATA_DIR) + "/" + name;
#else
  return "tests/data/" + name;
#endif
}

}  // namespace ferro::testsupport
