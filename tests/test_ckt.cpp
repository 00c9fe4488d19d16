// Circuit-engine tests: MNA stamps against hand-solved networks, DC
// operating points, and transients with closed-form solutions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ckt/diode.hpp"
#include "ckt/engine.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/sources.hpp"
#include "support/fixtures.hpp"
#include "util/constants.hpp"
#include "wave/standard.hpp"

namespace fk = ferro::ckt;
namespace fw = ferro::wave;
namespace ts = ferro::testsupport;

TEST(Netlist, NodeNamingAndGround) {
  fk::Circuit ckt;
  EXPECT_EQ(ckt.node("0"), fk::kGround);
  EXPECT_EQ(ckt.node("gnd"), fk::kGround);
  EXPECT_EQ(ckt.node("GND"), fk::kGround);
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(ckt.node("a"), a);  // idempotent
  EXPECT_EQ(ckt.node_count(), 2u);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_EQ(ckt.node_name(fk::kGround), "0");
}

TEST(Dc, VoltageDivider) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add<fk::VoltageSource>("V1", in, fk::kGround, 10.0);
  ckt.add<fk::Resistor>("R1", in, mid, 1000.0);
  ckt.add<fk::Resistor>("R2", mid, fk::kGround, 1000.0);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  // Tolerances admit the gmin (1e-12 S) leak every SPICE-class engine adds.
  EXPECT_NEAR(x[static_cast<std::size_t>(in)], 10.0, 1e-6);
  EXPECT_NEAR(x[static_cast<std::size_t>(mid)], 5.0, 1e-6);
  // Source branch current: 10 V across 2 kOhm = 5 mA (into the divider).
  EXPECT_NEAR(std::fabs(x[ckt.node_count()]), 5e-3, 1e-8);
}

TEST(Dc, CurrentSourceIntoResistor) {
  fk::Circuit ckt;
  const auto n = ckt.node("n");
  // 2 mA from ground into n through the source, 1 kOhm to ground: v = 2 V.
  ckt.add<fk::CurrentSource>("I1", fk::kGround, n, 2e-3);
  ckt.add<fk::Resistor>("R1", n, fk::kGround, 1000.0);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  EXPECT_NEAR(x[static_cast<std::size_t>(n)], 2.0, 1e-6);
}

TEST(Dc, ResistorLadder) {
  // Five equal resistors from 5 V to ground: equally spaced taps.
  fk::Circuit ckt;
  const auto top = ckt.node("n0");
  ckt.add<fk::VoltageSource>("V", top, fk::kGround, 5.0);
  fk::NodeId prev = top;
  for (int i = 1; i < 5; ++i) {
    const auto tap = ckt.node("n" + std::to_string(i));
    ckt.add<fk::Resistor>("R" + std::to_string(i), prev, tap, 100.0);
    prev = tap;
  }
  ckt.add<fk::Resistor>("R5", prev, fk::kGround, 100.0);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], 5.0 - static_cast<double>(i),
                1e-6)
        << "tap " << i;
  }
}

TEST(Dc, InductorIsShort) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 3.0);
  ckt.add<fk::Resistor>("R", in, out, 100.0);
  ckt.add<fk::Inductor>("L", out, fk::kGround, 1e-3);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  // Quasi-short: the milliohm DC resistance leaves i*r_eps ~ 30 uV.
  EXPECT_NEAR(x[static_cast<std::size_t>(out)], 0.0, 1e-4);
  // Inductor branch current = 30 mA.
  EXPECT_NEAR(std::fabs(x[ckt.node_count() + 1]), 30e-3, 1e-6);
}

TEST(Dc, CapacitorIsOpen) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 3.0);
  ckt.add<fk::Resistor>("R", in, out, 100.0);
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  EXPECT_NEAR(x[static_cast<std::size_t>(out)], 3.0, 1e-6);  // no DC current
}

TEST(Dc, DiodeForwardDrop) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto d = ckt.node("d");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 5.0);
  ckt.add<fk::Resistor>("R", in, d, 1000.0);
  auto& diode = ckt.add<fk::Diode>("D", d, fk::kGround);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  const double vd = x[static_cast<std::size_t>(d)];
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
  // KCL: resistor current equals diode current.
  const double ir = (5.0 - vd) / 1000.0;
  EXPECT_NEAR(diode.current(vd), ir, 1e-6);
}

TEST(Dc, DiodeReverseBlocks) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto d = ckt.node("d");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, -5.0);
  ckt.add<fk::Resistor>("R", in, d, 1000.0);
  ckt.add<fk::Diode>("D", d, fk::kGround);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  // Nearly no current: node d sits at the source potential.
  EXPECT_NEAR(x[static_cast<std::size_t>(d)], -5.0, 1e-2);
}

TEST(Transient, RcChargingMatchesClosedForm) {
  // v_c(t) = V (1 - exp(-t/RC)), R = 1k, C = 1u -> tau = 1 ms.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>(
      "V", in, fk::kGround, std::make_shared<fw::Step>(0.0, 1.0, 0.0));
  ckt.add<fk::Resistor>("R", in, out, 1000.0);
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6, /*v_initial=*/0.0);

  fk::TransientOptions options;
  options.t_end = 5e-3;
  options.dt_initial = 1e-6;
  options.dt_max = 2e-5;

  double worst = 0.0;
  ASSERT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    if (sol.t <= 0.0) return;
    const double expected = 1.0 - std::exp(-sol.t / 1e-3);
    worst = std::max(worst, std::fabs(sol.v(out) - expected));
  }).ok());
  EXPECT_LT(worst, 5e-3);
}

TEST(Transient, RlCurrentRise) {
  // i(t) = V/R (1 - exp(-t R/L)), R = 10, L = 10 mH -> tau = 1 ms.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add<fk::VoltageSource>(
      "V", in, fk::kGround, std::make_shared<fw::Step>(0.0, 1.0, 0.0));
  ckt.add<fk::Resistor>("R", in, mid, 10.0);
  ckt.add<fk::Inductor>("L", mid, fk::kGround, 10e-3, /*i_initial=*/0.0);

  fk::TransientOptions options;
  options.t_end = 5e-3;
  options.dt_initial = 1e-6;
  options.dt_max = 2e-5;

  double worst = 0.0;
  ASSERT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    if (sol.t <= 0.0) return;
    const double expected = 0.1 * (1.0 - std::exp(-sol.t / 1e-3));
    const double i_l = sol.branch_current(1);  // branch 0 = source, 1 = L
    worst = std::max(worst, std::fabs(i_l - expected));
  }).ok());
  EXPECT_LT(worst, 1e-3);
}

TEST(Transient, RlcRingingFrequency) {
  // Series RLC: L = 1 mH, C = 1 uF, R = 1 Ohm (underdamped).
  // f0 = 1/(2 pi sqrt(LC)) ~ 5.03 kHz.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto a = ckt.node("a");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>(
      "V", in, fk::kGround, std::make_shared<fw::Step>(0.0, 1.0, 0.0));
  ckt.add<fk::Resistor>("R", in, a, 1.0);
  ckt.add<fk::Inductor>("L", a, out, 1e-3);
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6);

  fk::TransientOptions options;
  options.t_end = 2e-3;
  options.dt_initial = 1e-7;
  options.dt_max = 1e-6;

  // Count rising zero crossings of (v_out - 1) to estimate the frequency.
  int crossings = 0;
  double prev = -1.0;
  ASSERT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    const double v = sol.v(out) - 1.0;
    if (prev < 0.0 && v >= 0.0) ++crossings;
    prev = v;
  }).ok());
  const double freq = static_cast<double>(crossings) / 2e-3;
  EXPECT_NEAR(freq, 5033.0, 600.0);
}

TEST(Transient, SwitchChangesTopology) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 1.0);
  ckt.add<fk::Resistor>("R1", in, out, 1000.0);
  ckt.add<fk::TimedSwitch>("S", out, fk::kGround, /*t_switch=*/1e-3);

  fk::TransientOptions options;
  options.t_end = 2e-3;
  options.dt_initial = 1e-5;
  options.dt_max = 2e-5;

  double v_early = -1.0, v_late = -1.0;
  ASSERT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    if (sol.t > 0.4e-3 && sol.t < 0.9e-3 && v_early < 0.0) v_early = sol.v(out);
    if (sol.t > 1.5e-3) v_late = sol.v(out);
  }).ok());
  EXPECT_NEAR(v_early, 1.0, 1e-3);  // switch open: no load current
  EXPECT_NEAR(v_late, 0.0, 1e-2);   // switch closed: pulled to ground
}

TEST(Transient, SineSteadyStateAmplitude) {
  // RC low-pass driven at f << f_c passes the signal through.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(1.0, 50.0));
  ckt.add<fk::Resistor>("R", in, out, 100.0);
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6);  // f_c ~ 1.6 kHz

  fk::TransientOptions options;
  options.t_end = 0.04;
  options.dt_initial = 1e-6;
  options.dt_max = 5e-5;

  double peak = 0.0;
  ASSERT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    if (sol.t > 0.02) peak = std::max(peak, std::fabs(sol.v(out)));
  }).ok());
  EXPECT_NEAR(peak, 1.0, 0.02);
}

namespace {

/// A 5 V, 50 Hz half-wave rectifier into 100 Ohm: source node "in", output
/// node "out"; the source sine starts at `phase`.
fk::Circuit make_rectifier(double phase = 0.0) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(5.0, 50.0, phase));
  ckt.add<fk::Diode>("D", in, out);
  ckt.add<fk::Resistor>("R", out, fk::kGround, 100.0);
  return ckt;
}

}  // namespace

TEST(Transient, HalfWaveRectifierMeanAndPeak) {
  // The one diode transient: a half-wave rectifier into a resistive load.
  // Over two whole 50 Hz periods the output averages to under the ideal
  // Vp/pi (the diode drop comes off) and peaks about one drop below Vp.
  fk::Circuit ckt = make_rectifier();
  const auto out = ckt.node("out");

  fk::TransientOptions options;
  options.t_end = 0.08;
  options.dt_initial = 1e-6;
  options.dt_max = 5e-5;

  std::vector<double> t, v;
  fk::CircuitStats stats;
  ASSERT_TRUE(fk::run_transient(
                  ckt, options,
                  [&](const fk::Solution& sol) {
                    if (sol.t < 0.04) return;
                    t.push_back(sol.t);
                    v.push_back(sol.v(out));
                  },
                  &stats)
                  .ok());
  ASSERT_GE(t.size(), 2u);
  // The switching deck, where a linear predictor overshoots first, still
  // settles every step, in about two iterations each.
  EXPECT_EQ(stats.steps_rejected, 0u);
  EXPECT_LE(static_cast<double>(stats.newton_iterations),
            2.1 * static_cast<double>(stats.steps_accepted));

  double area = 0.0;  // trapezoidal integral of v dt
  double peak = std::fabs(v[0]);
  for (std::size_t i = 1; i < t.size(); ++i) {
    area += 0.5 * (v[i] + v[i - 1]) * (t[i] - t[i - 1]);
    peak = std::max(peak, std::fabs(v[i]));
  }
  const double mean = area / (t.back() - t.front());
  EXPECT_GT(mean, 0.8);
  EXPECT_LT(mean, 5.0 / ferro::util::kPi);
  EXPECT_GT(peak, 3.8);
  EXPECT_LT(peak, 4.7);
}

TEST(Transient, StatsPopulated) {
  fk::Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6, 1.0);
  ckt.add<fk::Resistor>("R", out, fk::kGround, 1000.0);

  fk::TransientOptions options;
  options.t_end = 1e-3;
  fk::CircuitStats stats;
  ASSERT_TRUE(fk::run_transient(ckt, options, {}, &stats).ok());
  EXPECT_GT(stats.steps_accepted, 10u);
  EXPECT_GT(stats.newton_iterations, 0u);
  EXPECT_EQ(stats.hard_failures, 0u);
}

// --- Structured errors and option validation (PR 10) ----------------------

namespace {

fk::Circuit make_rc() {
  fk::Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6, 1.0);
  ckt.add<fk::Resistor>("R", out, fk::kGround, 1000.0);
  return ckt;
}

}  // namespace

TEST(Validate, AcceptsDefaultsAndRejectsEachBadField) {
  EXPECT_TRUE(fk::validate(fk::TransientOptions{}).ok());

  const auto expect_invalid = [](fk::TransientOptions options) {
    const auto error = fk::validate(options);
    EXPECT_EQ(error.code, ferro::core::ErrorCode::kInvalidScenario);
  };

  fk::TransientOptions o;
  o.dt_initial = 0.0;
  expect_invalid(o);

  o = {};
  o.dt_initial = std::nan("");
  expect_invalid(o);

  o = {};
  o.dt_min = 2.0 * o.dt_initial;  // dt_min above dt_initial
  expect_invalid(o);

  o = {};
  o.t_end = o.t_start;
  expect_invalid(o);

  o = {};
  o.dt_growth = 0.5;
  expect_invalid(o);

  o = {};
  o.engine.max_newton_iterations = 0;
  expect_invalid(o);

  // Engine tolerances: a NaN bound passes every iterate, a zero or
  // negative one never settles.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, nan, inf}) {
    o = {};
    o.engine.v_tolerance = bad;
    expect_invalid(o);
    o = {};
    o.engine.i_tolerance = bad;
    expect_invalid(o);
  }
  for (const double bad : {-1e-12, nan, inf}) {
    o = {};
    o.engine.gmin = bad;
    expect_invalid(o);
  }
  o = {};
  o.engine.gmin = 0.0;  // no leak at all is allowed
  EXPECT_TRUE(fk::validate(o).ok());

  // A non-finite horizon would make t_eps infinite (ok after one callback
  // and no steps): a configuration error naming the field.
  const auto expect_invalid_field = [](fk::TransientOptions options,
                                       const std::string& field) {
    const auto error = fk::validate(options);
    EXPECT_EQ(error.code, ferro::core::ErrorCode::kInvalidScenario) << field;
    EXPECT_NE(error.detail.find(field), std::string::npos) << error.detail;
  };
  for (const double bad : {nan, inf, -inf}) {
    o = {};
    o.t_start = bad;
    expect_invalid_field(o, "t_start");
    o = {};
    o.t_end = bad;
    expect_invalid_field(o, "t_end");
  }
}

TEST(Validate, ExplicitDtMaxBelowDtInitialIsRejectedNotClamped) {
  // The pre-PR-10 engine silently clamped this; now it is a configuration
  // error, while dt_max = 0 stays the documented horizon/100 sentinel.
  fk::TransientOptions o;
  o.dt_initial = 1e-6;
  o.dt_max = 1e-7;
  EXPECT_EQ(fk::validate(o).code, ferro::core::ErrorCode::kInvalidScenario);

  o.dt_max = 0.0;
  EXPECT_TRUE(fk::validate(o).ok());
  o.dt_max = 1e-6;  // equal to dt_initial is fine
  EXPECT_TRUE(fk::validate(o).ok());
}

TEST(Transient, InvalidOptionsReportInvalidScenario) {
  fk::TransientOptions bad_dt_max;
  bad_dt_max.dt_max = bad_dt_max.dt_initial / 10.0;
  fk::TransientOptions infinite_horizon;
  infinite_horizon.t_end = std::numeric_limits<double>::infinity();
  for (const auto& options : {bad_dt_max, infinite_horizon}) {
    auto ckt = make_rc();
    std::size_t callbacks = 0;
    const auto error = fk::run_transient(
        ckt, options, [&](const fk::Solution&) { ++callbacks; });
    EXPECT_EQ(error.code, ferro::core::ErrorCode::kInvalidScenario);
    EXPECT_EQ(callbacks, 0u);  // rejected before any device is touched
  }
}

TEST(Transient, PreCancelledLimitsReportCancelled) {
  auto ckt = make_rc();
  fk::TransientOptions options;
  options.t_end = 1e-3;
  ferro::core::RunLimits limits;
  limits.cancel.cancel();
  fk::CircuitStats stats;
  const auto error = fk::run_transient(ckt, options, {}, &stats, limits);
  EXPECT_EQ(error.code, ferro::core::ErrorCode::kCancelled);
}

TEST(Transient, TinyDeadlineReportsDeadlineExceeded) {
  auto ckt = make_rc();
  fk::TransientOptions options;
  options.t_end = 10.0;  // far more work than the budget allows
  options.dt_max = 1e-6;
  ferro::core::RunLimits limits;
  limits.deadline_s = 1e-9;
  const auto error = fk::run_transient(ckt, options, {}, nullptr, limits);
  EXPECT_EQ(error.code, ferro::core::ErrorCode::kDeadlineExceeded);
}

// --- Engine counters ---------------------------------------------------------

namespace {

/// A conductance to ground whose transient companion alternates between two
/// values from one Newton iteration to the next, so no trial step longer
/// than `calm_dt` settles (by default none). At DC and on steps no longer
/// than `calm_dt` it is an ordinary 1 mS conductance.
class ChatteringConductance final : public fk::Device {
 public:
  ChatteringConductance(std::string name, fk::NodeId node, double calm_dt = 0.0)
      : Device(std::move(name)), node_(node), calm_dt_(calm_dt) {}

  void stamp(fk::Stamper& s, const fk::EvalContext& ctx) override {
    const bool calm = ctx.dc || ctx.dt <= calm_dt_ || ctx.iteration % 2 == 0;
    s.conductance(node_, fk::kGround, calm ? 1e-3 : 2e-3);
  }
  [[nodiscard]] bool nonlinear() const override { return true; }

 private:
  fk::NodeId node_;
  double calm_dt_;
};

}  // namespace

TEST(Transient, ForcedAcceptsAreCounted) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 1.0);
  ckt.add<fk::Resistor>("R", in, out, 1000.0);
  ckt.add<ChatteringConductance>("G", out);

  fk::TransientOptions options;
  options.t_end = 1e-5;
  options.dt_initial = 1e-6;
  options.dt_min = 1e-7;
  options.engine.max_newton_iterations = 4;
  fk::CircuitStats stats;
  const auto error = fk::run_transient(ckt, options, {}, &stats);
  EXPECT_EQ(error.code, ferro::core::ErrorCode::kSolverDiverged);
  EXPECT_GT(stats.forced_accepts, 0u);
  EXPECT_EQ(stats.forced_accepts, stats.hard_failures);  // DC converged
  EXPECT_EQ(stats.forced_accepts, stats.steps_accepted);
  EXPECT_EQ(stats.singular_matrices, 0u);
}

TEST(Transient, NonFiniteIterateNeverSettlesOrIsForceAccepted) {
  // 2 V sine through 1 k into the 1 mS device: the node crosses 0.5 V at a
  // twelfth of the period, after which every solve comes back NaN. Those
  // iterations fail and reject the step; at dt_min the run stops with
  // kNonFinite at the last finite point instead of accepting NaN.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(2.0, 50.0));
  ckt.add<fk::Resistor>("R", in, out, 1000.0);
  ckt.add<ts::NanAboveHalfVolt>("N", out);

  fk::TransientOptions options;
  options.t_end = 0.02;
  std::size_t non_finite = 0;
  double last_t = 0.0;
  fk::CircuitStats stats;
  const auto error = fk::run_transient(
      ckt, options,
      [&](const fk::Solution& sol) {
        for (const double x : sol.x) {
          if (!std::isfinite(x)) ++non_finite;
        }
        last_t = sol.t;
      },
      &stats);
  EXPECT_EQ(error.code, ferro::core::ErrorCode::kNonFinite) << error;
  EXPECT_EQ(non_finite, 0u);
  EXPECT_NEAR(last_t, 0.02 / 12.0, 1e-6);  // stopped at the crossing
  EXPECT_GT(stats.steps_rejected, 0u);
  EXPECT_EQ(stats.forced_accepts, 0u);
  EXPECT_EQ(stats.hard_failures, 1u);
}

TEST(Dc, InvalidEngineOptionsAreRejectedBeforeSolving) {
  auto ckt = make_rc();
  fk::EngineOptions options;
  options.v_tolerance = std::nan("");
  std::vector<double> x = {42.0};
  fk::CircuitStats stats;
  EXPECT_EQ(fk::solve_dc(ckt, x, options, &stats).code,
            ferro::core::ErrorCode::kInvalidScenario);
  EXPECT_EQ(x, std::vector<double>{42.0});  // untouched
  EXPECT_EQ(stats.newton_iterations, 0u);
}

TEST(Dc, SingularMatrixIsCounted) {
  // Two ideal sources fixing one node: the two branch rows coincide.
  fk::Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<fk::VoltageSource>("V1", n, fk::kGround, 1.0);
  ckt.add<fk::VoltageSource>("V2", n, fk::kGround, 2.0);
  std::vector<double> x;
  fk::CircuitStats stats;
  EXPECT_EQ(fk::solve_dc(ckt, x, {}, &stats).code,
            ferro::core::ErrorCode::kSolverDiverged);
  EXPECT_EQ(stats.singular_matrices, 1u);
  EXPECT_EQ(stats.newton_iterations, 0u);
}

// --- Predictor seeds ---------------------------------------------------------

namespace {

/// Records the size of the transient trial step it was last stamped in.
/// Stamps nothing.
class StepSize final : public fk::Device {
 public:
  explicit StepSize(std::string name) : Device(std::move(name)) {}

  void stamp(fk::Stamper&, const fk::EvalContext& ctx) override {
    if (!ctx.dc) dt = ctx.dt;
  }

  double dt = 0.0;
};

/// A TransientMachine run with the seed of every trial step recorded.
struct SeedLog {
  struct Seed {
    std::size_t history = 0;  ///< accepted solutions (DC first) before it
    double dt = 0.0;          ///< the trial step's size
    std::vector<double> x;    ///< iterate() while seeding()
  };
  std::vector<Seed> seeds;
  std::vector<std::vector<double>> accepted;  ///< accept-callback snapshots
  std::vector<double> accepted_dt;  ///< the step that led to accepted[k + 1]
  std::vector<bool> forced;         ///< accepted[k] was force-accepted
  fk::CircuitStats stats;
};

SeedLog run_seeds(fk::Circuit& ckt, const fk::TransientOptions& options) {
  const auto& step = ckt.add<StepSize>("step");
  SeedLog log;
  fk::TransientMachine machine(
      ckt, options,
      [&](const fk::Solution& sol) {
        log.accepted.emplace_back(sol.x.begin(), sol.x.end());
        log.forced.push_back(false);
      },
      &log.stats);
  while (!machine.done()) {
    const std::size_t history = log.accepted.size();
    const bool seeding = machine.seeding();
    std::vector<double> seed;
    if (seeding) seed.assign(machine.iterate().begin(), machine.iterate().end());
    const std::uint64_t forced = log.stats.forced_accepts;
    machine.advance();
    // step.dt is now the size of the trial step this advance() iterated.
    if (seeding) log.seeds.push_back({history, step.dt, std::move(seed)});
    if (log.accepted.size() != history) log.accepted_dt.push_back(step.dt);
    if (log.stats.forced_accepts != forced) log.forced.back() = true;
  }
  return log;
}

/// The seed TransientMachine documents for `seed`: the last accepted
/// solution x_n, extrapolated along the step before it when the circuit is
/// nonlinear and that step converged.
std::vector<double> predicted(const SeedLog& log, const SeedLog::Seed& seed,
                              bool nonlinear) {
  const std::vector<double>& x = log.accepted[seed.history - 1];
  if (!nonlinear || seed.history < 2 || log.forced[seed.history - 1]) return x;
  const std::vector<double>& x_prev = log.accepted[seed.history - 2];
  const double r = seed.dt / log.accepted_dt[seed.history - 2];
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] + r * (x[i] - x_prev[i]);
  }
  return out;
}

std::vector<std::uint64_t> bits(const std::vector<double>& x) {
  std::vector<std::uint64_t> out(x.size());
  std::transform(x.begin(), x.end(), out.begin(),
                 [](double v) { return std::bit_cast<std::uint64_t>(v); });
  return out;
}

/// Every seed of `log` is bitwise the documented one.
void expect_documented_seeds(const SeedLog& log, bool nonlinear) {
  ASSERT_FALSE(log.seeds.empty());
  for (std::size_t k = 0; k < log.seeds.size(); ++k) {
    EXPECT_EQ(bits(log.seeds[k].x), bits(predicted(log, log.seeds[k], nonlinear)))
        << "seed " << k << " after " << log.seeds[k].history << " solutions";
  }
}

fk::TransientOptions one_period() {
  fk::TransientOptions options;
  options.t_end = 0.02;
  options.dt_initial = 1e-6;
  options.dt_max = 5e-5;
  return options;
}

}  // namespace

TEST(Predictor, FirstSeedIsDcThenSeedsExtrapolateTheLastTwoSolutions) {
  // Started at the crest, so the DC point the first step seeds at is not 0.
  auto ckt = make_rectifier(ferro::util::kPi / 2.0);
  const SeedLog log = run_seeds(ckt, one_period());
  EXPECT_EQ(log.stats.forced_accepts, 0u);
  ASSERT_EQ(log.seeds.front().history, 1u);
  EXPECT_GT(log.accepted.front()[1], 3.0);  // v(out) at DC
  EXPECT_EQ(bits(log.seeds.front().x), bits(log.accepted.front()));
  expect_documented_seeds(log, /*nonlinear=*/true);
  // Not vacuous: the extrapolated seeds are not the last accepted solutions.
  const auto moved = std::count_if(
      log.seeds.begin(), log.seeds.end(), [&](const SeedLog::Seed& seed) {
        return seed.x != log.accepted[seed.history - 1];
      });
  EXPECT_GT(moved, static_cast<std::ptrdiff_t>(log.seeds.size() / 2));
}

TEST(Predictor, RetryAfterRejectionReusesTheHistoryWithTheSmallerRatio) {
  // Steps longer than 4 us chatter and are rejected; each retry is a
  // quarter as long and must extrapolate from the same two solutions.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(1.0, 1000.0));
  ckt.add<fk::Resistor>("R", in, out, 1000.0);
  ckt.add<ChatteringConductance>("G", out, /*calm_dt=*/4e-6);
  fk::TransientOptions options;
  options.t_end = 2e-4;
  options.dt_initial = 1e-6;
  options.dt_max = 2e-5;
  options.engine.max_newton_iterations = 4;
  const SeedLog log = run_seeds(ckt, options);
  EXPECT_GT(log.stats.steps_rejected, 0u);
  EXPECT_EQ(log.stats.forced_accepts, 0u);
  expect_documented_seeds(log, /*nonlinear=*/true);

  std::size_t retries = 0;
  for (std::size_t k = 1; k < log.seeds.size(); ++k) {
    if (log.seeds[k].history != log.seeds[k - 1].history) continue;
    ++retries;
    EXPECT_GE(log.seeds[k].history, 2u);  // with history, not the first step
    EXPECT_EQ(log.seeds[k].dt, 0.25 * log.seeds[k - 1].dt);
  }
  EXPECT_EQ(retries, log.stats.steps_rejected);
}

TEST(Predictor, StepAfterForcedAcceptSeedsAtTheForcedSolution) {
  // ForcedAcceptsAreCounted's deck: every step is force-accepted at a
  // solution the chatter left 1/3 V from the 1/2 V DC point, so keeping the
  // history would extrapolate away from it.
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 1.0);
  ckt.add<fk::Resistor>("R", in, out, 1000.0);
  ckt.add<ChatteringConductance>("G", out);
  fk::TransientOptions options;
  options.t_end = 1e-5;
  options.dt_initial = 1e-6;
  options.dt_min = 1e-7;
  options.engine.max_newton_iterations = 4;
  const SeedLog log = run_seeds(ckt, options);
  ASSERT_GE(log.stats.forced_accepts, 2u);
  expect_documented_seeds(log, /*nonlinear=*/true);
  for (const SeedLog::Seed& seed : log.seeds) {
    if (seed.history < 2) continue;
    ASSERT_TRUE(log.forced[seed.history - 1]);
    EXPECT_EQ(bits(seed.x), bits(log.accepted[seed.history - 1]));
  }
  EXPECT_NE(log.accepted[1], log.accepted[0]);
}

TEST(Predictor, LinearDeckSeedsAtItsLastAcceptedSolution) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(1.0, 50.0));
  ckt.add<fk::Resistor>("R", in, out, 100.0);
  ckt.add<fk::Capacitor>("C", out, fk::kGround, 1e-6);
  const SeedLog log = run_seeds(ckt, one_period());
  EXPECT_EQ(log.seeds.size(), log.stats.steps_accepted);
  expect_documented_seeds(log, /*nonlinear=*/false);
}
