// Tests for the hysteretic circuit devices: JA-core inductor and
// transformer inside the MNA transient engine, and the latched event
// decision of their shared core companion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ckt/core_companion.hpp"
#include "ckt/engine.hpp"
#include "ckt/ja_inductor.hpp"
#include "ckt/netlist.hpp"
#include "ckt/rlc.hpp"
#include "ckt/sources.hpp"
#include "ckt/transformer.hpp"
#include "mag/bh.hpp"
#include "util/constants.hpp"
#include "wave/standard.hpp"

namespace fk = ferro::ckt;
namespace fm = ferro::mag;
namespace fw = ferro::wave;

namespace {

fm::CoreGeometry small_core() {
  fm::CoreGeometry geom;
  geom.area = 1e-4;        // 1 cm^2
  geom.path_length = 0.1;  // 10 cm
  geom.turns = 100;
  return geom;
}

fm::TimelessConfig core_config() {
  fm::TimelessConfig cfg;
  cfg.dhmax = 5.0;  // fine threshold for smooth circuit coupling
  return cfg;
}

}  // namespace

TEST(JaInductor, DcBehavesAsShort) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround, 1.0);
  ckt.add<fk::Resistor>("R", in, out, 100.0);
  ckt.add<fk::JaInductor>("Lcore", out, fk::kGround, small_core(),
                          fm::paper_parameters(), core_config());

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(ckt, x).ok());
  EXPECT_NEAR(x[static_cast<std::size_t>(out)], 0.0, 1e-4);  // quasi-short
}

TEST(JaInductor, SineDriveMagnetisesCore) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  // 50 Hz drive sized to push the core around its knee.
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(25.0, 50.0));
  ckt.add<fk::Resistor>("R", in, out, 5.0);
  auto& core = ckt.add<fk::JaInductor>("Lcore", out, fk::kGround, small_core(),
                                       fm::paper_parameters(), core_config());

  fk::TransientOptions options;
  options.t_end = 0.04;  // two cycles
  options.dt_initial = 1e-6;
  options.dt_max = 5e-5;

  double max_b = 0.0, max_h = 0.0, max_i = 0.0;
  fk::CircuitStats stats;
  ASSERT_TRUE(fk::run_transient(
      ckt, options,
      [&](const fk::Solution& sol) {
        max_b = std::max(max_b, std::fabs(core.flux_density()));
        max_h = std::max(max_h, std::fabs(core.field()));
        max_i = std::max(max_i, std::fabs(sol.branch_current(1)));
      },
      &stats).ok());

  EXPECT_GT(max_b, 0.2);   // core actually magnetised
  EXPECT_GT(max_h, 100.0); // field well past dhmax
  EXPECT_GT(max_i, 0.05);
  EXPECT_EQ(stats.hard_failures, 0u);
}

namespace {

struct VoltSeconds {
  double integral = 0.0;      ///< trapezoidal integral of the winding voltage
  double lambda_start = 0.0;  ///< committed flux linkage at t_start
  double lambda_end = 0.0;    ///< committed flux linkage at t_end
};

/// One mains cycle of a 20 V drive through 2 Ohm into the core: deep into
/// saturation on both half cycles.
VoltSeconds volt_second_run(double dt_max) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(20.0, 50.0));
  ckt.add<fk::Resistor>("R", in, out, 2.0);
  auto& core = ckt.add<fk::JaInductor>("Lcore", out, fk::kGround, small_core(),
                                       fm::paper_parameters(), core_config());

  fk::TransientOptions options;
  options.t_end = 0.02;
  options.dt_initial = 1e-6;
  options.dt_max = dt_max;

  const fm::CoreGeometry geom = small_core();
  VoltSeconds run;
  double prev_t = 0.0, prev_v = 0.0;
  bool first = true;
  EXPECT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    const double v = sol.v(out);
    if (first) {
      run.lambda_start = geom.linkage_from_b(core.flux_density());
      first = false;
    } else {
      run.integral += 0.5 * (v + prev_v) * (sol.t - prev_t);
    }
    prev_t = sol.t;
    prev_v = v;
  }).ok());
  run.lambda_end = geom.linkage_from_b(core.flux_density());
  return run;
}

}  // namespace

TEST(JaInductor, VoltSecondBalance) {
  // Faraday consistency: integral of the winding voltage equals the flux
  // linkage swing of the committed model.
  const VoltSeconds run = volt_second_run(2e-5);
  const double swing = run.lambda_end - run.lambda_start;
  EXPECT_NEAR(run.integral, swing, 0.005 * std::max(1e-3, std::fabs(swing)));
}

TEST(JaInductor, CoarseStepsEndOnTheSameBranch) {
  // A 1e-4 s step moves the field across many event thresholds. The seed
  // iterate's wide slope keeps Newton on the near root; a narrow one jumps
  // to a far root on the other side of the loop (+0.009 Wb instead of
  // -0.0157 Wb).
  const double fine = volt_second_run(2e-5).lambda_end;
  const double coarse = volt_second_run(1e-4).lambda_end;
  EXPECT_NEAR(coarse, fine, 0.03 * std::fabs(fine));
}

TEST(JaInductor, CoreSaturationClampsFluxNotCurrent) {
  // Saturation signature: at 10 V the volt-second demand is ~3.2 T — far
  // beyond mu0*(Ms+H). The core must clamp B near saturation while the
  // current keeps growing (limited only by the series resistor).
  const auto run_at = [&](double volts, double* peak_b) {
    fk::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                               std::make_shared<fw::Sine>(volts, 50.0));
    ckt.add<fk::Resistor>("R", in, out, 1.0);
    auto& core = ckt.add<fk::JaInductor>("Lcore", out, fk::kGround,
                                         small_core(), fm::paper_parameters(),
                                         core_config());
    fk::TransientOptions options;
    options.t_end = 0.04;
    options.dt_initial = 1e-6;
    options.dt_max = 2e-5;
    double peak_i = 0.0;
    *peak_b = 0.0;
    EXPECT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
      if (sol.t > 0.02) {
        peak_i = std::max(peak_i, std::fabs(sol.branch_current(1)));
        *peak_b = std::max(*peak_b, std::fabs(core.flux_density()));
      }
    }).ok());
    return peak_i;
  };

  double b_low = 0.0, b_high = 0.0;
  const double i_low = run_at(3.0, &b_low);
  const double i_high = run_at(10.0, &b_high);
  ASSERT_GT(i_low, 0.0);

  // Flux pinned near the saturation knee: nowhere close to the 3.2 T the
  // volt-seconds demand.
  EXPECT_GT(b_high, 1.3);
  EXPECT_LT(b_high, 2.3);
  // Current grows much faster than flux once the core saturates: the flux
  // ratio stays well under the 10/3 voltage ratio.
  EXPECT_GT(i_high / i_low, 2.5);
  EXPECT_LT(b_high / b_low, 2.4);
}

TEST(JaInductor, TrialDiIsTheSeedsWideStep) {
  // The one difference step a stamp still takes is the seed iterate's: at
  // least one event threshold wide, whatever the current. Later iterates
  // take the exact tangent and no step at all.
  const fm::CoreGeometry geom = small_core();
  const fk::JaInductor core("L", 0, fk::kGround, geom, fm::paper_parameters(),
                            core_config());
  const double wide = geom.current_from_field(1.5 * core_config().dhmax);
  for (const double i : {0.0, 0.5, -2.0}) EXPECT_EQ(core.trial_di(i), wide);
  // Far out, the step grows with the field instead.
  const double i_far = geom.current_from_field(1e8);
  EXPECT_EQ(core.trial_di(i_far), geom.current_from_field(1e-6 * (1.0 + 1e8)));
}

TEST(JaInductor, StateRewindOnRejectedStepsIsClean) {
  // Run the same circuit twice: once with generous steps (forces internal
  // retries) and once with tiny forced steps. The committed core state must
  // end at nearly the same place — rejected trials must not leak into the
  // hysteresis trajectory.
  const auto run_with = [&](double dt_max) {
    fk::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                               std::make_shared<fw::Sine>(20.0, 50.0));
    ckt.add<fk::Resistor>("R", in, out, 5.0);
    auto& core = ckt.add<fk::JaInductor>("L", out, fk::kGround, small_core(),
                                         fm::paper_parameters(), core_config());
    fk::TransientOptions options;
    options.t_end = 0.01;
    options.dt_initial = 1e-6;
    options.dt_max = dt_max;
    EXPECT_TRUE(fk::run_transient(ckt, options, {}).ok());
    return core.flux_density();
  };
  const double b_coarse = run_with(1e-4);
  const double b_fine = run_with(1e-5);
  EXPECT_NEAR(b_coarse, b_fine, 0.1);
}

namespace {

/// A soft, low-loss core (grain-oriented Si class) sized so a ~1.5 V, 50 Hz
/// drive swings ~0.5 T: the regime where a transformer behaves like one.
fm::JaParameters soft_params() {
  return fm::find_material("grain-oriented-si")->params;
}

fm::TimelessConfig soft_config() {
  fm::TimelessConfig cfg;
  cfg.dhmax = 0.5;  // the soft material's field scale is ~100 A/m
  return cfg;
}

}  // namespace

TEST(Transformer, TurnsRatioWithLightLoad) {
  fk::Circuit ckt;
  const auto p = ckt.node("p");
  const auto s = ckt.node("s");
  ckt.add<fk::VoltageSource>("V", p, fk::kGround,
                             std::make_shared<fw::Sine>(1.5, 50.0));
  fm::CoreGeometry geom = small_core();  // Np = 100
  ckt.add<fk::JaTransformer>("T", p, fk::kGround, s, fk::kGround, geom,
                             /*turns_secondary=*/50, soft_params(),
                             soft_config());
  ckt.add<fk::Resistor>("Rload", s, fk::kGround, 10e3);  // light load

  fk::TransientOptions options;
  options.t_end = 0.04;
  options.dt_initial = 1e-6;
  options.dt_max = 2e-5;

  double peak_p = 0.0, peak_s = 0.0;
  ASSERT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
    if (sol.t < 0.02) return;  // settle first
    peak_p = std::max(peak_p, std::fabs(sol.v(p)));
    peak_s = std::max(peak_s, std::fabs(sol.v(s)));
  }).ok());
  EXPECT_NEAR(peak_s / peak_p, 0.5, 0.06);  // Ns/Np = 50/100
}

TEST(Transformer, LoadCurrentReflectsToPrimary) {
  const auto peak_primary_with_load = [&](double r_load) {
    fk::Circuit ckt;
    const auto in = ckt.node("in");
    const auto p = ckt.node("p");
    const auto s = ckt.node("s");
    ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                               std::make_shared<fw::Sine>(1.5, 50.0));
    ckt.add<fk::Resistor>("Rsrc", in, p, 0.5);
    ckt.add<fk::JaTransformer>("T", p, fk::kGround, s, fk::kGround,
                               small_core(), 50, soft_params(),
                               soft_config());
    ckt.add<fk::Resistor>("Rload", s, fk::kGround, r_load);

    fk::TransientOptions options;
    options.t_end = 0.04;
    options.dt_initial = 1e-6;
    options.dt_max = 2e-5;
    double peak_ip = 0.0;
    EXPECT_TRUE(fk::run_transient(ckt, options, [&](const fk::Solution& sol) {
      if (sol.t > 0.02) {
        peak_ip = std::max(peak_ip, std::fabs(sol.branch_current(1)));
      }
    }).ok());
    return peak_ip;
  };

  // The heavy load reflects to 0.25 * (Np/Ns)^2 = 1 Ohm on the primary —
  // well below the magnetising impedance, so load current dominates.
  const double light = peak_primary_with_load(10e3);
  const double heavy = peak_primary_with_load(0.25);
  EXPECT_GT(heavy, 1.5 * light);  // loading the secondary loads the primary
}

TEST(Transformer, CoreStateExposed) {
  fk::Circuit ckt;
  const auto p = ckt.node("p");
  const auto s = ckt.node("s");
  ckt.add<fk::VoltageSource>("V", p, fk::kGround,
                             std::make_shared<fw::Sine>(1.5, 50.0));
  auto& xfmr = ckt.add<fk::JaTransformer>("T", p, fk::kGround, s, fk::kGround,
                                          small_core(), 50, soft_params(),
                                          soft_config());
  ckt.add<fk::Resistor>("Rload", s, fk::kGround, 1e3);

  fk::TransientOptions options;
  options.t_end = 0.01;
  options.dt_initial = 1e-6;
  options.dt_max = 2e-5;
  ASSERT_TRUE(fk::run_transient(ckt, options, {}).ok());
  EXPECT_NE(xfmr.flux_density(), 0.0);
  EXPECT_NE(xfmr.field(), 0.0);
  EXPECT_NE(xfmr.primary_current(), 0.0);
}

// --- Latched event decision (CoreCompanion) ---------------------------------

TEST(CoreCompanion, DecisionSwitchesOnlyFromNoEventToEvent) {
  const fm::TimelessConfig config = core_config();  // dhmax 5, anchor at 0
  fk::CoreCompanion core(fm::paper_parameters(), config);
  const double far = 2.0 * config.dhmax;
  const double near = 0.5 * config.dhmax;

  core.latch(near, /*seed=*/true);  // seed inside the threshold: no event
  EXPECT_FALSE(core.event());
  core.latch(far, false);  // a later iterate crosses: event from now on
  EXPECT_TRUE(core.event());
  core.latch(near, false);  // ... and an iterate back inside keeps it
  EXPECT_TRUE(core.event());
  core.latch(near, true);  // the next trial step's seed decides afresh
  EXPECT_FALSE(core.event());

  // A later iterate linearises on the latched branch: the event branch
  // inside the threshold, once an earlier iterate crossed it.
  core.latch(far, false);
  const fm::FluxTangent later = core.linearise(near, /*seed=*/false);
  EXPECT_TRUE(core.event());
  EXPECT_EQ(later.b, core.model().evaluate(near, true).b);
  EXPECT_NE(later.b, core.model().evaluate(near, false).b);
  EXPECT_EQ(later.db_dh, core.model().evaluate(near, true).db_dh);

  // commit() takes the latched branch: an event inside the threshold.
  core.latch(far, false);
  core.commit(near, /*natural=*/false);
  EXPECT_EQ(core.model().stats().field_events, 1u);
  EXPECT_EQ(core.model().state().anchor_h, near);
}

namespace {

/// A companion whose committed state has history: a ramp to ~400 A/m in
/// events of 1.2 dhmax, so the anchor sits there with m_irr well off zero.
fk::CoreCompanion ramped_companion(const fm::JaParameters& params,
                                   const fm::TimelessConfig& config) {
  fk::CoreCompanion core(params, config);
  for (double h = 0.0; h <= 400.0; h += 1.2 * config.dhmax) {
    core.latch(h, /*seed=*/true);
    core.commit(h, /*natural=*/false);
  }
  return core;
}

/// B at h on the branch `event`, from a copy of the committed model.
double model_copy_b(const fk::CoreCompanion& core, double h, bool event,
                    fm::TimelessStats* stats = nullptr) {
  fm::TimelessJa copy = core.model();
  copy.apply(h, event);
  if (stats != nullptr) *stats = copy.stats();
  return copy.flux_density();
}

/// Richardson-extrapolated central difference of B on the branch `event`,
/// from model copies.
double richardson_slope(const fk::CoreCompanion& core, double h, bool event,
                        double d) {
  const auto central = [&](double step) {
    return (model_copy_b(core, h + step, event) -
            model_copy_b(core, h - step, event)) /
           (2.0 * step);
  };
  return (4.0 * central(0.5 * d) - central(d)) / 3.0;
}

const fm::AnhystereticKind kKinds[] = {fm::AnhystereticKind::kAtan,
                                       fm::AnhystereticKind::kDualAtan,
                                       fm::AnhystereticKind::kClassicLangevin};

fm::JaParameters params_of(fm::AnhystereticKind kind) {
  fm::JaParameters params = fm::paper_parameters_dual();
  params.kind = kind;
  return params;
}

}  // namespace

TEST(CoreCompanion, TangentBIsTheLatchedBranchBitwise) {
  // B from evaluate() and flux_density_at() is bitwise what a model copy's
  // apply(h, event) gives, for every anhysteretic, on both branches, at a
  // plain point, at a reversal (whose negative slope is clamped to zero)
  // and, with the slope clamp off, at the same reversal where the
  // direction clamp rejects dm.
  for (const fm::AnhystereticKind kind : kKinds) {
    for (const bool clamp_slope : {true, false}) {
      fm::TimelessConfig config = core_config();
      config.clamp_negative_slope = clamp_slope;
      fk::CoreCompanion core = ramped_companion(params_of(kind), config);
      const double anchor = core.model().state().anchor_h;
      for (const bool event : {false, true}) {
        for (const double h : {anchor + 2.0, anchor + 7.5, anchor - 7.5,
                               anchor - 60.0, anchor + 300.0}) {
          SCOPED_TRACE(testing::Message()
                       << "kind " << static_cast<int>(kind) << " clamp "
                       << clamp_slope << " event " << event << " h " << h);
          fm::TimelessStats stats;
          const double b = model_copy_b(core, h, event, &stats);
          EXPECT_EQ(core.model().evaluate(h, event).b, b);
          EXPECT_EQ(core.model().flux_density_at(h, event), b);
          if (event && h < anchor) {
            // Descending from the ascending ramp: the slope is negative.
            const auto& before = core.model().stats();
            if (clamp_slope) {
              EXPECT_GT(stats.slope_clamps, before.slope_clamps);
            } else {
              EXPECT_GT(stats.direction_clamps, before.direction_clamps);
            }
          }
        }
      }
    }
  }
}

TEST(CoreCompanion, TangentMatchesRichardsonDifference) {
  // dB/dH from the chain rule agrees with a Richardson-extrapolated central
  // difference of the same latched branch, away from its kinks (the anchor,
  // a clamp switching on); they agree to ~1e-10. On the event branch the
  // slope's own derivative matters: without d(dm)/dH's dh * ds term the
  // tangent misses by 4e-3 (3 A/m past the anchor) to 0.2 (250 A/m).
  for (const fm::AnhystereticKind kind : kKinds) {
    fk::CoreCompanion core = ramped_companion(params_of(kind), core_config());
    const double anchor = core.model().state().anchor_h;
    for (const bool event : {false, true}) {
      for (const double h : {anchor + 3.0, anchor + 9.0, anchor + 40.0,
                             anchor + 250.0}) {
        SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                        << " event " << event << " h " << h);
        const double exact = core.model().evaluate(h, event).db_dh;
        const double reference = richardson_slope(core, h, event, 0.05);
        EXPECT_GT(exact, 0.0);
        EXPECT_NEAR(exact, reference, 1e-7 * std::fabs(reference));
      }
    }
  }
}

TEST(CoreCompanion, TangentFollowsTheSubSteps) {
  // With sub-stepping on, an event of several sub-steps is differentiated
  // through the sub-step loop: B stays bitwise, the slope matches the
  // extrapolated difference between the sub-step count's jumps.
  fm::TimelessConfig config = core_config();
  config.substep_max = 2.0;
  for (const fm::AnhystereticKind kind : kKinds) {
    fk::CoreCompanion core = ramped_companion(params_of(kind), config);
    const double anchor = core.model().state().anchor_h;
    for (const double h : {anchor + 5.0, anchor + 11.0, anchor + 47.0}) {
      SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                      << " h " << h);
      const fm::FluxTangent tangent = core.model().evaluate(h, true);
      EXPECT_EQ(tangent.b, model_copy_b(core, h, true));
      const double reference = richardson_slope(core, h, true, 0.05);
      EXPECT_NEAR(tangent.db_dh, reference,
                  1e-7 * std::fabs(reference));
    }
  }
}

namespace {

struct DeckRun {
  double peak = 0.0;  ///< |i| peak of the probed winding [A]
  fk::CircuitStats stats;
};

/// One mains cycle of `ckt` at step bound dt_max, recording the |i| peak of
/// branch 1 (the winding after the source's branch).
DeckRun run_deck(fk::Circuit& ckt, double dt_max) {
  fk::TransientOptions options;
  options.t_end = 0.02;
  options.dt_initial = std::min(1e-6, dt_max);
  options.dt_max = dt_max;
  DeckRun run;
  EXPECT_TRUE(fk::run_transient(
                  ckt, options,
                  [&](const fk::Solution& sol) {
                    run.peak =
                        std::max(run.peak, std::fabs(sol.branch_current(1)));
                  },
                  &run.stats)
                  .ok());
  return run;
}

/// The nominal corner of the repository benchmark's inrush deck, its core
/// discretised by `config`.
DeckRun inrush_deck(double dt_max,
                    const fm::TimelessConfig& config = core_config()) {
  fk::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add<fk::VoltageSource>("V", in, fk::kGround,
                             std::make_shared<fw::Sine>(8.0, 50.0));
  ckt.add<fk::Resistor>("R", in, out, 0.8);
  ckt.add<fk::JaInductor>("Lcore", out, fk::kGround, small_core(),
                          fm::paper_parameters(), config);
  return run_deck(ckt, dt_max);
}

/// The nominal corner of the repository benchmark's transformer deck,
/// probing the primary current.
DeckRun transformer_deck(double dt_max) {
  fk::Circuit ckt;
  const auto p = ckt.node("p");
  const auto s = ckt.node("s");
  ckt.add<fk::VoltageSource>("V", p, fk::kGround,
                             std::make_shared<fw::Sine>(1.5, 50.0));
  ckt.add<fk::JaTransformer>("T", p, fk::kGround, s, fk::kGround,
                             small_core(), 50, soft_params(), soft_config());
  ckt.add<fk::Resistor>("Rload", s, fk::kGround, 100.0);
  return run_deck(ckt, dt_max);
}

}  // namespace

TEST(CoreCompanion, BenchmarkDecksConvergeInFewIterations) {
  // Seeded at the predicted solution, an inrush step settles in about two
  // iterations (the seed and one past it), a transformer step in under 3.5.
  const struct {
    DeckRun run;
    double iterations_per_step;
  } decks[] = {{inrush_deck(2e-5), 2.2}, {transformer_deck(2e-5), 3.6}};
  for (const auto& [run, iterations_per_step] : decks) {
    const fk::CircuitStats& st = run.stats;
    EXPECT_EQ(st.hard_failures, 0u);
    EXPECT_EQ(st.steps_rejected, 0u);
    EXPECT_LE(static_cast<double>(st.newton_iterations),
              iterations_per_step * static_cast<double>(st.steps_accepted));
  }
}

TEST(CoreCompanion, PeaksConvergeInTheStepBound) {
  // Fewer iterations must not mean a different answer: the peaks at the
  // benchmark's dt_max match a run with a 100x finer step bound.
  const double dt_max = 2e-5;
  const double inrush = inrush_deck(dt_max).peak;
  const double inrush_ref = inrush_deck(dt_max / 100.0).peak;
  EXPECT_NEAR(inrush, inrush_ref, 0.001 * inrush_ref);
  const double primary = transformer_deck(dt_max).peak;
  const double primary_ref = transformer_deck(dt_max / 100.0).peak;
  EXPECT_NEAR(primary, primary_ref, 0.002 * primary_ref);
}

TEST(CoreCompanion, SubSteppedCoreConvergesInTheStepBound) {
  // A core that sub-steps its events (substep_max > 0) takes its Newton
  // slope through the sub-step loop: its inrush peak at the benchmark's
  // dt_max still matches a 100x finer step bound, as the paper's one-step
  // core does.
  fm::TimelessConfig config = core_config();
  config.substep_max = 2.0;
  const double dt_max = 2e-5;
  const DeckRun run = inrush_deck(dt_max, config);
  const double reference = inrush_deck(dt_max / 100.0, config).peak;
  EXPECT_NEAR(run.peak, reference, 0.001 * reference);
  EXPECT_EQ(run.stats.steps_rejected, 0u);
  EXPECT_EQ(run.stats.hard_failures, 0u);
}
