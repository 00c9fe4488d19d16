// Frontend parity, property style: the direct object API, the SystemC-style
// process network and the VHDL-AMS-style solver frontend execute the same
// timeless discretisation, so over any excitation — major loops, decaying
// non-biased minor loops, biased minor loops, and the negative-slope clamp
// regime — their B-H trajectories must agree (CLM4, generalised).
#include <gtest/gtest.h>

#include <string>

#include "analysis/curve_compare.hpp"
#include "core/dc_sweep.hpp"
#include "core/scenario.hpp"
#include "support/fixtures.hpp"
#include "wave/sweep.hpp"

namespace fm = ferro::mag;
namespace fw = ferro::wave;
namespace fa = ferro::analysis;
namespace fc = ferro::core;
namespace ts = ferro::testsupport;

namespace {

struct ParityCase {
  std::string name;
  fw::HSweep sweep;
  /// Arc-resampled RMS tolerance for the AMS frontend, whose solver places
  /// its own steps (direct vs SystemC is asserted exact).
  double ams_rms_tol;
};

ParityCase major_loop_case() {
  return {"major-loop", ts::major_loop(10.0, 2), 0.05};
}

ParityCase decaying_minor_loops_case() {
  // The Fig. 1 excitation: one major cycle then shrinking non-biased cycles.
  return {"decaying-minor-loops", fc::fig1_sweep(10.0), 0.05};
}

ParityCase biased_minor_loops_case() {
  fw::SweepBuilder b(10.0);
  b.to(10e3).minor_loop(2e3, 1e3, 3);
  return {"biased-minor-loops", b.build(), 0.05};
}

ParityCase sub_threshold_case() {
  // Small symmetric cycles far below saturation: parity must hold in the
  // low-amplitude regime too, not just on saturating loops.
  return {"sub-threshold", fw::SweepBuilder(5.0).cycles(800.0, 2).build(),
          0.02};
}

class FrontendParity : public ::testing::TestWithParam<ParityCase> {};

fc::ScenarioResult run_case(const ParityCase& c, fc::Frontend frontend) {
  return ts::run_ja_frontend(fm::paper_parameters(), ts::paper_config(),
                             c.sweep, frontend);
}

}  // namespace

TEST_P(FrontendParity, SystemCMatchesDirectExactly) {
  const ParityCase& c = GetParam();
  const fc::ScenarioResult direct = run_case(c, fc::Frontend::kDirect);
  const fc::ScenarioResult systemc = run_case(c, fc::Frontend::kSystemC);
  ASSERT_TRUE(direct.ok()) << c.name << ": " << direct.error;
  ASSERT_TRUE(systemc.ok()) << c.name << ": " << systemc.error;

  ASSERT_EQ(direct.curve.size(), systemc.curve.size());
  // Same arithmetic sequence on both paths: bit-exact.
  const fa::CurveDelta d = fa::compare_pointwise(direct.curve, systemc.curve);
  EXPECT_EQ(d.max_b, 0.0) << c.name;
  EXPECT_EQ(d.max_m, 0.0) << c.name;
}

TEST_P(FrontendParity, AmsMatchesDirectWithinTolerance) {
  const ParityCase& c = GetParam();
  const fc::ScenarioResult direct = run_case(c, fc::Frontend::kDirect);
  const fc::ScenarioResult ams = run_case(c, fc::Frontend::kAms);
  ASSERT_TRUE(direct.ok()) << c.name << ": " << direct.error;
  ASSERT_TRUE(ams.ok()) << c.name << ": " << ams.error;

  ASSERT_GT(ams.curve.size(), 0u);
  // The AMS solver picks its own steps; compare by arc position.
  const fa::CurveDelta d = fa::compare_by_arc(direct.curve, ams.curve);
  EXPECT_LT(d.rms_b, c.ams_rms_tol) << c.name;
}

TEST_P(FrontendParity, ClampRegimeIsExercised) {
  // Confirms every case probes the clamp regime the parity claim must cover:
  // with the paper parameters (alpha*Ms = 4800 > k = 4000) the negative-slope
  // clamp fires at every field reversal, large or small.
  const ParityCase& c = GetParam();
  const auto result =
      fc::run_dc_sweep(fm::paper_parameters(), ts::paper_config(), c.sweep);
  EXPECT_GT(result.stats.slope_clamps, 0u) << c.name;
  EXPECT_EQ(result.stats.direction_clamps, 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Excitations, FrontendParity,
    ::testing::Values(major_loop_case(), decaying_minor_loops_case(),
                      biased_minor_loops_case(), sub_threshold_case()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });
