// Unit tests for ferro::wave — waveform shapes, PWL, sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/constants.hpp"
#include "wave/pwl.hpp"
#include "wave/standard.hpp"
#include "wave/sweep.hpp"

namespace fw = ferro::wave;

TEST(StandardWave, Constant) {
  const fw::Constant c(5.0);
  EXPECT_DOUBLE_EQ(c.value(0.0), 5.0);
  EXPECT_DOUBLE_EQ(c.value(123.0), 5.0);
  EXPECT_DOUBLE_EQ(c.derivative(7.0), 0.0);
}

TEST(StandardWave, Step) {
  const fw::Step s(0.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(s.value(1.999), 0.0);
  EXPECT_DOUBLE_EQ(s.value(2.0), 1.0);
}

TEST(StandardWave, SineValueAndDerivative) {
  const fw::Sine s(2.0, 50.0);  // 2 A at 50 Hz
  EXPECT_NEAR(s.value(0.0), 0.0, 1e-12);
  EXPECT_NEAR(s.value(0.005), 2.0, 1e-12);  // quarter period
  EXPECT_NEAR(s.derivative(0.0), 2.0 * 2.0 * ferro::util::kPi * 50.0, 1e-9);
}

TEST(StandardWave, SineOffsetPhase) {
  const fw::Sine s(1.0, 1.0, ferro::util::kPi / 2.0, 10.0);
  EXPECT_NEAR(s.value(0.0), 11.0, 1e-12);
}

TEST(StandardWave, TriangularShape) {
  const fw::Triangular tri(1.0, 4.0);  // amplitude 1, period 4
  EXPECT_DOUBLE_EQ(tri.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tri.value(1.0), 1.0);   // quarter period: +A
  EXPECT_DOUBLE_EQ(tri.value(2.0), 0.0);   // half period: 0
  EXPECT_DOUBLE_EQ(tri.value(3.0), -1.0);  // three quarters: -A
  EXPECT_DOUBLE_EQ(tri.value(4.0), 0.0);
  EXPECT_DOUBLE_EQ(tri.value(5.0), 1.0);   // periodic
  EXPECT_DOUBLE_EQ(tri.derivative(0.5), 1.0);
  EXPECT_DOUBLE_EQ(tri.derivative(1.5), -1.0);
}

TEST(StandardWave, TriangularNegativeTime) {
  const fw::Triangular tri(1.0, 4.0);
  EXPECT_NEAR(tri.value(-1.0), -1.0, 1e-12);  // periodic extension
}

TEST(Pwl, InterpolationAndClamping) {
  const fw::Pwl pwl({{0.0, 0.0}, {1.0, 10.0}, {3.0, -10.0}});
  EXPECT_DOUBLE_EQ(pwl.value(-1.0), 0.0);   // clamp before
  EXPECT_DOUBLE_EQ(pwl.value(0.5), 5.0);
  EXPECT_DOUBLE_EQ(pwl.value(2.0), 0.0);
  EXPECT_DOUBLE_EQ(pwl.value(5.0), -10.0);  // clamp after
  EXPECT_DOUBLE_EQ(pwl.derivative(0.5), 10.0);
  EXPECT_DOUBLE_EQ(pwl.derivative(2.0), -10.0);
}

TEST(Pwl, UnsortedInputIsRepaired) {
  const fw::Pwl pwl({{1.0, 10.0}, {0.0, 0.0}});
  EXPECT_DOUBLE_EQ(pwl.value(0.5), 5.0);
}

TEST(Pwl, DuplicateTimesLastWins) {
  const fw::Pwl pwl({{0.0, 0.0}, {1.0, 5.0}, {1.0, 10.0}, {2.0, 10.0}});
  EXPECT_DOUBLE_EQ(pwl.value(1.0), 10.0);
  EXPECT_EQ(pwl.points().size(), 3u);
}

TEST(Pwl, Breakpoints) {
  const fw::Pwl pwl({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}});
  const auto bp = pwl.breakpoints();
  ASSERT_EQ(bp.size(), 3u);
  EXPECT_DOUBLE_EQ(bp[1], 1.0);
}

TEST(Sweep, ToSegmentSpacingAndEndpoint) {
  const fw::HSweep sweep = fw::SweepBuilder(10.0).to(35.0).build();
  ASSERT_EQ(sweep.h.size(), 5u);  // 0, 10, 20, 30, 35
  EXPECT_DOUBLE_EQ(sweep.h.front(), 0.0);
  EXPECT_DOUBLE_EQ(sweep.h[1], 10.0);
  EXPECT_DOUBLE_EQ(sweep.h.back(), 35.0);
}

TEST(Sweep, ToIsNoOpForZeroSpan) {
  fw::SweepBuilder b(10.0);
  b.to(0.0);
  const auto sweep = b.build();
  EXPECT_EQ(sweep.h.size(), 1u);
}

TEST(Sweep, CyclesProduceTurningPoints) {
  const fw::HSweep sweep = fw::SweepBuilder(100.0).cycles(1000.0, 2).build();
  // 0 -> +A -> -A -> +A -> -A -> +A: 4 direction flips.
  EXPECT_EQ(sweep.turning_points.size(), 4u);
  EXPECT_DOUBLE_EQ(sweep.h.back(), 1000.0);
}

TEST(Sweep, MinorLoopAroundBias) {
  const fw::HSweep sweep =
      fw::SweepBuilder(10.0).minor_loop(500.0, 100.0, 2).build();
  double max_h = -1e30, min_h = 1e30;
  for (const double h : sweep.h) {
    max_h = std::max(max_h, h);
    min_h = std::min(min_h, h);
  }
  EXPECT_DOUBLE_EQ(max_h, 600.0);
  EXPECT_DOUBLE_EQ(min_h, 0.0);  // builder starts from 0
  EXPECT_DOUBLE_EQ(sweep.h.back(), 600.0);
}

TEST(Sweep, DecayingCyclesVisitEachAmplitude) {
  const fw::HSweep sweep =
      fw::SweepBuilder(50.0).decaying_cycles({1000.0, 500.0}).build();
  double max_h = -1e30, min_h = 1e30;
  for (const double h : sweep.h) {
    max_h = std::max(max_h, h);
    min_h = std::min(min_h, h);
  }
  EXPECT_DOUBLE_EQ(max_h, 1000.0);
  EXPECT_DOUBLE_EQ(min_h, -1000.0);
  // Ends at the top of the smallest cycle.
  EXPECT_DOUBLE_EQ(sweep.h.back(), 500.0);
}

TEST(Sweep, FromWaveform) {
  const fw::Triangular tri(100.0, 1.0);
  const fw::HSweep sweep = fw::sweep_from_waveform(tri, 0.0, 1.0, 101);
  EXPECT_EQ(sweep.h.size(), 101u);
  EXPECT_NEAR(sweep.h[25], 100.0, 1e-9);
  EXPECT_EQ(sweep.turning_points.size(), 2u);
}

TEST(Sweep, FindTurningPointsHandlesPlateaus) {
  const std::vector<double> h = {0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0};
  const auto turns = fw::find_turning_points(h);
  ASSERT_EQ(turns.size(), 2u);
  EXPECT_EQ(turns[0], 3u);  // peak at index 3 (value 2.0)
  EXPECT_EQ(turns[1], 5u);  // valley at index 5 (value 0.0)
}

