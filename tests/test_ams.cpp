// Unit tests for the analogue-solver substrate: the circuit engine's dense
// LU, the one-unknown damped Newton, and the adaptive trapezoidal engine on
// ODEs with known closed-form solutions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ams/matrix.hpp"
#include "ams/transient.hpp"

namespace fa = ferro::ams;

TEST(Matrix, FillAt) {
  fa::Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  m.at(0, 2) = 2.0;
  EXPECT_DOUBLE_EQ(m.data()[2], 2.0);  // row-major
  m.fill(0.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.5);
}

TEST(Lu, SolvesKnownSystem) {
  fa::Matrix a(3, 3);
  const double vals[3][3] = {{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a.at(r, c) = vals[r][c];
  const std::vector<double> b = {8.0, -11.0, -3.0};
  std::vector<double> x(3);

  fa::LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  ASSERT_TRUE(lu.solve(b, x));
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal: only solvable with row exchange.
  fa::Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const std::vector<double> b = {3.0, 5.0};
  std::vector<double> x(2);
  fa::LuSolver lu;
  ASSERT_TRUE(lu.factor(a));
  ASSERT_TRUE(lu.solve(b, x));
  EXPECT_DOUBLE_EQ(x[0], 5.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(Lu, DetectsSingular) {
  fa::Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  fa::LuSolver lu;
  EXPECT_FALSE(lu.factor(a));
  EXPECT_TRUE(lu.singular());
  std::vector<double> x(2);
  EXPECT_FALSE(lu.solve(std::vector<double>{1.0, 2.0}, x));
}

TEST(Newton, ScalarQuadratic) {
  // x^2 = 4, start from 3.
  double x = 3.0;
  std::uint64_t iterations = 0;
  EXPECT_TRUE(fa::solve_newton([](double v) { return v * v - 4.0; }, x,
                               iterations));
  EXPECT_NEAR(x, 2.0, 1e-8);
  EXPECT_GT(iterations, 0u);
}

TEST(Newton, StartAtTheRootTakesNoIteration) {
  double x = 2.0;
  std::uint64_t iterations = 7;  // the solve adds to the caller's count
  EXPECT_TRUE(fa::solve_newton([](double v) { return v * v - 4.0; }, x,
                               iterations));
  EXPECT_EQ(x, 2.0);
  EXPECT_EQ(iterations, 7u);
}

TEST(Newton, DampingRescuesOvershoot) {
  // atan has a tiny capture basin for raw Newton from x0 = 3; damping must
  // still find the root at 0.
  double x = 3.0;
  std::uint64_t iterations = 0;
  EXPECT_TRUE(
      fa::solve_newton([](double v) { return std::atan(v); }, x, iterations));
  EXPECT_NEAR(x, 0.0, 1e-8);
}

TEST(Newton, ReportsNonConvergence) {
  double x = 1.0;
  std::uint64_t iterations = 0;
  EXPECT_FALSE(fa::solve_newton([](double v) { return v * v + 1.0; },  // no real root
                                x, iterations));
  EXPECT_GT(iterations, 0u);
}

TEST(Newton, NanResidualNeverConverges) {
  // A NaN residual must read as "not converged", never as a zero residual.
  double x = 1.0;
  std::uint64_t iterations = 0;
  EXPECT_FALSE(fa::solve_newton(
      [](double) { return std::numeric_limits<double>::quiet_NaN(); }, x,
      iterations));
}

namespace {

/// y' = -k y, y(0) = 1: y(t) = exp(-k t).
class Decay final : public fa::OdeSystem {
 public:
  explicit Decay(double k) : k_(k) {}
  [[nodiscard]] double initial() const override { return 1.0; }
  [[nodiscard]] double derivative(double, double y) const override {
    return -k_ * y;
  }

 private:
  double k_;
};

}  // namespace

TEST(Transient, DecayAccuracy) {
  Decay sys(3.0);
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-4;
  options.rel_tol = 1e-6;
  options.abs_tol = 1e-10;

  fa::TransientSolver solver(options);
  double final_y = 0.0;
  ASSERT_TRUE(solver.run(sys, [&](double, double y) { final_y = y; }));
  EXPECT_NEAR(final_y, std::exp(-3.0), 5e-4);
  EXPECT_GT(solver.stats().steps_accepted, 10u);
  EXPECT_EQ(solver.stats().hard_failures, 0u);
}

TEST(Transient, HonoursBreakpoints) {
  Decay sys(1.0);
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 0.5;  // huge steps so breakpoints matter
  options.rel_tol = 1e-2;
  options.breakpoints = {0.3, 0.7};

  fa::TransientSolver solver(options);
  std::vector<double> times;
  ASSERT_TRUE(solver.run(sys, [&](double t, double) { times.push_back(t); }));

  const auto hit = [&](double t_target) {
    for (const double t : times) {
      if (std::fabs(t - t_target) < 1e-9) return true;
    }
    return false;
  };
  EXPECT_TRUE(hit(0.3));
  EXPECT_TRUE(hit(0.7));
  EXPECT_NEAR(times.back(), 1.0, 1e-9);
}

TEST(Transient, DiscontinuousRhsCausesRejections) {
  // RHS flips sign discontinuously: the error controller must react by
  // rejecting steps around the flips (this is the mechanism behind the
  // paper's criticism of time-domain JA integration).
  class Flipper final : public fa::OdeSystem {
   public:
    [[nodiscard]] double initial() const override { return 0.0; }
    [[nodiscard]] double derivative(double t, double) const override {
      return std::fmod(t, 0.2) < 0.1 ? 1.0 : -1.0;
    }
  };
  Flipper sys;
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-3;
  options.rel_tol = 1e-6;
  options.abs_tol = 1e-12;

  fa::TransientSolver solver(options);
  ASSERT_TRUE(solver.run(sys));
  EXPECT_GT(solver.stats().steps_rejected_lte, 0u);
}
