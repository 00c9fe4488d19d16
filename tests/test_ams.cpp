// Unit tests for the analogue-solver substrate: dense LU, damped Newton,
// integrator utilities, and the adaptive transient engine on ODEs with
// known closed-form solutions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ams/integrator.hpp"
#include "ams/matrix.hpp"
#include "ams/newton.hpp"
#include "ams/transient.hpp"

namespace fa = ferro::ams;

TEST(Matrix, FillAtMultiply) {
  fa::Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.at(0, 0) = 1.0;
  m.at(0, 2) = 2.0;
  m.at(1, 1) = -1.0;
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(2);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  m.fill(0.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.5);
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
  fa::NewtonSolver solver;
  std::vector<double> x = {3.0};
  const auto result = solver.solve(
      1, [](std::span<const double> v, std::span<double> f) {
        f[0] = v[0] * v[0] - 4.0;
      },
      x);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-8);
}

TEST(Newton, CoupledSystem) {
  // x^2 + y^2 = 25, x - y = 1  ->  (4, 3).
  fa::NewtonSolver solver;
  std::vector<double> x = {5.0, 1.0};
  const auto result = solver.solve(
      2, [](std::span<const double> v, std::span<double> f) {
        f[0] = v[0] * v[0] + v[1] * v[1] - 25.0;
        f[1] = v[0] - v[1] - 1.0;
      },
      x);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 4.0, 1e-7);
  EXPECT_NEAR(x[1], 3.0, 1e-7);
}

TEST(Newton, AnalyticJacobianPath) {
  fa::NewtonSolver solver;
  std::vector<double> x = {10.0};
  const auto result = solver.solve(
      1,
      [](std::span<const double> v, std::span<double> f) {
        f[0] = std::exp(v[0]) - 2.0;
      },
      x,
      [](std::span<const double> v, fa::Matrix& j) {
        j.at(0, 0) = std::exp(v[0]);
      });
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], std::log(2.0), 1e-8);
}

TEST(Newton, DampingRescuesOvershoot) {
  // atan has a tiny capture basin for raw Newton from x0 = 3; damping must
  // still find the root at 0.
  fa::NewtonSolver solver;
  std::vector<double> x = {3.0};
  const auto result = solver.solve(
      1, [](std::span<const double> v, std::span<double> f) {
        f[0] = std::atan(v[0]);
      },
      x);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 0.0, 1e-8);
}

TEST(Newton, ReportsNonConvergence) {
  fa::NewtonOptions options;
  options.max_iterations = 4;
  fa::NewtonSolver solver(options);
  std::vector<double> x = {1.0};
  const auto result = solver.solve(
      1, [](std::span<const double> v, std::span<double> f) {
        f[0] = v[0] * v[0] + 1.0;  // no real root
      },
      x);
  EXPECT_FALSE(result.converged);
}

TEST(InfNorm, Basics) {
  EXPECT_DOUBLE_EQ(fa::inf_norm(std::vector<double>{-3.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(fa::inf_norm(std::vector<double>{}), 0.0);
}

namespace {

/// y' = -k y, y(0) = 1: y(t) = exp(-k t).
class Decay final : public fa::OdeSystem {
 public:
  explicit Decay(double k) : k_(k) {}
  [[nodiscard]] std::size_t size() const override { return 1; }
  void initial(std::span<double> y0) const override { y0[0] = 1.0; }
  void derivative(double, std::span<const double> y,
                  std::span<double> dydt) const override {
    dydt[0] = -k_ * y[0];
  }

 private:
  double k_;
};

/// Harmonic oscillator: y'' = -w^2 y as a 2-state system; energy conserved.
class Oscillator final : public fa::OdeSystem {
 public:
  explicit Oscillator(double w) : w_(w) {}
  [[nodiscard]] std::size_t size() const override { return 2; }
  void initial(std::span<double> y0) const override {
    y0[0] = 1.0;
    y0[1] = 0.0;
  }
  void derivative(double, std::span<const double> y,
                  std::span<double> dydt) const override {
    dydt[0] = y[1];
    dydt[1] = -w_ * w_ * y[0];
  }

 private:
  double w_;
};

}  // namespace

TEST(IntegrationMethod, Names) {
  EXPECT_EQ(fa::to_string(fa::IntegrationMethod::kBackwardEuler),
            "backward-euler");
  EXPECT_EQ(fa::to_string(fa::IntegrationMethod::kTrapezoidal), "trapezoidal");
  EXPECT_EQ(fa::to_string(fa::IntegrationMethod::kGear2), "gear2");
}

class TransientMethods : public ::testing::TestWithParam<fa::IntegrationMethod> {};

TEST_P(TransientMethods, DecayAccuracy) {
  Decay sys(3.0);
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-4;
  options.rel_tol = 1e-6;
  options.abs_tol = 1e-10;
  options.method = GetParam();

  fa::TransientSolver solver(options);
  double final_y = 0.0;
  ASSERT_TRUE(solver.run(sys, [&](double, std::span<const double> y) {
    final_y = y[0];
  }));
  EXPECT_NEAR(final_y, std::exp(-3.0), 5e-4);
  EXPECT_GT(solver.stats().steps_accepted, 10u);
  EXPECT_EQ(solver.stats().hard_failures, 0u);
}

TEST_P(TransientMethods, OscillatorStaysBounded) {
  Oscillator sys(2.0 * 3.14159265358979);
  fa::TransientOptions options;
  options.t_end = 3.0;
  options.dt_initial = 1e-4;
  options.rel_tol = 1e-5;
  options.abs_tol = 1e-9;
  options.method = GetParam();

  fa::TransientSolver solver(options);
  double max_amp = 0.0;
  ASSERT_TRUE(solver.run(sys, [&](double, std::span<const double> y) {
    max_amp = std::max(max_amp, std::fabs(y[0]));
  }));
  EXPECT_LT(max_amp, 1.2);  // no blow-up over 3 periods
}

INSTANTIATE_TEST_SUITE_P(AllMethods, TransientMethods,
                         ::testing::Values(fa::IntegrationMethod::kBackwardEuler,
                                           fa::IntegrationMethod::kTrapezoidal,
                                           fa::IntegrationMethod::kGear2),
                         [](const auto& info) {
                           std::string name(fa::to_string(info.param));
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(Transient, HonoursBreakpoints) {
  Decay sys(1.0);
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 0.5;  // huge steps so breakpoints matter
  options.rel_tol = 1e-2;
  options.breakpoints = {0.3, 0.7};

  fa::TransientSolver solver(options);
  std::vector<double> times;
  ASSERT_TRUE(solver.run(
      sys, [&](double t, std::span<const double>) { times.push_back(t); }));

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

TEST(Transient, StiffDecayStableWithBE) {
  Decay sys(1e6);  // very stiff
  fa::TransientOptions options;
  options.t_end = 1e-3;
  options.dt_initial = 1e-7;
  options.method = fa::IntegrationMethod::kBackwardEuler;
  options.rel_tol = 1e-3;

  fa::TransientSolver solver(options);
  double final_y = 1.0;
  ASSERT_TRUE(solver.run(sys, [&](double, std::span<const double> y) {
    final_y = y[0];
  }));
  EXPECT_NEAR(final_y, 0.0, 1e-6);
  EXPECT_EQ(solver.stats().hard_failures, 0u);
}

TEST(Transient, DiscontinuousRhsCausesRejections) {
  // RHS flips sign discontinuously: the error controller must react by
  // rejecting steps around the flips (this is the mechanism behind the
  // paper's criticism of time-domain JA integration).
  class Flipper final : public fa::OdeSystem {
   public:
    [[nodiscard]] std::size_t size() const override { return 1; }
    void initial(std::span<double> y0) const override { y0[0] = 0.0; }
    void derivative(double t, std::span<const double>,
                    std::span<double> dydt) const override {
      dydt[0] = std::fmod(t, 0.2) < 0.1 ? 1.0 : -1.0;
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
