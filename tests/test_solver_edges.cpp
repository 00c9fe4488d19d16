// Edge-case and failure-injection tests for the analogue solver substrate:
// the give-up path, breakpoint corner cases, counter behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ams/transient.hpp"

namespace fa = ferro::ams;

namespace {

/// y' = -k y with a right-hand side that becomes hostile (NaN) after
/// t_break — forces Newton non-convergence for failure-path tests.
class Hostile final : public fa::OdeSystem {
 public:
  explicit Hostile(double t_break) : t_break_(t_break) {}
  [[nodiscard]] double initial() const override { return 1.0; }
  [[nodiscard]] double derivative(double t, double y) const override {
    if (t > t_break_) return std::numeric_limits<double>::quiet_NaN();
    return -y;
  }

 private:
  double t_break_;
};

/// y' = -k y, y(0) = 1.
class Decay final : public fa::OdeSystem {
 public:
  explicit Decay(double k = 1.0) : k_(k) {}
  [[nodiscard]] double initial() const override { return 1.0; }
  [[nodiscard]] double derivative(double, double y) const override {
    return -k_ * y;
  }

 private:
  double k_;
};

}  // namespace

TEST(TransientEdges, PersistentFailuresEventuallyGiveUp) {
  // The solver tolerates isolated convergence failures (force-accept, as a
  // commercial solver does after a warning), but a permanently hostile
  // system must not crawl at dt_min forever: the engine gives up after 25
  // forced accepts in a row, at the 26th hard failure.
  Hostile sys(0.5);
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-2;

  fa::TransientSolver solver(options);
  double last_t = 0.0;
  const bool ok = solver.run(sys, [&](double t, double) { last_t = t; });
  EXPECT_FALSE(ok);                               // gave up, reported
  EXPECT_EQ(solver.stats().hard_failures, 26u);  // 25 forced accepts + 1
  EXPECT_GT(last_t, 0.4);                         // got to the hostile region
  EXPECT_LT(last_t, 1.0);                         // but not through it
}

TEST(TransientEdges, BreakpointAtStartIsIgnored) {
  Decay sys;
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-3;
  options.breakpoints = {0.0, 0.5};  // 0.0 must not wedge the loop

  fa::TransientSolver solver(options);
  ASSERT_TRUE(solver.run(sys));
  EXPECT_GT(solver.stats().steps_accepted, 10u);
}

TEST(TransientEdges, DuplicateAndOutOfRangeBreakpoints) {
  Decay sys;
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-3;
  options.breakpoints = {0.5, 0.5, 0.5, 2.0, -1.0};

  fa::TransientSolver solver(options);
  std::vector<double> times;
  ASSERT_TRUE(solver.run(sys, [&](double t, double) { times.push_back(t); }));
  bool hit = false;
  for (const double t : times) {
    if (std::fabs(t - 0.5) < 1e-9) hit = true;
  }
  EXPECT_TRUE(hit);
  EXPECT_NEAR(times.back(), 1.0, 1e-9);
}

TEST(TransientEdges, AcceptHookFiresOncePerAcceptedStep) {
  // on_accept sees t_start and then each accepted step once, in time
  // order: rejected trial steps never reach it.
  Decay sys(10.0);
  fa::TransientOptions options;
  options.t_end = 0.5;
  options.dt_initial = 1e-3;
  options.rel_tol = 1e-6;  // tight enough to reject some trial steps

  fa::TransientSolver solver(options);
  std::vector<double> times;
  ASSERT_TRUE(solver.run(sys, [&](double t, double) { times.push_back(t); }));
  EXPECT_GT(solver.stats().steps_rejected_lte, 0u);
  ASSERT_EQ(static_cast<std::uint64_t>(times.size()),
            solver.stats().steps_accepted + 1);
  EXPECT_EQ(times.front(), 0.0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]) << i;
  }
}

TEST(TransientEdges, DtMaxDefaultsToFiftiethOfHorizon) {
  Decay sys;
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1.0;  // asks for one giant step
  options.rel_tol = 1e-1;    // permissive, so LTE won't bite

  fa::TransientSolver solver(options);
  ASSERT_TRUE(solver.run(sys));
  EXPECT_LE(solver.stats().max_dt_used, 1.0 / 50.0 + 1e-12);
  EXPECT_GE(solver.stats().steps_accepted, 50u);
}

TEST(TransientEdges, TightAccuracyCostsSteps) {
  Decay sys;
  const auto steps_at = [&](double rel_tol) {
    fa::TransientOptions options;
    options.t_end = 1.0;
    options.dt_initial = 1e-4;
    options.rel_tol = rel_tol;
    fa::TransientSolver solver(options);
    EXPECT_TRUE(solver.run(sys));
    return solver.stats().steps_accepted;
  };
  EXPECT_GT(steps_at(1e-7), steps_at(1e-3));
}

TEST(TransientEdges, StatsMinMaxDtOrdered) {
  Decay sys;
  fa::TransientOptions options;
  options.t_end = 1.0;
  options.dt_initial = 1e-5;
  fa::TransientSolver solver(options);
  ASSERT_TRUE(solver.run(sys));
  EXPECT_GT(solver.stats().min_dt_used, 0.0);
  EXPECT_GE(solver.stats().max_dt_used, solver.stats().min_dt_used);
}
