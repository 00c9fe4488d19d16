// Tests for the SPICE-like netlist frontend: value suffixes, every card
// type, error reporting with line numbers, and parse-then-simulate runs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ckt/engine.hpp"
#include "ckt/netlist_parser.hpp"

namespace fk = ferro::ckt;

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("42"), 42.0);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("1e6"), 1e6);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("2.5e-3"), 2.5e-3);
}

TEST(SpiceValue, ScaleSuffixes) {
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("4.7k"), 4700.0);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("10u"), 1e-5);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("100n"), 1e-7);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("3p"), 3e-12);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("2f"), 2e-15);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("5m"), 5e-3);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("2g"), 2e9);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("1t"), 1e12);
}

TEST(SpiceValue, UnitSuffixesIgnored) {
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("10uF"), 1e-5);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("4.7kohm"), 4700.0);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("1.5V"), 1.5);
  EXPECT_DOUBLE_EQ(*fk::parse_spice_value("0.02s"), 0.02);
}

TEST(SpiceValue, Malformed) {
  EXPECT_FALSE(fk::parse_spice_value("").has_value());
  EXPECT_FALSE(fk::parse_spice_value("abc").has_value());
  EXPECT_FALSE(fk::parse_spice_value("1.2.3").has_value());
  EXPECT_FALSE(fk::parse_spice_value("4k7").has_value());
  // Non-finite values, whatever the spelling, and a scale that overflows.
  for (const char* token : {"nan", "NaN", "NAN", "inf", "Inf", "-inf", "+inf",
                            "infinity", "INFINITY", "-Infinity", "1e305t",
                            "-1e305t", "infk"}) {
    EXPECT_FALSE(fk::parse_spice_value(token).has_value()) << token;
  }
}

TEST(Parser, MinimalDivider) {
  auto result = fk::parse_netlist(R"(
* a comment
V1 in 0 10
R1 in mid 1k
R2 mid 0 1k
.end
)");
  ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                   ? ""
                                   : result.errors[0].message);
  EXPECT_EQ(result.netlist->device_names.size(), 3u);
  EXPECT_EQ(result.netlist->circuit.node_count(), 2u);

  std::vector<double> x;
  ASSERT_TRUE(fk::solve_dc(result.netlist->circuit, x).ok());
  const auto mid = result.netlist->circuit.node("mid");
  EXPECT_NEAR(x[static_cast<std::size_t>(mid)], 5.0, 1e-6);
}

TEST(Parser, SourceKinds) {
  auto result = fk::parse_netlist(R"(
V1 a 0 SIN(0 8 50)
V2 b 0 TRI(10k 0.02)
V3 c 0 PWL(0 0 1m 5 2m 0)
I1 d 0 2m
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.netlist->device_names.size(), 4u);
}

TEST(Parser, TranDirective) {
  auto result = fk::parse_netlist("V1 a 0 1\nR1 a 0 1k\n.tran 10u 5m\n");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.netlist->tran.has_value());
  EXPECT_DOUBLE_EQ(result.netlist->tran->dt_max, 1e-5);
  EXPECT_DOUBLE_EQ(result.netlist->tran->t_end, 5e-3);
}

TEST(Parser, PassivesWithInitialConditions) {
  auto result = fk::parse_netlist(R"(
C1 a 0 1u ic=1.0
L1 b 0 10m ic=0.5
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.netlist->device_names.size(), 2u);
}

TEST(Parser, DiodeAndSwitch) {
  auto result = fk::parse_netlist(R"(
D1 a b is=1e-12 n=1.5
S1 b 0 t=1m
S2 c 0 t=2m opens
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.netlist->device_names.size(), 3u);
}

TEST(Parser, JaCoreDevices) {
  auto result = fk::parse_netlist(R"(
V1 in 0 SIN(0 8 50)
R1 in out 0.8
Y1 out 0 area=1e-4 path=0.1 turns=100 material=paper-2006 dhmax=5
T1 p 0 s 0 area=1e-4 path=0.1 turns=100 ns=50 material=grain-oriented-si
)");
  ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                   ? ""
                                   : result.errors[0].message);
  EXPECT_EQ(result.netlist->device_names.size(), 4u);
}

TEST(Parser, MutualInductorCard) {
  auto result = fk::parse_netlist(R"(
V1 p 0 SIN(0 1 50)
K1 p 0 s 0 l1=40m l2=10m k=0.99
R1 s 0 1k
)");
  ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                   ? ""
                                   : result.errors[0].message);
  EXPECT_EQ(result.netlist->device_names.size(), 3u);
}

TEST(Parser, MutualInductorRejectsBadCoupling) {
  auto result = fk::parse_netlist("K1 p 0 s 0 l1=40m l2=10m k=1.5\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].message.find("coupling"), std::string::npos);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  auto result = fk::parse_netlist(R"(V1 in 0 10
R1 in out notanumber
Q1 a b c
)");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0].line, 2u);
  EXPECT_NE(result.errors[0].message.find("R1"), std::string::npos);
  EXPECT_EQ(result.errors[1].line, 3u);
  EXPECT_NE(result.errors[1].message.find("Q1"), std::string::npos);
}

TEST(Parser, RejectsUnknownMaterial) {
  const auto result =
      fk::parse_netlist("Y1 a 0 area=1e-4 path=0.1 turns=100 material=nope\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].message.find("unknown material"),
            std::string::npos);
}

TEST(Parser, RejectsMissingCoreGeometry) {
  auto result = fk::parse_netlist("Y1 a 0 area=1e-4 turns=100\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].message.find("path"), std::string::npos);
}

TEST(Parser, RejectsBadSin) {
  auto result = fk::parse_netlist("V1 a 0 SIN(1 2)\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].message.find("SIN"), std::string::npos);
}

TEST(Parser, RejectsNonFiniteAndOutOfDomainValues) {
  // Each card sits on line 2 of its deck, behind a valid one; the deck
  // must fail there instead of aborting on a device assert or building a
  // circuit that simulates to non-finite node voltages.
  const char* const kBadCards[] = {
      "L1 b 0 nan",
      "C1 b 0 inf",
      "R1 b 0 1e305t",
      "V1 b 0 NaN",
      "V1 b 0 PWL(0 0 1m -inf)",
      "C1 b 0 1u ic=nan",
      "D1 a b is=inf",
      "D1 a 0 n=0",
      "D1 a b is=-1e-14",
      "D1 a b is=0 n=1",
      "D1 a b n=-2",
      "S1 b 0 t=nan",
      "V1 b 0 SIN(0 1 0)",
      "V1 b 0 SIN(0 1 -50)",
      "V1 b 0 TRI(1 0)",
      "K1 a 0 b 0 l1=0 l2=1 k=0.5",
      "K1 a 0 b 0 l1=1 l2=-1m k=0.5",
      "K1 a 0 b 0 l1=nan l2=1 k=0.5",
      "Y1 b 0 area=1e-4 path=0.1 turns=100 dhmax=0",
      "Y1 b 0 area=1e-4 path=0.1 turns=100 dhmax=nan",
      "Y1 b 0 area=1e-4 path=0.1 turns=nan",
      "Y1 b 0 area=1e-4 path=0.1 turns=1e30",
      "Y1 b 0 area=1e-4 path=0.1 turns=2.7",
      "Y1 b 0 area=1e-4 path=0.1 turns=0",
      "Y1 b 0 area=1e-4 path=0 turns=100",
      "Y1 b 0 area=-1e-4 path=0.1 turns=100",
      "Y1 b 0 area=inf path=0.1 turns=100",
      "T1 a 0 b 0 area=1e-4 path=0.1 turns=100 ns=nan",
      "T1 a 0 b 0 area=1e-4 path=0.1 turns=100 ns=2.5",
      "T1 a 0 b 0 area=1e-4 path=0.1 turns=100 ns=0",
      "T1 a 0 b 0 area=1e-4 path=0.1 turns=100 ns=1e10",
      "T1 a 0 b 0 area=1e-4 path=0 turns=100 ns=50",
      "T1 a 0 b 0 area=1e-4 path=0.1 turns=100 ns=50 dhmax=-1",
      ".tran 1u nan",
      ".tran -1u 20m",
      ".tran 0 20m",
      ".tran 1u 0",
      ".tran 1u -20m",
  };
  for (const char* card : kBadCards) {
    const auto result = fk::parse_netlist(std::string("R0 a 0 1k\n") + card);
    ASSERT_FALSE(result.ok()) << card;
    ASSERT_EQ(result.errors.size(), 1u) << card;
    EXPECT_EQ(result.errors[0].line, 2u) << card;
  }
}

TEST(Parser, WholeTurnsAtTheirBoundsParse) {
  const auto result = fk::parse_netlist(
      "V1 a 0 SIN(0 1 50)\n"
      "Y1 a 0 area=1e-4 path=0.1 turns=1\n"
      "T1 a 0 b 0 area=1e-4 path=0.1 turns=2147483647 ns=1e3\n"
      "R1 b 0 1k\n");
  ASSERT_TRUE(result.ok()) << result.errors[0].message;
}

TEST(Parser, ParseThenSimulateRcStep) {
  auto result = fk::parse_netlist(R"(
* RC charging deck
V1 in 0 PWL(0 0 1u 1 1 1)
R1 in out 1k
C1 out 0 1u ic=0
.tran 20u 5m
)");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.netlist->tran.has_value());

  fk::TransientOptions options;
  options.t_end = result.netlist->tran->t_end;
  options.dt_max = result.netlist->tran->dt_max;
  options.dt_initial = 1e-6;

  const auto out = result.netlist->circuit.node("out");
  double v_end = 0.0;
  ASSERT_TRUE(fk::run_transient(result.netlist->circuit, options,
                            [&](const fk::Solution& sol) {
                              v_end = sol.v(out);
                            }).ok());
  EXPECT_NEAR(v_end, 1.0 - std::exp(-5.0), 2e-2);
}

TEST(Parser, ParseThenSimulateJaInductor) {
  auto result = fk::parse_netlist(R"(
V1 in 0 SIN(0 7 50)
R1 in out 1
Y1 out 0 area=1e-4 path=0.1 turns=100 material=paper-2006 dhmax=5
.tran 20u 20m
)");
  ASSERT_TRUE(result.ok());
  fk::TransientOptions options;
  options.t_end = result.netlist->tran->t_end;
  options.dt_max = result.netlist->tran->dt_max;
  options.dt_initial = 1e-6;

  double peak_i = 0.0;
  ASSERT_TRUE(fk::run_transient(result.netlist->circuit, options,
                            [&](const fk::Solution& sol) {
                              peak_i = std::max(peak_i,
                                                std::fabs(sol.branch_current(1)));
                            }).ok());
  EXPECT_GT(peak_i, 0.5);  // the core draws real magnetising current
}
