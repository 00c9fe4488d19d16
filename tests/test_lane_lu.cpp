// ckt::LaneLu property tests: every lane of a block is bit for bit what
// ams::LuSolver::factor + solve computes for its system alone — the
// solution and the singular verdict — at every SIMD width this binary can
// run, for every block fill (idle lanes included), over matrices built to
// hit each branch of the scalar loop: pivot ties and swaps, zero and -0.0
// factors, singular columns next to regular lanes, NaN and Inf entries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ams/matrix.hpp"
#include "ckt/lane_lu.hpp"
#include "mag/timeless_ja_batch.hpp"
#include "util/rng.hpp"

namespace fa = ferro::ams;
namespace fk = ferro::ckt;
namespace fm = ferro::mag;

namespace {

enum class Kind {
  kRandom,             ///< uniform entries in [-1, 1)
  kPivotForcing,       ///< tiny diagonal, large entries below it
  kDiagonallyDominant, ///< no row swaps at all
  kSignedZeros,        ///< small integers, ties, +0.0 and -0.0 entries
  kSingular,           ///< one all-zero column
  kNonFinite,          ///< a few NaN / +-Inf entries among random ones
};
constexpr Kind kKinds[] = {Kind::kRandom,       Kind::kPivotForcing,
                           Kind::kDiagonallyDominant, Kind::kSignedZeros,
                           Kind::kSingular,     Kind::kNonFinite};

double uniform(ferro::util::SplitMix64& rng) {
  return 2.0 * rng.next_unit() - 1.0;
}

fa::Matrix make_matrix(Kind kind, std::size_t n, ferro::util::SplitMix64& rng) {
  fa::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double v = uniform(rng);
      switch (kind) {
        case Kind::kRandom:
          break;
        case Kind::kPivotForcing:
          v = r == c ? 1e-3 * v : (r > c ? 1e3 * v : v);
          break;
        case Kind::kDiagonallyDominant:
          if (r == c) v += static_cast<double>(2 * n);
          break;
        case Kind::kSignedZeros: {
          static constexpr double kValues[] = {0.0, -0.0, 1.0, -1.0, 2.0, -2.0};
          v = kValues[rng.next() % 6];
          break;
        }
        case Kind::kSingular:
          break;
        case Kind::kNonFinite: {
          const std::uint64_t roll = rng.next() % 16;
          if (roll == 0) v = std::numeric_limits<double>::quiet_NaN();
          if (roll == 1) v = std::numeric_limits<double>::infinity();
          if (roll == 2) v = -std::numeric_limits<double>::infinity();
          break;
        }
      }
      a.at(r, c) = v;
    }
  }
  if (kind == Kind::kSingular) {
    const std::size_t col = rng.next() % n;
    for (std::size_t r = 0; r < n; ++r) a.at(r, col) = 0.0;
  }
  return a;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Bitwise equality, except that any NaN equals any NaN: where two NaNs of
/// different sign or payload meet in one operation, x86 keeps the first
/// operand's, and the compiler orders a product's operands freely — in
/// LuSolver as in the lanes — so which one survives is not part of the
/// contract. (Every NaN the arithmetic itself generates is the same default
/// NaN; only NaN inputs carry other payloads.)
bool same_value(double a, double b) {
  return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
}

/// Restores the automatic SIMD pick when a test leaves.
class SimdWidthGuard {
 public:
  SimdWidthGuard() = default;
  ~SimdWidthGuard() { fm::TimelessJaBatch::force_simd_width(0); }
  SimdWidthGuard(const SimdWidthGuard&) = delete;
  SimdWidthGuard& operator=(const SimdWidthGuard&) = delete;
};

/// Loads `lanes` systems into one block, solves it, and checks each lane
/// against LuSolver bitwise.
void expect_lanes_match_lu_solver(const std::vector<fa::Matrix>& matrices,
                                  const std::vector<std::vector<double>>& rhs,
                                  const std::string& where) {
  const std::size_t lanes = matrices.size();
  const std::size_t n = matrices[0].rows();
  fk::LaneLu block;
  block.reset(n, lanes);
  ASSERT_GE(block.width(), lanes) << where;
  for (std::size_t l = 0; l < lanes; ++l) block.load(l, matrices[l], rhs[l]);
  block.solve();

  for (std::size_t l = 0; l < lanes; ++l) {
    fa::LuSolver lu;
    const bool regular = lu.factor(matrices[l]);
    ASSERT_EQ(block.singular(l), !regular) << where << " lane " << l;
    if (!regular) continue;
    std::vector<double> expected(n), actual(n);
    ASSERT_TRUE(lu.solve(rhs[l], expected));
    block.store(l, actual);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(same_value(actual[r], expected[r]))
          << where << " lane " << l << " x[" << r << "] = " << actual[r]
          << " vs LuSolver " << expected[r];
    }
  }
}

}  // namespace

TEST(LaneLu, MaxLanesFollowsTheActiveSimdWidth) {
  SimdWidthGuard guard;
  for (const int width : fm::TimelessJaBatch::available_simd_widths()) {
    ASSERT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    EXPECT_EQ(fk::LaneLu::max_lanes(), static_cast<std::size_t>(width));
    // A block runs at the narrowest width covering its systems.
    fk::LaneLu block;
    for (std::size_t lanes = 1; lanes <= fk::LaneLu::max_lanes(); ++lanes) {
      block.reset(3, lanes);
      EXPECT_GE(block.width(), lanes);
      EXPECT_LE(block.width(), static_cast<std::size_t>(width));
      EXPECT_TRUE(block.width() == 1 || block.width() / 2 < lanes)
          << "width " << block.width() << " for " << lanes << " lanes";
    }
  }
}

TEST(LaneLu, EveryLaneMatchesLuSolverBitwiseAtEveryWidth) {
  SimdWidthGuard guard;
  ferro::util::SplitMix64 rng(20061017);
  for (const int width : fm::TimelessJaBatch::available_simd_widths()) {
    ASSERT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    for (std::size_t n = 1; n <= 9; ++n) {
      for (std::size_t lanes = 1; lanes <= fk::LaneLu::max_lanes(); ++lanes) {
        // One block per kind with every lane of that kind, then blocks of
        // mixed kinds, so singular and non-finite lanes sit next to
        // regular ones.
        for (std::size_t trial = 0; trial < std::size(kKinds) + 8; ++trial) {
          std::vector<fa::Matrix> matrices;
          std::vector<std::vector<double>> rhs;
          for (std::size_t l = 0; l < lanes; ++l) {
            const Kind kind = trial < std::size(kKinds)
                                  ? kKinds[trial]
                                  : kKinds[rng.next() % std::size(kKinds)];
            matrices.push_back(make_matrix(kind, n, rng));
            std::vector<double> b(n);
            for (double& v : b) v = uniform(rng);
            rhs.push_back(std::move(b));
          }
          expect_lanes_match_lu_solver(
              matrices, rhs,
              "width " + std::to_string(width) + " n " + std::to_string(n) +
                  " lanes " + std::to_string(lanes) + " trial " +
                  std::to_string(trial));
        }
      }
    }
  }
}

TEST(LaneLu, ZeroFactorsSkipAndNaNFactorsDoNot) {
  // zero_factors: column 0's factors are -0.0 and +0.0, which LuSolver
  // skips, so the Inf in the pivot row never meets them (0 * Inf would put
  // a NaN into row 1) and x[0] comes out -Inf. nan_factor: row 2's factor
  // is NaN, which LuSolver does not skip: the NaN fills row 2, so its last
  // pivot is NaN rather than 0 and the lane is not singular. Each block
  // cycles through the two and a regular system, lane by lane.
  SimdWidthGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  fa::Matrix zero_factors(3, 3);
  const double zero_rows[3][3] = {{2.0, inf, 1.0}, {-0.0, 1.0, -0.0},
                                  {0.0, 0.5, 1.0}};
  fa::Matrix nan_factor(3, 3);
  const double nan_rows[3][3] = {{2.0, 1.0, 0.0}, {0.0, 1.0, 0.0},
                                 {nan, 0.0, 0.0}};
  fa::Matrix regular(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      zero_factors.at(r, c) = zero_rows[r][c];
      nan_factor.at(r, c) = nan_rows[r][c];
      regular.at(r, c) = r == c ? 4.0 : 1.0;
    }
  }
  const fa::Matrix* cycle[] = {&zero_factors, &nan_factor, &regular};
  const std::vector<double> b = {1.0, 3.0, 2.0};
  for (const int width : fm::TimelessJaBatch::available_simd_widths()) {
    ASSERT_EQ(fm::TimelessJaBatch::force_simd_width(width), width);
    std::vector<fa::Matrix> matrices;
    std::vector<std::vector<double>> rhs;
    for (std::size_t l = 0; l < fk::LaneLu::max_lanes(); ++l) {
      matrices.push_back(*cycle[l % 3]);
      rhs.push_back(b);
    }
    expect_lanes_match_lu_solver(matrices, rhs,
                                 "width " + std::to_string(width));
  }
}
