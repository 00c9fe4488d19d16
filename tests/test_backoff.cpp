// core::Backoff — the shard executor's crash-recovery retry schedule.
// Pins the contract the recovery machinery
// leans on: retry budget exhaustion, cap clamping, jitter bounds, and
// bit-exact determinism under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/backoff.hpp"

namespace {

using ferro::core::Backoff;
using ferro::core::BackoffPolicy;

TEST(Backoff, GrantsExactlyMaxRetriesThenExhausts) {
  BackoffPolicy policy;
  policy.max_retries = 3;
  policy.base_ms = 1.0;
  Backoff backoff(policy, /*seed=*/42);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(backoff.next_delay_ms().has_value()) << "retry " << i;
  }
  EXPECT_EQ(backoff.attempts(), 3);
  EXPECT_FALSE(backoff.next_delay_ms().has_value());
  EXPECT_FALSE(backoff.next_delay_ms().has_value()) << "exhaustion is sticky";
  EXPECT_EQ(backoff.attempts(), 3) << "denied retries are not counted";
}

TEST(Backoff, ZeroMaxRetriesDeniesImmediately) {
  BackoffPolicy policy;
  policy.max_retries = 0;
  Backoff backoff(policy);
  EXPECT_FALSE(backoff.next_delay_ms().has_value());
  EXPECT_EQ(backoff.attempts(), 0);
}

TEST(Backoff, PlainExponentialFollowsEnvelopeAndCap) {
  BackoffPolicy policy;
  policy.max_retries = 5;
  policy.base_ms = 10.0;
  policy.cap_ms = 200.0;
  policy.multiplier = 3.0;
  policy.decorrelated_jitter = false;
  Backoff backoff(policy);

  // 10, 30, 90, then the 270/810 envelope clamps to the cap.
  EXPECT_EQ(backoff.next_delay_ms(), std::optional<double>(10.0));
  EXPECT_EQ(backoff.next_delay_ms(), std::optional<double>(30.0));
  EXPECT_EQ(backoff.next_delay_ms(), std::optional<double>(90.0));
  EXPECT_EQ(backoff.next_delay_ms(), std::optional<double>(200.0));
  EXPECT_EQ(backoff.next_delay_ms(), std::optional<double>(200.0));
}

TEST(Backoff, DecorrelatedJitterStaysInsideBounds) {
  BackoffPolicy policy;
  policy.max_retries = 64;
  policy.base_ms = 5.0;
  policy.cap_ms = 250.0;
  policy.multiplier = 3.0;
  policy.decorrelated_jitter = true;

  for (std::uint64_t seed : {0ULL, 1ULL, 0x5eedULL, 0xdeadbeefULL}) {
    Backoff backoff(policy, seed);
    double previous = policy.base_ms;
    while (auto delay = backoff.next_delay_ms()) {
      EXPECT_GE(*delay, policy.base_ms);
      EXPECT_LE(*delay, policy.cap_ms);
      // Uniform over [base, multiplier * previous] before the cap clamp.
      EXPECT_LE(*delay, std::max(policy.base_ms, policy.multiplier * previous));
      previous = *delay;
    }
  }
}

TEST(Backoff, FixedSeedReproducesTheDelaySequence) {
  BackoffPolicy policy;
  policy.max_retries = 16;
  policy.base_ms = 2.0;
  policy.cap_ms = 500.0;

  const auto record = [&policy](std::uint64_t seed) {
    Backoff backoff(policy, seed);
    std::vector<double> delays;
    while (auto delay = backoff.next_delay_ms()) delays.push_back(*delay);
    return delays;
  };

  EXPECT_EQ(record(7), record(7)) << "same seed, same schedule — bit exact";
  EXPECT_NE(record(7), record(8)) << "different seeds decorrelate";
}

TEST(Backoff, ResetStartsAFreshCourseWithAdvancedPrng) {
  BackoffPolicy policy;
  policy.max_retries = 2;
  policy.base_ms = 1.0;
  policy.cap_ms = 100.0;
  Backoff backoff(policy, /*seed=*/3);

  std::vector<double> first;
  while (auto delay = backoff.next_delay_ms()) first.push_back(*delay);
  EXPECT_EQ(first.size(), 2u);

  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0);
  std::vector<double> second;
  while (auto delay = backoff.next_delay_ms()) second.push_back(*delay);
  EXPECT_EQ(second.size(), 2u) << "reset restores the full retry budget";
  // The PRNG keeps advancing across courses, so repeated courses of one
  // unit do not retry in lockstep.
  EXPECT_NE(first, second);
}

TEST(Backoff, ZeroBaseRetriesImmediatelyRegardlessOfJitter) {
  BackoffPolicy policy;
  policy.max_retries = 4;
  policy.base_ms = 0.0;
  policy.decorrelated_jitter = true;
  Backoff backoff(policy, /*seed=*/11);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(backoff.next_delay_ms(), std::optional<double>(0.0));
  }
}

}  // namespace
