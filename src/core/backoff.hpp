// core::Backoff — the retry schedule of the shard executor's crash recovery
// (retry a crashed shard on a fresh worker after a capped, jittered delay):
// "may this unit try again, and after how long?".
//
// The delay schedule is capped exponential backoff with *decorrelated
// jitter* (each delay is drawn uniformly from [base, 3 * previous], clamped
// to the cap), which spreads retry storms without the lockstep resonance of
// plain exponential doubling. The jitter PRNG is a seeded splitmix64, so a
// fixed seed reproduces the exact delay sequence on every platform — the
// shard executor's recovery tests are deterministic, not statistical.
#pragma once

#include <cstdint>
#include <optional>

#include "util/rng.hpp"

namespace ferro::core {

struct BackoffPolicy {
  /// Retries allowed after the first attempt; 0 disables retrying.
  int max_retries = 1;
  /// First retry delay [ms]; 0 retries immediately.
  double base_ms = 0.0;
  /// Upper clamp of any delay [ms].
  double cap_ms = 1000.0;
  /// Growth factor of the undecorrelated envelope (delay_n <=
  /// base * multiplier^n); the jitter draw never exceeds it.
  double multiplier = 3.0;
  /// Draw each delay uniformly from [base, multiplier * previous] instead of
  /// taking the envelope itself. Off = deterministic exponential schedule.
  bool decorrelated_jitter = true;
};

/// One retry course for one unit of work. Ask next_delay_ms() after each
/// failure: a value is the delay to wait before retrying, nullopt means the
/// policy is exhausted and the failure is final.
class Backoff {
 public:
  explicit Backoff(const BackoffPolicy& policy, std::uint64_t seed = 0);

  /// Permission (and delay) for the next retry; nullopt once
  /// policy.max_retries have been granted. Delays are in
  /// [0, policy.cap_ms], non-decreasing caps, deterministic under a seed.
  [[nodiscard]] std::optional<double> next_delay_ms();

  /// Retries granted so far.
  [[nodiscard]] int attempts() const { return attempts_; }

  /// Rewinds to a fresh course (same policy, PRNG keeps advancing so
  /// repeated courses stay decorrelated).
  void reset() {
    attempts_ = 0;
    previous_ms_ = 0.0;
  }

 private:
  /// Uniform [0, 1) draw from the shared splitmix64 engine (util::SplitMix64
  /// — seedable, identical everywhere, unlike std::uniform_real_distribution
  /// whose draws are implementation-defined).
  [[nodiscard]] double next_unit();

  BackoffPolicy policy_;
  util::SplitMix64 rng_;
  int attempts_ = 0;
  double previous_ms_ = 0.0;
};

}  // namespace ferro::core
