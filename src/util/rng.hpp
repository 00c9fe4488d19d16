// util::SplitMix64 — the repo's one deterministic PRNG.
//
// splitmix64 (Steele/Lea/Flood): 64-bit state, one add + three xor-shift
// multiplies per draw, identical bit stream on every platform and compiler —
// unlike <random>'s distributions, whose draws are implementation-defined.
// The circuit Monte-Carlo scatter sampler draws from it, because per-corner
// draws must reproduce from a seed alone.
#pragma once

#include <cstdint>

namespace ferro::util {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed = 0) : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) from the top 53 bits.
  double next_unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// One finalizer pass without advancing any state: a cheap, well-mixed
  /// 64 -> 64 hash for deriving decorrelated stream seeds (e.g. one
  /// independent draw sequence per Monte-Carlo corner from a batch seed).
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  std::uint64_t state_;
};

}  // namespace ferro::util
