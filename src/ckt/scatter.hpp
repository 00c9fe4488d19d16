// Tolerance/corner scatter for circuit Monte-Carlo: which quantities vary,
// by how much, under which distribution — and a sampler that turns
// (seed, corner index) into the per-corner multiplicative factors.
//
// Draws are *positional*: corner i's factors depend only on the batch seed,
// the corner index, and the parameter order in the spec — never on thread
// count, partition, or evaluation order. That is what makes a Monte-Carlo
// sweep reproducible from `--seed` alone and bitwise invariant across
// parallel schedules (the property the ckt::MonteCarlo tests pin down).
//
// Factors are multiplicative (1.0 = nominal): a corner scales each
// scattered quantity as value = nominal * factor, so one spec applies to a
// programmatic circuit builder and to a parsed netlist alike — nominals
// stay wherever they already live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ferro::ckt {

enum class ScatterKind {
  kUniform,  ///< factor uniform in [1 - tol, 1 + tol)
  kNormal,   ///< factor 1 + tol * g/3, g ~ N(0,1) truncated at |g| <= 3
};

[[nodiscard]] std::string_view to_string(ScatterKind kind);

/// One scattered quantity. `key` is the lowercase "<device>.<param>" name
/// the circuit builder (or the netlist scatter hook) resolves — e.g.
/// "r1.value", "lcore.ms", "lcore.area". `tolerance` is relative: 0.05
/// scatters +/- 5% around nominal (a normal draw's 3-sigma span).
struct ScatterParam {
  std::string key;
  double tolerance = 0.0;
  ScatterKind kind = ScatterKind::kUniform;
};

struct ScatterSpec {
  std::vector<ScatterParam> params;

  [[nodiscard]] std::size_t size() const { return params.size(); }
  /// Index of `key` in the spec; nullopt when the key is not scattered.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view key) const;
};

/// Outcome of parse_scatter_spec: either a spec or line-numbered errors.
struct ScatterParseResult {
  std::optional<ScatterSpec> spec;
  std::vector<std::string> errors;  ///< "line N: message", non-empty on failure

  [[nodiscard]] bool ok() const { return spec.has_value(); }
};

/// Parses the ferro_mc scatter file format, one scattered quantity per line:
///
///     # tolerances are relative; distribution defaults to uniform
///     r1.value     0.05
///     lcore.ms     0.10  normal
///     lcore.area   0.02  uniform
///
/// '#' and '*' start comments; parsing is all-or-nothing like the netlist
/// parser. Tolerances use the CLI flags' number grammar
/// (util::parse_number: no '+' sign, no hex floats, finite only).
[[nodiscard]] ScatterParseResult parse_scatter_spec(std::string_view text);

/// One corner's draws: factors[i] scales the quantity named by
/// spec.params[i]. Self-contained (plain doubles) so results can outlive
/// the sampler.
struct CornerValues {
  std::vector<double> factors;
};

/// Spec + draws bound together for a circuit builder: the view a
/// ckt::CornerBuilder receives.
class CornerView {
 public:
  CornerView(const ScatterSpec& spec, const CornerValues& values,
             std::size_t index)
      : spec_(spec), values_(values), index_(index) {}

  /// Multiplicative factor for `key`; 1.0 when the spec does not scatter it.
  [[nodiscard]] double factor(std::string_view key) const;

  /// nominal * factor(key) — the scattered value of this corner.
  [[nodiscard]] double value(std::string_view key, double nominal) const {
    return nominal * factor(key);
  }

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] const ScatterSpec& spec() const { return spec_; }
  [[nodiscard]] const CornerValues& values() const { return values_; }

 private:
  const ScatterSpec& spec_;
  const CornerValues& values_;
  std::size_t index_;
};

/// Deterministic corner generator over a spec: corner(i) is a pure function
/// of (seed, i) — see the file comment. Thread-safe (no mutable state).
class CornerSampler {
 public:
  CornerSampler(ScatterSpec spec, std::uint64_t seed);

  [[nodiscard]] const ScatterSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  [[nodiscard]] CornerValues corner(std::size_t index) const;

 private:
  ScatterSpec spec_;
  std::uint64_t seed_;
};

}  // namespace ferro::ckt
