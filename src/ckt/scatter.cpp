#include "ckt/scatter.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numbers>
#include <sstream>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ferro::ckt {
namespace {

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// One standard-normal draw (Box-Muller), truncated to |g| <= 3 by a
/// bounded deterministic redraw: the tail past 3 sigma holds ~0.3% of the
/// mass, so 32 attempts make the final clamp astronomically rare while
/// keeping the draw a pure function of the stream position.
double truncated_normal(util::SplitMix64& rng) {
  double g = 0.0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    double u1 = rng.next_unit();
    const double u2 = rng.next_unit();
    if (u1 <= 0.0) u1 = 0x1.0p-53;  // log(0) guard; next_unit() is in [0, 1)
    g = std::sqrt(-2.0 * std::log(u1)) *
        std::cos(2.0 * std::numbers::pi * u2);
    if (std::fabs(g) <= 3.0) return g;
  }
  return std::clamp(g, -3.0, 3.0);
}

}  // namespace

std::string_view to_string(ScatterKind kind) {
  switch (kind) {
    case ScatterKind::kUniform:
      return "uniform";
    case ScatterKind::kNormal:
      return "normal";
  }
  return "?";
}

std::optional<std::size_t> ScatterSpec::find(std::string_view key) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].key == key) return i;
  }
  return std::nullopt;
}

ScatterParseResult parse_scatter_spec(std::string_view text) {
  ScatterParseResult result;
  ScatterSpec spec;
  std::vector<std::string>& errors = result.errors;

  const auto fail = [&errors](int line, const std::string& message) {
    errors.push_back("line " + std::to_string(line) + ": " + message);
  };

  std::istringstream stream{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (const auto hash = line.find_first_of("#*"); hash != std::string::npos)
      line.resize(hash);

    std::istringstream fields(line);
    std::string key, tol_text, kind_text, extra;
    if (!(fields >> key)) continue;  // blank / comment-only line

    if (!(fields >> tol_text)) {
      fail(line_no, "expected '<device>.<param> <tolerance> [distribution]'");
      continue;
    }

    ScatterParam param;
    param.key = lowercase(key);
    if (param.key.find('.') == std::string::npos) {
      fail(line_no, "key '" + key + "' is not of the form <device>.<param>");
      continue;
    }
    if (spec.find(param.key)) {
      fail(line_no, "duplicate key '" + param.key + "'");
      continue;
    }

    if (const auto tolerance = util::parse_number<double>(tol_text)) {
      param.tolerance = *tolerance;
    } else {
      fail(line_no, "bad tolerance '" + tol_text + "'");
      continue;
    }
    if (!(param.tolerance >= 0.0) || !(param.tolerance < 1.0)) {
      fail(line_no,
           "tolerance must lie in [0, 1) so scattered values keep their "
           "sign; got '" +
               tol_text + "'");
      continue;
    }

    if (fields >> kind_text) {
      const std::string kind_lc = lowercase(kind_text);
      if (kind_lc == "uniform") {
        param.kind = ScatterKind::kUniform;
      } else if (kind_lc == "normal" || kind_lc == "gauss" ||
                 kind_lc == "gaussian") {
        param.kind = ScatterKind::kNormal;
      } else {
        fail(line_no, "unknown distribution '" + kind_text +
                          "' (expected uniform or normal)");
        continue;
      }
    }
    if (fields >> extra) {
      fail(line_no, "trailing token '" + extra + "'");
      continue;
    }

    spec.params.push_back(std::move(param));
  }

  if (errors.empty()) result.spec = std::move(spec);
  return result;
}

double CornerView::factor(std::string_view key) const {
  const auto idx = spec_.find(key);
  if (!idx) return 1.0;
  return values_.factors[*idx];
}

CornerSampler::CornerSampler(ScatterSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {}

CornerValues CornerSampler::corner(std::size_t index) const {
  // Per-corner stream: both the batch seed and the corner index go through
  // the full mix so adjacent corners (or adjacent seeds) share no structure.
  util::SplitMix64 rng(util::SplitMix64::mix(seed_) ^
                       util::SplitMix64::mix(static_cast<std::uint64_t>(index) +
                                             0x9e3779b97f4a7c15ULL));
  CornerValues values;
  values.factors.reserve(spec_.size());
  for (const ScatterParam& param : spec_.params) {
    double factor = 1.0;
    switch (param.kind) {
      case ScatterKind::kUniform:
        factor = 1.0 + param.tolerance * (2.0 * rng.next_unit() - 1.0);
        break;
      case ScatterKind::kNormal:
        factor = 1.0 + param.tolerance * (truncated_normal(rng) / 3.0);
        break;
    }
    values.factors.push_back(factor);
  }
  return values;
}

}  // namespace ferro::ckt
