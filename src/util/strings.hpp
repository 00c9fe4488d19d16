// Small string helpers shared by CSV parsing and the command-line tools'
// flag parsing.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ferro::util {

/// Split `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Strict number parsing for command-line values: std::from_chars must
/// consume the whole token (no whitespace, no trailing garbage, no '+').
/// An unsigned T takes no sign, an integer outside T's range is rejected
/// instead of wrapped, and a floating-point T must be finite. nullopt on any
/// violation, the empty token included.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace ferro::util
