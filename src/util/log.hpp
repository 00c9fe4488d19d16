// Lightweight leveled logger.
//
// Defaults to Warning so simulations stay quiet; tests and examples raise
// the level when they want progress output. Thread-safe: the level is
// atomic, and each line reaches stderr in a single write, so pool workers
// (the circuit engine logs from them) may log concurrently without racing
// set_log_level or interleaving lines.
#pragma once

#include <string_view>

namespace ferro::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Writes "[level] component: message" to stderr when enabled.
void log(LogLevel level, std::string_view component, std::string_view message);

void log_debug(std::string_view component, std::string_view message);
void log_info(std::string_view component, std::string_view message);
void log_warning(std::string_view component, std::string_view message);
void log_error(std::string_view component, std::string_view message);

}  // namespace ferro::util
