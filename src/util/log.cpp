#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <string>

namespace ferro::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarning: return "warning";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void log(LogLevel level, std::string_view component, std::string_view message) {
  if (level < g_level.load()) return;
  // The whole line goes out in one write, so lines from concurrent callers
  // never interleave.
  std::string line = "[";
  line += level_name(level);
  line += "] ";
  line += component;
  line += ": ";
  line += message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

void log_debug(std::string_view c, std::string_view m) { log(LogLevel::kDebug, c, m); }
void log_info(std::string_view c, std::string_view m) { log(LogLevel::kInfo, c, m); }
void log_warning(std::string_view c, std::string_view m) { log(LogLevel::kWarning, c, m); }
void log_error(std::string_view c, std::string_view m) { log(LogLevel::kError, c, m); }

}  // namespace ferro::util
