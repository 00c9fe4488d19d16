#include "util/stream_writer.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace ferro::util {

namespace {

/// Failure description for a stream gone bad: the failed operation plus
/// errno where the OS left one (iostreams don't guarantee it, but glibc
/// filebuf preserves the write()'s errno — ENOSPC, EBADF, ... — which is
/// exactly the detail worth surfacing).
std::string stream_failure_detail(const char* op) {
  const int err = errno;
  std::string detail(op);
  detail += " failed";
  if (err != 0) {
    detail += ": ";
    detail += std::strerror(err);
  }
  return detail;
}

/// Opens `stream` on `path`; when that fails, returns false with the reason
/// — the path plus errno — in `detail`.
bool open_for_write(std::ofstream& stream, const std::string& path,
                    std::string& detail) {
  errno = 0;
  stream.open(path);
  if (stream) return true;
  detail = stream_failure_detail(("open '" + path + "'").c_str());
  return false;
}

std::vector<std::string> to_vector(std::initializer_list<std::string> items) {
  return std::vector<std::string>(items.begin(), items.end());
}

/// Shortest representation that round-trips the double.
void append_number(std::string& out, double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec == std::errc{}) {
    out.append(buf, ptr);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::numeric_limits<double>::max_digits10, value);
    out += buf;
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

CsvStreamWriter::CsvStreamWriter(const std::string& path,
                                 std::span<const std::string> columns,
                                 std::size_t flush_every)
    : width_(columns.size()), flush_every_(flush_every) {
  if (!open_for_write(stream_, path, error_detail_)) {
    ok_ = false;
    return;
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i != 0) stream_ << ',';
    stream_ << columns[i];
  }
  stream_ << '\n';
}

CsvStreamWriter::CsvStreamWriter(const std::string& path,
                                 std::initializer_list<std::string> columns,
                                 std::size_t flush_every)
    : CsvStreamWriter(path, std::span<const std::string>(to_vector(columns)),
                      flush_every) {}

void CsvStreamWriter::row(std::span<const double> values) {
  if (values.size() != width_) {
    ok_ = false;
    return;
  }
  std::string line;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) line += ',';
    append_number(line, values[i]);
  }
  line += '\n';
  errno = 0;
  stream_ << line;
  check_stream("csv row write");
  ++rows_;
  if (flush_every_ != 0 && ++unflushed_ >= flush_every_) flush();
}

void CsvStreamWriter::row(std::initializer_list<double> values) {
  row(std::span<const double>(values.begin(), values.size()));
}

void CsvStreamWriter::flush() {
  errno = 0;
  stream_.flush();
  check_stream("csv flush");
  unflushed_ = 0;
}

void CsvStreamWriter::check_stream(const char* op) {
  if (ok_ && !stream_.good()) {
    ok_ = false;
    error_detail_ = stream_failure_detail(op);
  }
}

JsonLinesWriter::JsonLinesWriter(const std::string& path,
                                 std::size_t flush_every)
    : flush_every_(flush_every) {
  if (!open_for_write(stream_, path, error_detail_)) ok_ = false;
}

void JsonLinesWriter::record(std::span<const JsonField> fields) {
  std::string line = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line += ", ";
    line += '"';
    line += json_escape(fields[i].key);
    line += "\": ";
    const auto& v = fields[i].value;
    if (const auto* num = std::get_if<double>(&v)) {
      // JSON has no NaN/Inf literals; null keeps the line parseable.
      if (std::isfinite(*num)) {
        append_number(line, *num);
      } else {
        line += "null";
      }
    } else if (const auto* str = std::get_if<std::string_view>(&v)) {
      line += '"';
      line += json_escape(*str);
      line += '"';
    } else if (const auto* flag = std::get_if<bool>(&v)) {
      line += *flag ? "true" : "false";
    } else {
      line += std::to_string(std::get<std::uint64_t>(v));
    }
  }
  line += "}\n";
  errno = 0;
  stream_ << line;
  check_stream("jsonl record write");
  ++records_;
  if (flush_every_ != 0 && ++unflushed_ >= flush_every_) flush();
}

void JsonLinesWriter::record(std::initializer_list<JsonField> fields) {
  record(std::span<const JsonField>(fields.begin(), fields.size()));
}

void JsonLinesWriter::flush() {
  errno = 0;
  stream_.flush();
  check_stream("jsonl flush");
  unflushed_ = 0;
}

void JsonLinesWriter::check_stream(const char* op) {
  if (ok_ && !stream_.good()) {
    ok_ = false;
    error_detail_ = stream_failure_detail(op);
  }
}

}  // namespace ferro::util
