// Incremental file writers for streaming pipelines: rows go to disk as they
// are produced instead of after the batch, so a consumer tailing the file
// (or a crashed run) sees every completed record.
//
// CsvStreamWriter is CsvWriter's streaming sibling: same numeric-rows
// format, plus a flush policy — every `flush_every` rows the stream is
// flushed to the OS, and flush() forces it at record boundaries (e.g. one
// scenario's curve). JsonLinesWriter emits one self-contained JSON object
// per line (JSONL), the append-friendly format for heterogeneous records
// like per-scenario metrics; strings are escaped, numbers use max_digits10
// so a round-trip preserves the double.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ferro::util {

class CsvStreamWriter {
 public:
  /// Opens `path`, writes the header row, and flushes after every
  /// `flush_every` data rows (0 defers flushing to flush()/destruction).
  /// A failed open latches ok() false with the path and errno in
  /// error_detail().
  CsvStreamWriter(const std::string& path,
                  std::span<const std::string> columns,
                  std::size_t flush_every = 1);
  CsvStreamWriter(const std::string& path,
                  std::initializer_list<std::string> columns,
                  std::size_t flush_every = 1);

  CsvStreamWriter(const CsvStreamWriter&) = delete;
  CsvStreamWriter& operator=(const CsvStreamWriter&) = delete;

  /// Appends one row; `values.size()` must equal the header width.
  void row(std::span<const double> values);
  void row(std::initializer_list<double> values);

  /// Pushes everything written so far to the OS. Write/flush failures
  /// (ENOSPC, a closed descriptor, ...) latch ok() false and are described
  /// by error_detail() — a full disk must not masquerade as a clean file.
  void flush();

  /// True while the underlying stream is healthy and row widths matched.
  [[nodiscard]] bool ok() const { return ok_ && stream_.good(); }
  [[nodiscard]] std::size_t rows_written() const { return rows_; }
  /// Why ok() went false: the failed operation plus errno where the OS
  /// provided one (best effort — iostreams do not guarantee errno). Empty
  /// while healthy.
  [[nodiscard]] const std::string& error_detail() const {
    return error_detail_;
  }

 private:
  void check_stream(const char* op);

  std::ofstream stream_;
  std::size_t width_ = 0;
  std::size_t rows_ = 0;
  std::size_t flush_every_;
  std::size_t unflushed_ = 0;
  bool ok_ = true;
  std::string error_detail_;
};

/// One key/value of a JSONL record. Numbers, strings, and booleans cover
/// every record this project writes.
struct JsonField {
  std::string_view key;
  std::variant<double, std::string_view, bool, std::uint64_t> value;
};

class JsonLinesWriter {
 public:
  /// Opens `path`; a failed open is latched like CsvStreamWriter's.
  explicit JsonLinesWriter(const std::string& path, std::size_t flush_every = 1);

  JsonLinesWriter(const JsonLinesWriter&) = delete;
  JsonLinesWriter& operator=(const JsonLinesWriter&) = delete;

  /// Writes `{"k1": v1, "k2": v2, ...}\n`.
  void record(std::span<const JsonField> fields);
  void record(std::initializer_list<JsonField> fields);

  /// See CsvStreamWriter::flush — failures latch ok() and error_detail().
  void flush();

  [[nodiscard]] bool ok() const { return ok_ && stream_.good(); }
  [[nodiscard]] std::size_t records_written() const { return records_; }
  [[nodiscard]] const std::string& error_detail() const {
    return error_detail_;
  }

 private:
  void check_stream(const char* op);

  std::ofstream stream_;
  std::size_t records_ = 0;
  std::size_t flush_every_;
  std::size_t unflushed_ = 0;
  bool ok_ = true;
  std::string error_detail_;
};

/// JSON string escaping (quotes, backslashes, control characters) — exposed
/// for tests and for callers assembling JSON by hand.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace ferro::util
