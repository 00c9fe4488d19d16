// Minimal CSV writer/reader for simulation traces and bench artefacts.
//
// The writer streams rows to disk; the reader loads a whole numeric table.
// Both are deliberately simple: no quoting/escaping, because every producer
// in this project writes plain numeric columns.
#pragma once

#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ferro::util {

/// Streams numeric rows into a CSV file. The file is flushed and closed on
/// destruction (RAII); `ok()` reports whether every write so far succeeded,
/// and flush() first makes that cover the rows still buffered.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::string& path, std::span<const std::string> columns);
  CsvWriter(const std::string& path, std::initializer_list<std::string> columns);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one row; `values.size()` must equal the header width.
  void row(std::span<const double> values);
  void row(std::initializer_list<double> values);

  /// Pushes every row written so far to the file. A write that fails here
  /// (a full disk, say) turns ok() false, so a caller that reports a
  /// finished file flushes before it asks ok().
  void flush();

  /// True while the underlying stream is healthy and row widths matched.
  [[nodiscard]] bool ok() const { return ok_ && stream_.good(); }

  /// Number of data rows written so far.
  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  std::ofstream stream_;
  std::size_t width_ = 0;
  std::size_t rows_ = 0;
  bool ok_ = true;
};

/// An in-memory numeric table with named columns.
struct CsvTable {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  /// Index of `name` in `columns`, or -1 if absent.
  [[nodiscard]] int column_index(std::string_view name) const;

  /// All values of the named column (empty if the column is absent).
  [[nodiscard]] std::vector<double> column(std::string_view name) const;
};

/// Reads a numeric CSV produced by CsvWriter. Returns an empty table (no
/// columns) when the file cannot be opened or parsed.
[[nodiscard]] CsvTable read_csv(const std::string& path);

}  // namespace ferro::util
