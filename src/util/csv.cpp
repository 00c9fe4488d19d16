#include "util/csv.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace ferro::util {

namespace {

std::vector<std::string> to_vector(std::initializer_list<std::string> items) {
  return std::vector<std::string>(items.begin(), items.end());
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path, std::span<const std::string> columns)
    : stream_(path), width_(columns.size()) {
  if (!stream_) {
    ok_ = false;
    return;
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i != 0) stream_ << ',';
    stream_ << columns[i];
  }
  stream_ << '\n';
}

CsvWriter::CsvWriter(const std::string& path, std::initializer_list<std::string> columns)
    : CsvWriter(path, std::span<const std::string>(to_vector(columns))) {}

void CsvWriter::row(std::span<const double> values) {
  if (values.size() != width_) {
    ok_ = false;
    return;
  }
  stream_.precision(12);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) stream_ << ',';
    stream_ << values[i];
  }
  stream_ << '\n';
  ++rows_;
}

void CsvWriter::row(std::initializer_list<double> values) {
  row(std::span<const double>(values.begin(), values.size()));
}

void CsvWriter::flush() { stream_.flush(); }

int CsvTable::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<double> CsvTable::column(std::string_view name) const {
  const int idx = column_index(name);
  if (idx < 0) return {};
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    out.push_back(r[static_cast<std::size_t>(idx)]);
  }
  return out;
}

CsvTable read_csv(const std::string& path) {
  CsvTable table;
  std::ifstream in(path);
  if (!in) return table;

  std::string line;
  if (!std::getline(in, line)) return table;
  for (const auto& field : split(trim(line), ',')) {
    table.columns.emplace_back(trim(field));
  }

  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    std::vector<double> row;
    row.reserve(table.columns.size());
    for (const auto& field : split(trimmed, ',')) {
      double value = 0.0;
      const std::string_view f = trim(field);
      const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), value);
      if (ec != std::errc{} || ptr != f.data() + f.size()) {
        return CsvTable{};  // malformed numeric cell: reject the whole file
      }
      row.push_back(value);
    }
    if (row.size() != table.columns.size()) {
      return CsvTable{};
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

}  // namespace ferro::util
