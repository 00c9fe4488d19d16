// File-writing ResultSinks: the stock streaming consumers that turn a batch
// into artefacts on disk while the workers are still computing.
//
//   * CsvCurveSink — every BH point of every result as
//     `scenario_index,model,h,m,b` rows (flushed once per scenario), the
//     bulk trajectory format plotting scripts tail; `model` is the numeric
//     mag::ModelKind tag (0 = ja, 1 = energy), so mixed-model batches split
//     with one column filter;
//   * JsonlMetricsSink — one JSON line per scenario with its name, model,
//     loop metrics, per-model discretisation counters, and error string:
//     the compact figure-of-merit record for sweep dashboards.
//
// Both honour the ResultSink threading contract (single-threaded delivery),
// so they need no locks; wrap in OrderedSink when row order must equal
// scenario order.
//
// IO failures are surfaced, not swallowed: when the underlying writer
// reports an unhealthy stream (ENOSPC, closed descriptor, ...) after a
// write or flush, the callback throws — which the streaming shell converts
// into StreamSummary{sink_error = kSinkError with the errno detail,
// discarded_deliveries counting every affected result}. A full disk ends
// as a diagnosed error, never a silently truncated artefact. A file that
// could not be opened fails on_start, naming the path and errno, so the
// driver withholds every delivery instead of failing each one.
#pragma once

#include <string>

#include "core/result_sink.hpp"
#include "util/stream_writer.hpp"

namespace ferro::core {

class CsvCurveSink : public ResultSink {
 public:
  /// Writes `scenario_index,model,h,m,b` rows to `path`; `point_stride`
  /// keeps every point by default, or decimates (every Nth point) for
  /// plotting.
  explicit CsvCurveSink(const std::string& path, std::size_t point_stride = 1);

  void on_start(std::size_t total) override;
  void on_result(std::size_t index, ScenarioResult&& result) override;
  void on_complete() override;

  [[nodiscard]] bool ok() const { return writer_.ok(); }
  [[nodiscard]] std::size_t rows_written() const {
    return writer_.rows_written();
  }

 private:
  util::CsvStreamWriter writer_;
  std::size_t stride_;
};

class JsonlMetricsSink : public ResultSink {
 public:
  explicit JsonlMetricsSink(const std::string& path);

  void on_start(std::size_t total) override;
  void on_result(std::size_t index, ScenarioResult&& result) override;
  void on_complete() override;

  [[nodiscard]] bool ok() const { return writer_.ok(); }
  [[nodiscard]] std::size_t records_written() const {
    return writer_.records_written();
  }

 private:
  util::JsonLinesWriter writer_;
};

}  // namespace ferro::core
