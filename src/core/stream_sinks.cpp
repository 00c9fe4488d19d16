#include "core/stream_sinks.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ferro::core {
namespace {

/// Converts a failed writer into the sink-error channel: the throw is
/// caught by the streaming driver (stream_to_sink), which records kSinkError
/// (with this message as the detail) in the StreamSummary and counts the
/// delivery as discarded.
template <typename Writer>
void throw_if_failed(const Writer& writer, const char* sink_name) {
  if (!writer.ok()) {
    std::string what(sink_name);
    what += ": ";
    what += writer.error_detail().empty() ? "stream failed"
                                          : writer.error_detail().c_str();
    throw std::runtime_error(what);
  }
}

}  // namespace

CsvCurveSink::CsvCurveSink(const std::string& path, std::size_t point_stride)
    // flush_every = 0: we flush once per scenario in on_result instead of
    // per row — a scenario's curve is the natural record boundary.
    : writer_(path, {"scenario_index", "model", "h", "m", "b"},
              /*flush_every=*/0),
      stride_(std::max<std::size_t>(point_stride, 1)) {}

void CsvCurveSink::on_start(std::size_t /*total*/) {
  throw_if_failed(writer_, "csv curve sink");
}

void CsvCurveSink::on_result(std::size_t index, ScenarioResult&& result) {
  const double idx = static_cast<double>(index);
  // Numeric model tag (the writer streams doubles): the enum value, i.e.
  // 0 = ja, 1 = energy — mag::to_string(ModelKind) names the same order.
  const double model = static_cast<double>(result.model);
  for (std::size_t j = 0; j < result.curve.size(); j += stride_) {
    const auto& p = result.curve.points()[j];
    writer_.row({idx, model, p.h, p.m, p.b});
  }
  writer_.flush();
  throw_if_failed(writer_, "csv curve sink");
}

void CsvCurveSink::on_complete() {
  writer_.flush();
  throw_if_failed(writer_, "csv curve sink");
}

JsonlMetricsSink::JsonlMetricsSink(const std::string& path)
    : writer_(path, /*flush_every=*/1) {}

void JsonlMetricsSink::on_start(std::size_t /*total*/) {
  throw_if_failed(writer_, "jsonl metrics sink");
}

void JsonlMetricsSink::on_result(std::size_t index, ScenarioResult&& result) {
  writer_.record({
      {"index", static_cast<std::uint64_t>(index)},
      {"name", std::string_view(result.name)},
      {"model", mag::to_string(result.model)},
      {"ok", result.ok()},
      {"points", static_cast<std::uint64_t>(result.curve.size())},
      {"b_peak", result.metrics.b_peak},
      {"remanence", result.metrics.remanence},
      {"coercivity", result.metrics.coercivity},
      {"area", result.metrics.area},
      {"field_events", static_cast<std::uint64_t>(result.stats.field_events)},
      {"slope_clamps", static_cast<std::uint64_t>(result.stats.slope_clamps)},
      {"cell_updates",
       static_cast<std::uint64_t>(result.energy_stats.cell_updates)},
      {"dissipated_energy", result.energy_stats.dissipated_energy},
      {"error_code", to_string(result.error.code)},
      {"error", std::string_view(result.error.detail)},
  });
  throw_if_failed(writer_, "jsonl metrics sink");
}

void JsonlMetricsSink::on_complete() {
  writer_.flush();
  throw_if_failed(writer_, "jsonl metrics sink");
}

}  // namespace ferro::core
