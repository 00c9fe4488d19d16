#include "mag/ja_trace.hpp"

#include <cassert>
#include <cmath>

namespace ferro::mag {

JaTrace build_ja_trace(std::span<const double> samples,
                       const TimelessConfig& config) {
  assert(config.dhmax > 0.0);

  JaTrace trace;
  if (samples.size() <= 1) return trace;

  // Worst case is one event row plus two refresh rows per sample; reserve
  // the common case (mostly single-step events) and let rare sub-step
  // cascades grow the vectors.
  trace.h.reserve(samples.size() * 2);
  trace.dh.reserve(samples.size() * 2);
  trace.record_rows.reserve(samples.size() - 1);

  const auto push_row = [&](double h, double dh) {
    trace.h.push_back(h);
    trace.dh.push_back(dh);
  };

  // The virgin state anchors at H = 0 (TimelessJa::reset); samples[0] is
  // published before any update and never passes through apply().
  double anchor = 0.0;
  for (std::size_t s = 1; s < samples.size(); ++s) {
    const double h = samples[s];
    ++trace.planned.samples;

    const double dh_total = h - anchor;
    if (std::fabs(dh_total) > config.dhmax) {
      ++trace.planned.field_events;
      if (config.substep_max > 0.0 &&
          std::fabs(dh_total) > config.substep_max) {
        // apply()'s leading refresh publishes (man, mtotal) at h before the
        // sub-step loop re-refreshes at each intermediate field.
        push_row(h, 0.0);
        const auto n = static_cast<int>(
            std::ceil(std::fabs(dh_total) / config.substep_max));
        const double sub = dh_total / static_cast<double>(n);
        for (int i = 1; i <= n; ++i) {
          push_row(anchor + sub * static_cast<double>(i), sub);
          ++trace.planned.integration_steps;
        }
      } else {
        push_row(h, dh_total);
        ++trace.planned.integration_steps;
      }
      anchor = h;
      // Feedback refresh: the published total includes this event's dm.
      push_row(h, 0.0);
    } else {
      push_row(h, 0.0);
    }
    trace.record_rows.push_back(
        static_cast<std::uint32_t>(trace.h.size() - 1));
  }
  return trace;
}

}  // namespace ferro::mag
