// JaTrace — a planner-decided execution program for the timeless JA model.
//
// The timeless discretisation's control flow is independent of the JA state:
// whether a field sample fires an integration event (|H - anchor| > dhmax),
// how a large event splits into sub-steps, and which rows publish a curve
// sample all follow from the H sequence and the TimelessConfig alone. That
// lets a *planner* unroll TimelessJa::apply() into a flat row program once —
// row j refreshes the algebraic part at h[j] and, when dh[j] != 0, takes one
// Forward-Euler integration step of planned width dh[j] — which an executor
// (TimelessJaBatch::run_traces) can then replay over SoA lanes with no
// per-sample branching on thresholds or sub-step counts.
//
// The expansion of one apply(h) call (anchor a, dh_total = h - a):
//   * no event (|dh_total| <= dhmax):    (h, 0)*                 1 row
//   * event, single step:                (h, dh_total) (h, 0)*   2 rows
//   * event, n sub-steps of width sub:   (h, 0) (a+sub, sub) ...
//                                        (a+n*sub, sub) (h, 0)*  n+2 rows
// Rows marked * publish a curve sample (record_rows). This is exactly
// TimelessJa's operation sequence — refresh, per-step refresh+integrate,
// feedback refresh — so replaying the rows is bitwise identical to calling
// apply() (property-tested in tests/test_frontend_plan.cpp).
//
// The planned counters (samples / field_events / integration_steps) are also
// H-only facts and are precomputed here; only the clamp counters depend on
// the magnetisation state and must be counted by the executor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mag/timeless_ja.hpp"

namespace ferro::mag {

/// The unrolled row program for one lane. The first trajectory sample is NOT
/// part of the rows: frontends record it from the virgin state before any
/// update (see build_ja_trace), so executors emit it from the lane's initial
/// state and start the rows at the second sample.
struct JaTrace {
  std::vector<double> h;    ///< per-row refresh field
  std::vector<double> dh;   ///< per-row planned step width; 0 = refresh only
  /// Rows that publish a curve sample, ascending — one per applied sample.
  std::vector<std::uint32_t> record_rows;
  /// samples / field_events / integration_steps, known at plan time; the
  /// clamp counters stay 0 (they depend on the JA state at execution).
  TimelessStats planned;

  [[nodiscard]] std::size_t rows() const { return h.size(); }
};

/// Unrolls the timeless update over `samples[1..]` (samples[0] is the
/// initial point, published from the virgin state) for a model configured
/// with `config` — the event threshold, sub-step splitting, and counter
/// arithmetic mirror TimelessJa::apply() expression for expression, so the
/// planned rows replay bit-for-bit.
[[nodiscard]] JaTrace build_ja_trace(std::span<const double> samples,
                                     const TimelessConfig& config);

}  // namespace ferro::mag
