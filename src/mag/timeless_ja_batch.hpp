// TimelessJaBatch — structure-of-arrays batch kernel for the timeless JA
// model: N independent lanes (material x discretisation variants) advance in
// lockstep, one field sample per lane per step, over contiguous state arrays
// (m_irr / m_total / anchor_h) with per-lane precomputed constants.
//
// Two arithmetic lanes, each with one step body:
//   * kExact — bitwise-identical to running a scalar TimelessJa per lane
//     (same constants, same operation order; asserted by the property tests
//     and by the fig1 golden curve). This is the default. One scalar step,
//     step_exact(), serves threshold rows (run, apply) and planner trace
//     rows (run_traces); run() advances its lanes in lockstep so their
//     steps interleave.
//   * kFast  — opt-in FastMath: polynomial atan/tanh (src/mag/fast_math.hpp,
//     |err| <= 5e-13 / 5e-8), branch-free slope and direction clamps via
//     select/copysign, and the precomputed reciprocal constants. Bounded
//     deviation from exact, measured as an arc-RMS by the tests. One tile
//     body (timeless_ja_batch_span.hpp) templated over the lane op set
//     fastmath::VecD<W> runs it at every width; W = 1 is the scalar path.
//
// The kernel covers the paper-faithful discretisation subset — no
// sub-stepping (`supports()`); BatchRunner's packed path routes scenarios
// here when they qualify and falls back to scalar per-scenario jobs otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "analysis/loop_metrics.hpp"
#include "mag/anhysteretic.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"

namespace ferro::mag {

namespace detail {
struct FastRunArgs;
}  // namespace detail

/// Arithmetic mode of the batch kernel.
enum class BatchMath {
  kExact,  ///< bitwise-identical to scalar TimelessJa (default)
  kFast,   ///< polynomial anhysteretic + branch-free clamps, bounded error
};

[[nodiscard]] std::string_view to_string(BatchMath math);

class TimelessJaBatch {
 public:
  explicit TimelessJaBatch(BatchMath math = BatchMath::kExact);

  /// True when `config` lies in the lockstep kernel's subset: no
  /// sub-stepping. (The clamp flags are free.)
  [[nodiscard]] static bool supports(const TimelessConfig& config);

  /// Appends a lane in the demagnetised virgin state; returns its index.
  /// `params` must be valid and `config` supported (asserted, like the
  /// scalar model's constructor).
  std::size_t add_lane(const JaParameters& params,
                       const TimelessConfig& config = {});

  [[nodiscard]] std::size_t lanes() const { return n_; }
  [[nodiscard]] BatchMath math() const { return math_; }

  /// SIMD width (doubles per vector) the FastMath lane is dispatching to:
  /// 1 scalar (VecD<1>), 2 SSE2, 4 AVX2, 8 AVX-512F. Picked once per process as the
  /// widest compiled-in path the CPU supports (core/cpu_features), capped
  /// by the FERRO_FORCE_SIMD_WIDTH environment variable when set. Lane
  /// results are bitwise identical at every width (property-tested), so
  /// the pick is a pure throughput decision; the kExact lane never goes
  /// through this dispatch.
  [[nodiscard]] static int active_simd_width();

  /// The widths this binary can execute on this CPU, ascending (always
  /// contains 1; e.g. {1, 2, 4} for a generic build on an AVX2 host).
  [[nodiscard]] static std::vector<int> available_simd_widths();

  /// Re-pins the process-wide FastMath dispatch (tests and width-sweep
  /// benches): the widest available path no wider than `width` becomes
  /// active; `width <= 0` restores the automatic pick. Returns the width
  /// now in effect. Atomic, but don't race it against batches currently
  /// running — a span started before the store finishes at the old width
  /// (same bits either way, just not the width you asked to measure).
  static int force_simd_width(int width);

  /// All lanes back to the virgin state, counters cleared.
  void reset();

  /// One lockstep step: lane i applies field h[i] (h has lanes() entries).
  void apply(const double* h);

  /// Drives lane i through sweeps[i] (ragged lengths allowed), recording
  /// every sample of lane i into curves[i]. `sweeps` must have lanes()
  /// entries; `curves` is resized to lanes().
  ///
  /// Storage contract (run_traces() too): a caller may hand in storage
  /// that still holds stale points, such as the curves of results it is
  /// done with, and the pass records into it, so the next run writes into
  /// memory that is already mapped. A recording pass writes every row
  /// [0, len) of every lane before its result leaves the call: run()'s
  /// FastMath pass and both run_traces() passes overwrite the storage in
  /// place, without zero-filling it first, and run()'s exact pass clears it
  /// and appends. Storage that must grow is emptied first, so a
  /// reallocation copies no stale point. So no stale point reaches a
  /// result, and the result is bitwise the same whatever the containers
  /// held.
  void run(const std::vector<const wave::HSweep*>& sweeps,
           std::vector<BhCurve>& curves);

  /// run() that finishes every lane in its output pass: each point lane i
  /// records is fed to finish[i] as it is stored (finish[i].begin/count
  /// pick the metrics rows; its loop and finite verdict are replaced), with
  /// the result of walking curves[i] through a fresh analysis::CurveFinish
  /// add() by add() — bitwise, at every SIMD width. `finish` must have
  /// lanes() entries. (The plain overload runs this one over whole-curve
  /// windows and drops the finishes.)
  void run(const std::vector<const wave::HSweep*>& sweeps,
           std::vector<BhCurve>& curves,
           std::vector<analysis::CurveFinish>& finish);

  /// One lane's planner-decided row program (a view of mag::JaTrace): row j
  /// refreshes the algebraic part at h[j] and, when dh[j] != 0, takes one
  /// Forward-Euler integration step of exactly that width — no threshold
  /// detection, no feedback refresh (the planner emits explicit refresh
  /// rows; see mag/ja_trace.hpp for the apply() expansion).
  struct TraceView {
    const double* h = nullptr;
    const double* dh = nullptr;
    std::size_t rows = 0;
  };

  /// Drives lane i through traces[i] (ragged row counts allowed), recording
  /// EVERY row of lane i into points[i] — callers keep only the rows their
  /// trace marks as published samples (JaTrace::record_rows). `traces`
  /// must have lanes() entries; `points` is resized to lanes(), and each
  /// lane's rows overwrite the storage it already holds (run()'s storage
  /// contract). Only the clamp counters are added to stats():
  /// samples / field_events / integration_steps are plan-time facts the
  /// rows alone cannot reconstruct (one event may span several sub-step
  /// rows), so the caller folds in JaTrace::planned.
  void run_traces(const std::vector<TraceView>& traces,
                  std::vector<std::vector<BhPoint>>& points);

  // Per-lane views, mirroring the scalar accessors.
  [[nodiscard]] double m_total(std::size_t lane) const { return m_total_[lane]; }
  [[nodiscard]] double magnetisation(std::size_t lane) const {
    return ms_[lane] * m_total_[lane];
  }
  [[nodiscard]] double flux_density(std::size_t lane) const;
  [[nodiscard]] double last_slope(std::size_t lane) const {
    return last_slope_[lane];
  }
  [[nodiscard]] TimelessState state(std::size_t lane) const;
  /// Restores lane `lane` to an explicit scalar-model snapshot, verbatim —
  /// the lane-side twin of TimelessJa::set_state, for rewinding trial lanes
  /// to a circuit device's committed state before a batched evaluation (the
  /// repository benchmark's traced Monte-Carlo replay does). (last_slope is
  /// untouched: a step never reads it.)
  void set_state(std::size_t lane, const TimelessState& s);
  [[nodiscard]] const TimelessStats& stats(std::size_t lane) const {
    return stats_[lane];
  }
  [[nodiscard]] const JaParameters& params(std::size_t lane) const {
    return params_[lane];
  }
  [[nodiscard]] const TimelessConfig& config(std::size_t lane) const {
    return configs_[lane];
  }

 private:
  /// One exact row for lane i at field h — the scalar model's operation
  /// sequence, bitwise. A threshold row (kTrace false) is TimelessJa's
  /// apply() without sub-steps: it integrates when |h - anchor| > dhmax,
  /// then refreshes the total with the new m_irr; `dh` is ignored. A trace
  /// row refreshes at h and, when dh != 0, takes one Forward-Euler step of
  /// exactly that width, with no threshold test and no feedback refresh —
  /// TimelessJa::apply() unrolled one row at a time (mag/ja_trace.hpp). A
  /// trace row counts only the clamp counters.
  template <bool kTrace>
  void step_exact(std::size_t i, double h, double dh = 0.0);

  void run_exact(const std::vector<const wave::HSweep*>& sweeps,
                 std::vector<BhCurve>& curves,
                 std::vector<analysis::CurveFinish>& finish);
  void run_fast(const std::vector<const wave::HSweep*>& sweeps,
                std::vector<BhCurve>& curves,
                std::vector<analysis::CurveFinish>& finish);
  void run_traces_exact(const std::vector<TraceView>& traces,
                        std::vector<std::vector<BhPoint>>& points);
  void run_traces_fast(const std::vector<TraceView>& traces,
                       std::vector<std::vector<BhPoint>>& points);

  /// Runs the FastMath pass over every lane through the per-process
  /// width-dispatched entry point, one rectangle per contiguous run of
  /// lanes sharing an anhysteretic kind. `rect` carries the rows [j0, j1),
  /// the per-lane sample streams (h, and dh for trace rows, indexed from
  /// lane 0) and row counts, and the optional recording and finishing
  /// buffers (detail::FastRunArgs); this fills in the lane range and the
  /// batch's SoA constants and state.
  void run_fast_pass(detail::FastRunArgs rect);

  /// Folds the SoA event counters written by the FastMath pass into the
  /// per-lane TimelessStats and clears them. Threshold mode: one
  /// integration step per event; trace mode (`planned_counters`): only the
  /// clamp counters are the kernel's to report.
  void fold_fast_counters(std::size_t i, bool planned_counters = false);

  /// Exact anhysteretic (shared scalar evaluator — bitwise identical).
  [[nodiscard]] double man_exact(std::size_t i, double he) const {
    return anhysteretic_[i].man(he);
  }

  BatchMath math_;
  std::size_t n_ = 0;

  // SoA state (hot).
  std::vector<double> m_irr_;
  std::vector<double> m_total_;
  std::vector<double> anchor_h_;
  std::vector<double> present_h_;
  std::vector<double> last_slope_;

  // SoA per-lane constants (hot).
  std::vector<double> alpha_ms_;
  std::vector<double> c_over_1pc_;
  std::vector<double> one_pc_k_;
  std::vector<double> one_pc_alpha_ms_;
  std::vector<double> inv_a_;
  std::vector<double> inv_a2_;
  std::vector<double> blend_;
  std::vector<double> ms_;
  std::vector<double> dhmax_;
  std::vector<AnhystereticKind> kind_;
  std::vector<double> clamp_slope_;
  std::vector<double> clamp_direction_;

  // SoA event counters for the FastMath pass, kept as doubles so the
  // masked accumulation vectorises on baseline SSE2 (integer<->mask mixes
  // do not); exact for any realistic count, folded into stats_.
  std::vector<double> cnt_events_;
  std::vector<double> cnt_slope_clamps_;
  std::vector<double> cnt_direction_clamps_;

  // Cold per-lane data.
  std::vector<Anhysteretic> anhysteretic_;
  std::vector<TimelessStats> stats_;
  std::vector<JaParameters> params_;
  std::vector<TimelessConfig> configs_;
};

}  // namespace ferro::mag
