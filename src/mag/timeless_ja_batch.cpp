#include "mag/timeless_ja_batch.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "core/cpu_features.hpp"
#include "mag/timeless_ja_batch_span.hpp"
#include "util/constants.hpp"

namespace ferro::mag {

namespace detail {

// Baseline width entry points (the ISA-flagged TUs define W4/W8). W1 is the
// tile pass over VecD<1>, always available; W2 rides the SSE2 VecD, which
// every x86-64 target compiles.
namespace {
void run_w1(AnhystereticKind kind, const FastRunArgs& args) {
  fast_run<1>(kind, args);
}
#if defined(FERRO_FASTMATH_SIMD)
void run_w2(AnhystereticKind kind, const FastRunArgs& args) {
  fast_run<2>(kind, args);
}
#endif
}  // namespace

const FastRunFn kFastRunW1 = &run_w1;
#if defined(FERRO_FASTMATH_SIMD)
const FastRunFn kFastRunW2 = &run_w2;
#else
const FastRunFn kFastRunW2 = nullptr;
#endif

}  // namespace detail

namespace {

struct SpanEntry {
  int width;
  detail::FastRunFn fn;
};

/// Candidate passes, widest first. An entry is *available* when the binary
/// compiled it (fn non-null) and the CPU can execute it.
constexpr std::size_t kSpanTableSize = 4;
const SpanEntry* span_table() {
  static const SpanEntry table[kSpanTableSize] = {
      {8, detail::kFastRunW8},
      {4, detail::kFastRunW4},
      {2, detail::kFastRunW2},
      {1, detail::kFastRunW1},
  };
  return table;
}

bool entry_available(const SpanEntry& entry) {
  return entry.fn != nullptr &&
         entry.width <= core::max_simd_width(core::cpu_features());
}

/// Widest available pass no wider than `cap` (the W1 pass always
/// qualifies, so this cannot fail).
const SpanEntry* pick_span(int cap) {
  const SpanEntry* table = span_table();
  for (std::size_t k = 0; k < kSpanTableSize; ++k) {
    if (table[k].width <= cap && entry_available(table[k])) return &table[k];
  }
  return &table[kSpanTableSize - 1];
}

/// Automatic per-process pick: widest safe path, optionally capped by the
/// FERRO_FORCE_SIMD_WIDTH environment override (values narrower than the
/// hardware allow testing every compiled path; wider ones clamp down).
const SpanEntry* auto_pick() {
  int cap = 8;
  if (const char* forced = std::getenv("FERRO_FORCE_SIMD_WIDTH")) {
    const int value = std::atoi(forced);
    if (value > 0) cap = value;
  }
  return pick_span(cap);
}

std::atomic<const SpanEntry*>& active_span() {
  static std::atomic<const SpanEntry*> active{auto_pick()};
  return active;
}

}  // namespace

std::string_view to_string(BatchMath math) {
  switch (math) {
    case BatchMath::kExact: return "exact";
    case BatchMath::kFast: return "fast";
  }
  return "?";
}

int TimelessJaBatch::active_simd_width() {
  return active_span().load(std::memory_order_relaxed)->width;
}

std::vector<int> TimelessJaBatch::available_simd_widths() {
  std::vector<int> widths;
  const SpanEntry* table = span_table();
  for (std::size_t k = kSpanTableSize; k-- > 0;) {
    if (entry_available(table[k])) widths.push_back(table[k].width);
  }
  return widths;
}

int TimelessJaBatch::force_simd_width(int width) {
  const SpanEntry* entry = width <= 0 ? auto_pick() : pick_span(width);
  active_span().store(entry, std::memory_order_relaxed);
  return entry->width;
}

// ---------------------------------------------------------------------------
// The FastMath lane's per-sample step lives in timeless_ja_batch_span.hpp,
// templated over the SIMD width; this TU instantiates the W = 1/2 baseline
// passes above and routes every rectangle through the per-process width
// selected by active_span() (CPUID + FERRO_FORCE_SIMD_WIDTH, overridable via
// force_simd_width()). run(), run_traces() and apply() all build their
// rectangles through run_fast_pass(), and a lane's result is width-,
// pairing-, partition- and thread-count-invariant by construction. The
// exact lane has one step too, step_exact(), for threshold and trace rows.
// ---------------------------------------------------------------------------
TimelessJaBatch::TimelessJaBatch(BatchMath math) : math_(math) {}

bool TimelessJaBatch::supports(const TimelessConfig& config) {
  return config.substep_max == 0.0;
}

std::size_t TimelessJaBatch::add_lane(const JaParameters& params,
                                      const TimelessConfig& config) {
  assert(params.is_valid());
  assert(config.dhmax > 0.0);
  assert(supports(config));

  const std::size_t i = n_++;

  // The hot-path constants are read straight off a scalar model, not
  // re-derived: one source of truth for the expressions, so the exact
  // lane's bitwise-identity contract cannot drift out of sync.
  const TimelessJa reference(params, config);
  alpha_ms_.push_back(reference.alpha_ms());
  c_over_1pc_.push_back(reference.c_over_1pc());
  one_pc_k_.push_back(reference.one_pc_k());
  one_pc_alpha_ms_.push_back(reference.one_pc_alpha_ms());
  ms_.push_back(params.ms);
  dhmax_.push_back(config.dhmax);
  kind_.push_back(params.kind);
  clamp_slope_.push_back(config.clamp_negative_slope ? 1.0 : 0.0);
  clamp_direction_.push_back(config.clamp_direction ? 1.0 : 0.0);

  anhysteretic_.emplace_back(params);
  inv_a_.push_back(anhysteretic_.back().inv_a());
  inv_a2_.push_back(anhysteretic_.back().inv_a2());
  blend_.push_back(params.blend);

  cnt_events_.push_back(0.0);
  cnt_slope_clamps_.push_back(0.0);
  cnt_direction_clamps_.push_back(0.0);

  stats_.emplace_back();
  params_.push_back(params);
  configs_.push_back(config);

  // Virgin state at H = 0, copied from the freshly-reset scalar model.
  m_irr_.push_back(reference.state().m_irr);
  m_total_.push_back(reference.state().m_total);
  anchor_h_.push_back(reference.state().anchor_h);
  present_h_.push_back(reference.state().present_h);
  last_slope_.push_back(reference.last_slope());
  return i;
}

void TimelessJaBatch::reset() {
  for (std::size_t i = 0; i < n_; ++i) {
    m_irr_[i] = 0.0;
    anchor_h_[i] = 0.0;
    present_h_[i] = 0.0;
    last_slope_[i] = 0.0;
    stats_[i] = TimelessStats{};
    cnt_events_[i] = 0.0;
    cnt_slope_clamps_[i] = 0.0;
    cnt_direction_clamps_[i] = 0.0;
    m_total_[i] = 0.0;
    m_total_[i] = c_over_1pc_[i] * man_exact(i, 0.0);
  }
}

double TimelessJaBatch::flux_density(std::size_t lane) const {
  return util::kMu0 * (magnetisation(lane) + present_h_[lane]);
}

TimelessState TimelessJaBatch::state(std::size_t lane) const {
  TimelessState s;
  s.m_irr = m_irr_[lane];
  s.m_total = m_total_[lane];
  s.anchor_h = anchor_h_[lane];
  s.present_h = present_h_[lane];
  return s;
}

void TimelessJaBatch::set_state(std::size_t lane, const TimelessState& s) {
  m_irr_[lane] = s.m_irr;
  m_total_[lane] = s.m_total;
  anchor_h_[lane] = s.anchor_h;
  present_h_[lane] = s.present_h;
}

void TimelessJaBatch::run_fast_pass(detail::FastRunArgs rect) {
  rect.alpha_ms = alpha_ms_.data();
  rect.c_over_1pc = c_over_1pc_.data();
  rect.one_pc_k = one_pc_k_.data();
  rect.one_pc_alpha_ms = one_pc_alpha_ms_.data();
  rect.inv_a = inv_a_.data();
  rect.inv_a2 = inv_a2_.data();
  rect.blend = blend_.data();
  rect.dhmax = dhmax_.data();
  rect.clamp_slope = clamp_slope_.data();
  rect.clamp_direction = clamp_direction_.data();
  rect.m_irr = m_irr_.data();
  rect.m_total = m_total_.data();
  rect.anchor_h = anchor_h_.data();
  rect.last_slope = last_slope_.data();
  rect.cnt_events = cnt_events_.data();
  rect.cnt_slope_clamps = cnt_slope_clamps_.data();
  rect.cnt_direction_clamps = cnt_direction_clamps_.data();
  rect.ms = ms_.data();
  const detail::FastRunFn fn =
      active_span().load(std::memory_order_relaxed)->fn;

  // Each maximal contiguous run of lanes sharing an anhysteretic kind is one
  // rectangle over the whole row range: the pass keeps the lane state in
  // registers across every row and masks ragged lanes out of their vector
  // group as they finish (per-lane `len`). Per-lane trajectories are
  // independent of the grouping and of where the masked tail begins (same
  // op sequence per lane either way).
  const double* const* h = rect.h;
  const double* const* dh = rect.dh;
  std::size_t i = 0;
  while (i < n_) {
    const std::size_t begin = i;
    const AnhystereticKind kind = kind_[i];
    while (i < n_ && kind_[i] == kind) ++i;
    rect.begin = begin;
    rect.end = i;
    rect.h = h + begin;
    if (dh != nullptr) rect.dh = dh + begin;
    fn(kind, rect);
  }
}

void TimelessJaBatch::fold_fast_counters(std::size_t i,
                                         bool planned_counters) {
  TimelessStats& st = stats_[i];
  if (!planned_counters) {
    const auto events = static_cast<std::uint64_t>(cnt_events_[i]);
    st.field_events += events;
    // Forward Euler without sub-stepping: exactly one integration step per
    // field event, matching the scalar counters.
    st.integration_steps += events;
  }
  st.slope_clamps += static_cast<std::uint64_t>(cnt_slope_clamps_[i]);
  st.direction_clamps += static_cast<std::uint64_t>(cnt_direction_clamps_[i]);
  cnt_events_[i] = 0.0;
  cnt_slope_clamps_[i] = 0.0;
  cnt_direction_clamps_[i] = 0.0;
}

template <bool kTrace>
void TimelessJaBatch::step_exact(std::size_t i, double h, double dh) {
  TimelessStats& st = stats_[i];

  // core(): algebraic refresh from the previous total magnetisation.
  const double he = h + alpha_ms_[i] * m_total_[i];
  const double man = man_exact(i, he);
  double mt = c_over_1pc_[i] * man + m_irr_[i];

  // monitorH(): a threshold row integrates only on sufficient field
  // movement; a trace row integrates when the planner gave it a width.
  bool event;
  if constexpr (kTrace) {
    event = dh != 0.0;
  } else {
    ++st.samples;
    dh = h - anchor_h_[i];
    event = std::fabs(dh) > dhmax_[i];
  }
  if (event) {
    // Integral(): one Forward-Euler step of width dh, slope from the
    // man/mtotal pair just published — the scalar model's exact operation
    // sequence.
    const double delta = dh > 0.0 ? 1.0 : -1.0;
    const double delta_m = man - mt;
    const double denom = delta * one_pc_k_[i] - one_pc_alpha_ms_[i] * delta_m;
    double s;
    if (denom == 0.0) {
      ++st.slope_clamps;
      s = 0.0;
    } else {
      s = delta_m / denom;
      if (clamp_slope_[i] != 0 && s < 0.0) {
        ++st.slope_clamps;
        s = 0.0;
      }
    }

    double dm = dh * s;
    if (clamp_direction_[i] != 0 && dm * dh < 0.0) {
      ++st.direction_clamps;
      dm = 0.0;
    }

    m_irr_[i] += dm;
    last_slope_[i] = s;

    if constexpr (!kTrace) {
      ++st.field_events;
      ++st.integration_steps;
      anchor_h_[i] = h;
      // Feedback refresh so the published total includes this event's dm;
      // the effective field uses the pre-event total, exactly like the
      // scalar model's second refresh_algebraic().
      const double he2 = h + alpha_ms_[i] * mt;
      mt = c_over_1pc_[i] * man_exact(i, he2) + m_irr_[i];
    }
  }

  m_total_[i] = mt;
  present_h_[i] = h;
}

void TimelessJaBatch::apply(const double* h) {
  if (math_ == BatchMath::kExact) {
    for (std::size_t i = 0; i < n_; ++i) step_exact<false>(i, h[i]);
    return;
  }
  // One row per lane: lane i's sample stream is h[i] alone.
  std::vector<const double*> streams(n_);
  for (std::size_t i = 0; i < n_; ++i) streams[i] = h + i;
  detail::FastRunArgs rect;
  rect.j1 = 1;
  rect.h = streams.data();
  run_fast_pass(rect);
  for (std::size_t i = 0; i < n_; ++i) {
    present_h_[i] = h[i];
    ++stats_[i].samples;
    fold_fast_counters(i);
  }
}

void TimelessJaBatch::run_exact(const std::vector<const wave::HSweep*>& sweeps,
                                std::vector<BhCurve>& curves,
                                std::vector<analysis::CurveFinish>& finish) {
  curves.resize(n_);
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    curves[i].clear();
    curves[i].reserve(sweeps[i]->size());
    max_len = std::max(max_len, sweeps[i]->size());
  }
  // Lockstep: sample index advances over all lanes together; ragged sweeps
  // simply stop contributing once exhausted. Lanes never interact, so the
  // per-lane trajectories are independent of how lanes are grouped. The
  // lanes' interleaved steps are what keeps the core busy (each step is one
  // long dependency chain), so the finish stays out of that loop: after
  // each chunk of rows every lane feeds the points it just recorded, still
  // in L1, to its finish in a tight loop of its own.
  constexpr std::size_t kChunk = 64;
  for (std::size_t j0 = 0; j0 < max_len; j0 += kChunk) {
    const std::size_t j1 = std::min(max_len, j0 + kChunk);
    for (std::size_t j = j0; j < j1; ++j) {
      for (std::size_t i = 0; i < n_; ++i) {
        const std::vector<double>& hs = sweeps[i]->h;
        if (j >= hs.size()) continue;
        const double h = hs[j];
        step_exact<false>(i, h);
        const double m = ms_[i] * m_total_[i];
        curves[i].append(h, m, util::kMu0 * (m + h));
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const auto& points = curves[i].points();
      finish[i].add_rows(points.data(), j0, std::min(j1, points.size()));
    }
  }
}

namespace {
/// Stand-in stream for zero-length lanes: the masked gather clamps a
/// finished lane's row index to its last row, which for an empty lane must
/// still be a readable element (the value is computed and discarded).
constexpr double kEmptyLaneRow[1] = {0.0};

/// Sizes a lane's storage for a pass that writes each of its `rows` rows by
/// index: what it holds is overwritten in place, not zero-filled first. It
/// is emptied only when it must grow, so a reallocation copies no stale
/// points.
void size_for_rows(std::vector<BhPoint>& points, std::size_t rows) {
  if (points.capacity() < rows) points.clear();
  points.resize(rows);
}
}  // namespace

void TimelessJaBatch::run_fast(const std::vector<const wave::HSweep*>& sweeps,
                               std::vector<BhCurve>& curves,
                               std::vector<analysis::CurveFinish>& finish) {
  // The pass records through raw pointers, so each curve's storage is
  // taken out, sized, written row by row and handed back. Its finishes
  // start from a fresh accumulator (all-zero state) and a clean probe.
  curves.resize(n_);
  std::vector<std::vector<BhPoint>> store(n_);
  std::vector<BhPoint*> out(n_);
  std::vector<const double*> h_ptr(n_);
  std::vector<std::size_t> len(n_);
  std::vector<double> finish_begin(n_);
  std::vector<double> finish_end(n_);
  std::vector<double> loop_state(analysis::LoopAccumulator::kFields * n_,
                                 0.0);
  std::vector<double> nonfinite(n_, 0.0);
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    len[i] = sweeps[i]->size();
    store[i] = curves[i].release();
    size_for_rows(store[i], len[i]);
    out[i] = store[i].data();
    h_ptr[i] = len[i] != 0 ? sweeps[i]->h.data() : kEmptyLaneRow;
    finish_begin[i] = static_cast<double>(finish[i].begin);
    finish_end[i] = static_cast<double>(finish[i].begin + finish[i].count);
    max_len = std::max(max_len, len[i]);
  }

  detail::FastRunArgs rect;
  rect.j1 = max_len;
  rect.h = h_ptr.data();
  rect.len = len.data();
  rect.out = out.data();
  rect.finish_begin = finish_begin.data();
  rect.finish_end = finish_end.data();
  rect.loop_state = loop_state.data();
  rect.loop_stride = n_;
  rect.nonfinite = nonfinite.data();
  run_fast_pass(rect);

  for (std::size_t lane = 0; lane < n_; ++lane) {
    if (len[lane] > 0) present_h_[lane] = h_ptr[lane][len[lane] - 1];
    stats_[lane].samples += len[lane];
    fold_fast_counters(lane);
    curves[lane] = BhCurve(std::move(store[lane]));
    finish[lane].loop.load(loop_state.data() + lane, n_);
    finish[lane].finite = nonfinite[lane] == 0.0;
  }
}

void TimelessJaBatch::run_traces_exact(
    const std::vector<TraceView>& traces,
    std::vector<std::vector<BhPoint>>& points) {
  points.resize(n_);
  // Lane-major: each lane replays its whole row program with its state hot,
  // recording every row (the caller keeps only the published ones). Lanes
  // never interact, so the loop order is a pure scheduling choice.
  for (std::size_t i = 0; i < n_; ++i) {
    const TraceView& t = traces[i];
    size_for_rows(points[i], t.rows);
    for (std::size_t j = 0; j < t.rows; ++j) {
      const double h = t.h[j];
      step_exact<true>(i, h, t.dh[j]);
      const double m = ms_[i] * m_total_[i];
      points[i][j] = BhPoint{h, m, util::kMu0 * (m + h)};
    }
  }
}

void TimelessJaBatch::run_traces_fast(
    const std::vector<TraceView>& traces,
    std::vector<std::vector<BhPoint>>& points) {
  points.resize(n_);
  std::vector<BhPoint*> out(n_);
  std::vector<const double*> h_ptr(n_);
  std::vector<const double*> dh_ptr(n_);
  std::vector<std::size_t> len(n_);
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    len[i] = traces[i].rows;
    size_for_rows(points[i], len[i]);
    out[i] = points[i].data();
    h_ptr[i] = len[i] != 0 ? traces[i].h : kEmptyLaneRow;
    dh_ptr[i] = len[i] != 0 ? traces[i].dh : kEmptyLaneRow;
    max_len = std::max(max_len, len[i]);
  }

  detail::FastRunArgs rect;
  rect.j1 = max_len;
  rect.h = h_ptr.data();
  rect.dh = dh_ptr.data();
  rect.len = len.data();
  rect.out = out.data();
  run_fast_pass(rect);

  for (std::size_t lane = 0; lane < n_; ++lane) {
    if (len[lane] > 0) present_h_[lane] = h_ptr[lane][len[lane] - 1];
    fold_fast_counters(lane, /*planned_counters=*/true);
  }
}

void TimelessJaBatch::run_traces(const std::vector<TraceView>& traces,
                                 std::vector<std::vector<BhPoint>>& points) {
  assert(traces.size() == n_);
  if (math_ == BatchMath::kFast) {
    run_traces_fast(traces, points);
  } else {
    run_traces_exact(traces, points);
  }
}

void TimelessJaBatch::run(const std::vector<const wave::HSweep*>& sweeps,
                          std::vector<BhCurve>& curves) {
  // Whole-curve windows keep the FastMath pass on its unmasked finishing
  // step; an empty window would send every row down the masked one.
  std::vector<analysis::CurveFinish> unused(n_);
  for (std::size_t i = 0; i < n_; ++i) unused[i].count = sweeps[i]->size();
  run(sweeps, curves, unused);
}

void TimelessJaBatch::run(const std::vector<const wave::HSweep*>& sweeps,
                          std::vector<BhCurve>& curves,
                          std::vector<analysis::CurveFinish>& finish) {
  assert(sweeps.size() == n_);
  assert(finish.size() == n_);
  for (analysis::CurveFinish& f : finish) {
    f.loop = {};
    f.finite = true;
  }
  if (math_ == BatchMath::kFast) {
    run_fast(sweeps, curves, finish);
  } else {
    run_exact(sweeps, curves, finish);
  }
}

}  // namespace ferro::mag
