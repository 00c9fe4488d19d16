// Internal header: the FastMath lane's step kernel, templated over the SIMD
// width W. Included by timeless_ja_batch.cpp (W = 1 scalar and W = 2 SSE2)
// and by the ISA-flagged translation units timeless_ja_batch_avx2.cpp
// (W = 4) / timeless_ja_batch_avx512.cpp (W = 8); TimelessJaBatch selects
// one fast_run entry point per process via CPUID (core/cpu_features) and
// the FERRO_FORCE_SIMD_WIDTH override.
//
// The entry processes a rectangle of work — lanes [begin, end) over sample
// rows [j0, j1) — tiled into W-lane groups that sweep ALL their rows in one
// register-resident loop: per-lane state (m_irr / m_total / anchor_h /
// slopes / counters) is loaded once per tile, lives in vector registers
// across the whole row range, and is stored once at the end. That turns the
// per-sample cost into one gathered field load, the step arithmetic, and
// (optionally) one curve-point store — no state traffic. Lanes left over
// after the W-tiles cascade to the W/2 pass and finally a scalar loop.
//
// Two row programs share the pass:
//   * threshold mode (dh == nullptr) — the classic sweep: each row applies
//     one field sample, events fire on |h - anchor| > dhmax and include the
//     feedback refresh;
//   * trace mode (dh != nullptr) — planner-decided rows (mag/ja_trace.hpp):
//     each row refreshes at h and, when its planned dh is nonzero, takes one
//     Forward-Euler step of exactly that width. No anchor, no feedback
//     refresh — the planner emits explicit refresh rows instead, unrolling
//     TimelessJa::apply() (sub-steps included) into a branch-free stream.
//
// A recording threshold pass (PassMode::kSweep) also finishes each lane in
// its recording step: the point it stores feeds the lane's loop accumulator
// (analysis/loop_accumulator.hpp) over the lane's metrics rows, and every
// point's h, m and b feed a non-finite probe, so no caller has to walk the
// curve again. Trace rows are not curve points one to one; their callers
// finish the rows they publish.
//
// Rows are ragged per lane: `len` gives each lane's row count, and a lane
// whose rows are exhausted is masked out of its vector group — its state
// freezes and it stops storing samples — instead of forcing the caller to
// re-segment and re-group lanes at every distinct length. The row loop is
// split so the shared prefix (rows every tile lane still owns) runs the
// unmasked body; only the ragged tail pays for the per-lane active mask.
//
// The step body is fully branch-free (selects and copysign, the feedback
// refresh computed unconditionally and masked by the event flag). Every
// operation is lane-wise and identical in sequence at every width — scalar
// tail included — so a lane's trajectory never depends on the vector width,
// on which lanes share a register, on how lanes are grouped into tiles,
// row segments or blocks, or on which lanes around it have already
// finished: width, pairing, partition and thread-count invariance by
// construction (property-tested in tests/test_timeless_batch.cpp).
//
// ABI note: FastRunArgs and FastRunFn sit OUTSIDE the ISA inline namespace
// — their layout is flag-independent and the function-pointer type must
// agree across differently-flagged TUs. Everything with a body lives inside
// it, so no template instantiation can be merged across TUs compiled for
// different ISAs (the classic wide-SIMD ODR trap: a baseline binary
// executing an AVX-compiled copy of a deduplicated inline function).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "analysis/loop_accumulator.hpp"
#include "mag/anhysteretic.hpp"
#include "mag/bh.hpp"
#include "mag/fast_math.hpp"
#include "util/constants.hpp"

namespace ferro::mag::detail {

/// One rectangle of FastMath work: lanes [begin, end) over sample rows
/// [j0, j1). h[i - begin] points at lane i's sample stream; when `len` is
/// non-null it holds per-lane row counts (absolute lane index) and lane i
/// only executes rows [j0, min(j1, len[i])) — a zero-length lane must still
/// point `h` (and `dh`) at one readable element, which the masked gather
/// clamps to. When `dh` is non-null the pass runs in trace mode (see the
/// header comment): dh[i - begin][j] is row j's planned step width, 0 for
/// refresh-only rows. The SoA constant/state arrays are indexed by the
/// absolute lane index. When `out` is non-null, sample j of lane i is
/// recorded into out[i][j] straight from the pass's registers, and a
/// threshold pass then also finishes every lane: rows
/// [finish_begin[i], finish_end[i]) of lane i feed its loop accumulator,
/// whose state is field k of lane i at loop_state[k * loop_stride + i]
/// (BasicLoopAccumulator::load/store), and nonfinite[i] stays +0.0 while
/// every recorded h, m and b is finite and turns NaN with the first that is
/// not (x - x is +0.0 for a finite x, NaN otherwise, and NaN absorbs every
/// later sum). The row bounds are whole numbers held as doubles.
struct FastRunArgs {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t j0 = 0;
  std::size_t j1 = 0;
  const double* const* h = nullptr;
  const double* const* dh = nullptr;
  const std::size_t* len = nullptr;
  const double* alpha_ms = nullptr;
  const double* c_over_1pc = nullptr;
  const double* one_pc_k = nullptr;
  const double* one_pc_alpha_ms = nullptr;
  const double* inv_a = nullptr;
  const double* inv_a2 = nullptr;
  const double* blend = nullptr;
  const double* dhmax = nullptr;
  const double* clamp_slope = nullptr;
  const double* clamp_direction = nullptr;
  double* m_irr = nullptr;
  double* m_total = nullptr;
  double* anchor_h = nullptr;
  double* last_slope = nullptr;
  double* cnt_events = nullptr;
  double* cnt_slope_clamps = nullptr;
  double* cnt_direction_clamps = nullptr;
  const double* ms = nullptr;
  BhPoint* const* out = nullptr;
  const double* finish_begin = nullptr;
  const double* finish_end = nullptr;
  double* loop_state = nullptr;
  std::size_t loop_stride = 0;
  double* nonfinite = nullptr;
};

/// What a pass does with each row besides stepping its lanes.
enum class PassMode {
  kStep,   ///< threshold rows, nothing recorded (TimelessJaBatch::apply)
  kSweep,  ///< threshold rows, recorded and finished (TimelessJaBatch::run)
  kTrace,  ///< planner rows, recorded (TimelessJaBatch::run_traces)
};

using FastRunFn = void (*)(AnhystereticKind kind, const FastRunArgs& args);

// Width entry points, defined once each: W1/W2 by timeless_ja_batch.cpp,
// W4/W8 by the ISA-flagged TUs. Null when the binary lacks that path
// (e.g. the compiler rejected -mavx2); the dispatcher skips null entries.
extern const FastRunFn kFastRunW1;
extern const FastRunFn kFastRunW2;
extern const FastRunFn kFastRunW4;
extern const FastRunFn kFastRunW8;

inline namespace FERRO_SIMD_NS {

/// The lane's non-finite probe (see FastRunArgs) after recording a point
/// whose flux density is b = mu0 (m + h). That b is non-finite exactly when
/// one of h, m and b is — an infinite or NaN h or m carries through the sum
/// and the positive finite factor — so b alone answers for the point.
template <class V>
FERRO_ALWAYS_INLINE typename V::Reg probe_point(typename V::Reg probe,
                                                typename V::Reg b) {
  return V::add(probe, V::sub(b, b));
}

/// Bitwise select: returns `b` when `take_b`, else `a`, by blending the raw
/// representations through an all-ones/all-zeros mask. Exact (the chosen
/// value's bits pass through untouched) and opaque to the compiler's
/// "sink computations into the rare branch" pass, which would otherwise turn
/// the FastMath pass's selected stores back into control flow.
FERRO_ALWAYS_INLINE double bit_select(bool take_b, double a, double b) {
  const std::uint64_t mask = -static_cast<std::uint64_t>(take_b);
  const std::uint64_t bits_a = std::bit_cast<std::uint64_t>(a);
  const std::uint64_t bits_b = std::bit_cast<std::uint64_t>(b);
  return std::bit_cast<double>((bits_a & ~mask) | (bits_b & mask));
}

template <AnhystereticKind kKind, int W>
struct FastPass {
  static FERRO_ALWAYS_INLINE double man(double he, double ia, double ia2,
                                        double bl) {
    if constexpr (kKind == AnhystereticKind::kClassicLangevin) {
      (void)ia2, (void)bl;
      return fastmath::fast_langevin(he * ia);
    } else if constexpr (kKind == AnhystereticKind::kAtan) {
      (void)ia2, (void)bl;
      return fastmath::fast_atan_langevin(he * ia);
    } else {
      return bl * fastmath::fast_atan_langevin(he * ia) +
             (1.0 - bl) * fastmath::fast_atan_langevin(he * ia2);
    }
  }

  static void run(const FastRunArgs& a) {
    if (a.dh != nullptr) {
      run_mode<PassMode::kTrace>(a);
    } else if (a.out != nullptr) {
      run_mode<PassMode::kSweep>(a);
    } else {
      run_mode<PassMode::kStep>(a);
    }
  }

  template <PassMode kMode>
  static void run_mode(const FastRunArgs& a) {
    std::size_t i = a.begin;

#if defined(FERRO_FASTMATH_SIMD)
    if constexpr (W >= 2) {
      // Two tiles interleaved: a single tile is one dependency chain per
      // row (he -> man -> m_total, ~60 cycles), so the core would idle
      // between samples; a second independent chain roughly doubles the
      // occupancy. More tiles stop paying — the constants spill.
      for (; i + 2 * W <= a.end; i += static_cast<std::size_t>(2 * W)) {
        tile_dispatch<2, kMode>(a, i);
      }
      for (; i + W <= a.end; i += static_cast<std::size_t>(W)) {
        tile_dispatch<1, kMode>(a, i);
      }
    }
#endif

    if constexpr (W > 2) {
      // Leftover lanes: hand them to the next narrower pass (same IEEE
      // sequence, so the hand-off point changes no bits).
      FastRunArgs tail = a;
      tail.begin = i;
      tail.h = a.h + (i - a.begin);
      if constexpr (kMode == PassMode::kTrace) tail.dh = a.dh + (i - a.begin);
      FastPass<kKind, W / 2>::template run_mode<kMode>(tail);
      return;
    }

    // Scalar lanes, four at a time for the same latency-hiding reason.
    for (; i + 4 <= a.end; i += 4) scalar_rows_n<4, kMode>(a, i);
    for (; i < a.end; ++i) scalar_rows_n<1, kMode>(a, i);
  }

#if defined(FERRO_FASTMATH_SIMD)
  template <class V>
  static FERRO_ALWAYS_INLINE typename V::Reg man_v(typename V::Reg he,
                                                   typename V::Reg ia,
                                                   typename V::Reg ia2,
                                                   typename V::Reg bl) {
    if constexpr (kKind == AnhystereticKind::kClassicLangevin) {
      (void)ia2, (void)bl;
      return fastmath::fast_langevin<V>(V::mul(he, ia));
    } else if constexpr (kKind == AnhystereticKind::kAtan) {
      (void)ia2, (void)bl;
      return fastmath::fast_atan_langevin<V>(V::mul(he, ia));
    } else {
      return V::add(
          V::mul(bl, fastmath::fast_atan_langevin<V>(V::mul(he, ia))),
          V::mul(V::sub(V::set1(1.0), bl),
                 fastmath::fast_atan_langevin<V>(V::mul(he, ia2))));
    }
  }

  /// Splits a tile's row range at its shortest lane: rows every tile lane
  /// still owns run the unmasked instantiation (bit-identical codegen to a
  /// lenless pass — the masked machinery is constexpr-pruned out of it);
  /// only the ragged tail (lanes with fewer planned rows than their
  /// tile-mates) pays for the per-lane active mask. Same lane-wise
  /// operation sequence in both, so where the split falls changes no bits.
  /// State is stored and reloaded at the phase boundary — once per tile,
  /// amortised over the whole row range.
  template <int kTiles, PassMode kMode>
  static void tile_dispatch(const FastRunArgs& a, std::size_t i) {
    std::size_t tile_min = a.j1;
    std::size_t tile_max = a.j1;
    if (a.len != nullptr) {
      tile_max = a.j0;
      for (int k = 0; k < kTiles * W; ++k) {
        const std::size_t len =
            std::min(a.len[i + static_cast<std::size_t>(k)], a.j1);
        tile_min = std::min(tile_min, len);
        tile_max = std::max(tile_max, len);
      }
    }
    const std::size_t lo = std::max(a.j0, std::min(tile_min, a.j1));
    const std::size_t hi = std::max(lo, tile_max);
    if (a.j0 < lo) tile_rows_n<kTiles, kMode, false>(a, i, a.j0, lo);
    if (lo < hi) tile_rows_n<kTiles, kMode, true>(a, i, lo, hi);
  }

  /// kTiles W-lane tiles (lanes [i, i + kTiles*W)) through rows [j0, j1)
  /// with all state in registers; the tiles' independent dependency chains
  /// interleave in the row loop. The per-tile arrays are indexed only by
  /// constants after unrolling, so they stay in registers. The kMasked
  /// instantiation additionally carries each lane's row count and freezes
  /// lanes whose rows are exhausted (state kept, stores suppressed, gather
  /// clamped to their last row).
  template <int kTiles, PassMode kMode, bool kMasked>
  static void tile_rows_n(const FastRunArgs& a, std::size_t i,
                          std::size_t j0, std::size_t j1) {
    using V = fastmath::VecD<W>;
    using R = typename V::Reg;
    using M = typename V::Mask;
    constexpr bool kTrace = kMode == PassMode::kTrace;
    constexpr bool kFinish = kMode == PassMode::kSweep;
    const R vzero = V::zero();
    const R vone = V::set1(1.0);

    // Per-lane constants, loaded once per tile.
    R am[kTiles], c1[kTiles], opk[kTiles], opam[kTiles], ia[kTiles],
        ia2[kTiles], bl[kTiles], dmax[kTiles], clamp_s[kTiles],
        clamp_d[kTiles], msr[kTiles];
    // Per-lane state, register-resident across the whole row range.
    R mi[kTiles], mt[kTiles], anchor[kTiles], slope[kTiles], ce[kTiles],
        csc[kTiles], cdc[kTiles];
    // Per-lane row counts, as doubles for the lane-active compare (exact
    // for any realistic count) — masked instantiation only.
    R lenv[kTiles];
    // kSweep: each tile's loop accumulator and non-finite probe, register-
    // resident like the model state, and its segment rows [seg_lo, seg_hi)
    // — rows inside every tile lane's metrics rows and past each one's
    // first, where the accumulator needs no mask.
    R probe[kTiles];
    analysis::BasicLoopAccumulator<V> loop[kTiles];
    std::size_t seg_lo[kTiles], seg_hi[kTiles];
    const double* hp[kTiles * W];
    const double* dhp[kTiles * W];
    std::size_t last[kTiles * W];
    std::size_t lens[kTiles * W];

    for (int t = 0; t < kTiles; ++t) {
      const std::size_t o = i + static_cast<std::size_t>(t * W);
      am[t] = V::load(a.alpha_ms + o);
      c1[t] = V::load(a.c_over_1pc + o);
      opk[t] = V::load(a.one_pc_k + o);
      opam[t] = V::load(a.one_pc_alpha_ms + o);
      ia[t] = V::load(a.inv_a + o);
      ia2[t] = V::load(a.inv_a2 + o);
      bl[t] = V::load(a.blend + o);
      dmax[t] = V::load(a.dhmax + o);
      clamp_s[t] = V::load(a.clamp_slope + o);
      clamp_d[t] = V::load(a.clamp_direction + o);
      msr[t] = V::load(a.ms + o);
      mi[t] = V::load(a.m_irr + o);
      mt[t] = V::load(a.m_total + o);
      anchor[t] = V::load(a.anchor_h + o);
      slope[t] = V::load(a.last_slope + o);
      ce[t] = V::load(a.cnt_events + o);
      csc[t] = V::load(a.cnt_slope_clamps + o);
      cdc[t] = V::load(a.cnt_direction_clamps + o);
      if constexpr (kFinish) {
        probe[t] = V::load(a.nonfinite + o);
        loop[t].load(a.loop_state + o, a.loop_stride);
        seg_lo[t] = 0;
        seg_hi[t] = j1;
        for (int k = 0; k < W; ++k) {
          seg_lo[t] = std::max(
              seg_lo[t], static_cast<std::size_t>(a.finish_begin[o + k]) + 1);
          seg_hi[t] = std::min(
              seg_hi[t], static_cast<std::size_t>(a.finish_end[o + k]));
        }
      }
    }
    for (int k = 0; k < kTiles * W; ++k) {
      hp[k] = a.h[(i - a.begin) + k];
      dhp[k] = kTrace ? a.dh[(i - a.begin) + k] : nullptr;
    }
    if constexpr (kMasked) {
      for (int k = 0; k < kTiles * W; ++k) {
        const std::size_t o = i + static_cast<std::size_t>(k);
        lens[k] = std::min(a.len[o], a.j1);
        last[k] = lens[k] != 0 ? lens[k] - 1 : 0;
      }
      for (int t = 0; t < kTiles; ++t) {
        double lbuf[W];
        for (int k = 0; k < W; ++k) {
          lbuf[k] = static_cast<double>(lens[t * W + k]);
        }
        lenv[t] = V::load(lbuf);
      }
    }

    for (std::size_t j = j0; j < j1; ++j) {
      // Gather the row's field samples (one stream per lane); finished
      // lanes re-read their last row — computed then discarded by the
      // active mask, never out of bounds.
      double hbuf[kTiles * W];
      double dhbuf[kTiles * W];
      for (int k = 0; k < kTiles * W; ++k) {
        const std::size_t jj = kMasked ? std::min(j, last[k]) : j;
        hbuf[k] = hp[k][jj];
        if constexpr (kTrace) dhbuf[k] = dhp[k][jj];
      }
      R h[kTiles] = {}, mt_new[kTiles] = {};
      M active[kTiles] = {};
      for (int t = 0; t < kTiles; ++t) {
        h[t] = V::load(hbuf + t * W);

        // core(): algebraic refresh from the previous total magnetisation.
        const R he = V::add(h[t], V::mul(am[t], mt[t]));
        const R m_an = man_v<V>(he, ia[t], ia2[t], bl[t]);
        const R mt1 = V::add(V::mul(c1[t], m_an), mi[t]);

        // Threshold mode detects the event from the anchored field motion;
        // trace mode takes the planner's word (dh != 0) and its exact step
        // width. Either way `dh` is the width the integration consumes.
        R dh;
        M event;
        if constexpr (kTrace) {
          dh = V::load(dhbuf + t * W);
          event = V::cmp_neq(dh, vzero);
        } else {
          dh = V::sub(h[t], anchor[t]);
          event = V::cmp_gt(V::abs(dh), dmax[t]);
        }
        if constexpr (kMasked) {
          active[t] = V::cmp_lt(V::set1(static_cast<double>(j)), lenv[t]);
          event = V::mask_and(event, active[t]);
        }

        // Integral() + (threshold mode) feedback refresh only when at least
        // one live lane of the tile crossed its threshold: skipping
        // pure-discard work changes no bits (the selects below would keep
        // the old values anyway) and saves a second anhysteretic evaluation
        // plus the divide on most samples.
        mt_new[t] = mt1;
        if (V::any(event)) {
          const R delta = V::copysign(vone, dh);
          const R delta_m = V::sub(m_an, mt1);
          const R denom =
              V::sub(V::mul(delta, opk[t]), V::mul(opam[t], delta_m));
          const R raw = V::div(delta_m, denom);
          const M clamped =
              V::mask_or(V::cmp_eq(denom, vzero),
                         V::mask_and(V::cmp_lt(raw, vzero),
                                     V::cmp_neq(clamp_s[t], vzero)));
          const R s = V::select(clamped, raw, vzero);
          R dm = V::mul(dh, s);
          const M rejected =
              V::mask_and(V::cmp_neq(clamp_d[t], vzero),
                          V::cmp_lt(V::mul(dm, dh), vzero));
          dm = V::select(rejected, dm, vzero);
          const R mi_next = V::add(mi[t], dm);

          if constexpr (!kTrace) {
            const R he2 = V::add(h[t], V::mul(am[t], mt1));
            const R mt2 = V::add(
                V::mul(c1[t], man_v<V>(he2, ia[t], ia2[t], bl[t])), mi_next);
            mt_new[t] = V::select(event, mt1, mt2);
            anchor[t] = V::select(event, anchor[t], h[t]);
          }
          mi[t] = V::select(event, mi[t], mi_next);
          slope[t] = V::select(event, slope[t], s);
          ce[t] = V::add(ce[t], V::one_where(event, vone));
          csc[t] =
              V::add(csc[t], V::one_where(V::mask_and(event, clamped), vone));
          cdc[t] =
              V::add(cdc[t], V::one_where(V::mask_and(event, rejected), vone));
        }
        if constexpr (kMasked) {
          mt[t] = V::select(active[t], mt[t], mt_new[t]);
        } else {
          mt[t] = mt_new[t];
        }
      }

      // Fused sample recording: bounce the tiles' curve points through a
      // stack buffer (the stores forward straight from the registers);
      // same m/b arithmetic as the scalar path. Finished lanes stop
      // storing — their out rows do not exist — and finishing.
      if constexpr (kMode != PassMode::kStep) {
        for (int t = 0; t < kTiles; ++t) {
          const R m = V::mul(msr[t], mt_new[t]);
          const R b = V::mul(V::set1(util::kMu0), V::add(m, h[t]));
          if constexpr (kFinish) {
            if (!kMasked && j >= seg_lo[t] && j < seg_hi[t]) {
              loop[t].add_segment(h[t], b);
            } else {
              // A lane's metrics rows end by its last row, so the mask
              // needs no lane-active term.
              const std::size_t o = i + static_cast<std::size_t>(t * W);
              const R row = V::set1(static_cast<double>(j));
              loop[t].add(h[t], b,
                          V::mask_andnot(
                              V::cmp_lt(row, V::load(a.finish_end + o)),
                              V::cmp_lt(row, V::load(a.finish_begin + o))));
            }
            const R probed = probe_point<V>(probe[t], b);
            if constexpr (kMasked) {
              probe[t] = V::select(active[t], probe[t], probed);
            } else {
              probe[t] = probed;
            }
          }
          double mb[W], bb[W];
          V::store(mb, m);
          V::store(bb, b);
          for (int k = 0; k < W; ++k) {
            const std::size_t lane = static_cast<std::size_t>(t * W + k);
            if (kMasked && j >= lens[lane]) continue;
            a.out[i + lane][j] = BhPoint{hbuf[lane], mb[k], bb[k]};
          }
        }
      }
    }

    for (int t = 0; t < kTiles; ++t) {
      const std::size_t o = i + static_cast<std::size_t>(t * W);
      V::store(a.m_irr + o, mi[t]);
      V::store(a.m_total + o, mt[t]);
      V::store(a.anchor_h + o, anchor[t]);
      V::store(a.last_slope + o, slope[t]);
      V::store(a.cnt_events + o, ce[t]);
      V::store(a.cnt_slope_clamps + o, csc[t]);
      V::store(a.cnt_direction_clamps + o, cdc[t]);
      if constexpr (kFinish) {
        V::store(a.nonfinite + o, probe[t]);
        loop[t].store(a.loop_state + o, a.loop_stride);
      }
    }
  }
#endif  // FERRO_FASTMATH_SIMD

  /// kLanes scalar lanes (lanes [i, i + kLanes)) through rows [j0, j1),
  /// state in locals, lanes interleaved in the row loop — the same IEEE
  /// operation sequence as the vector tiles (bitwise &/| and bit_select,
  /// not &&/|| — short-circuit evaluation would reintroduce control flow).
  /// Ragged lanes simply skip rows past their count, like the masked tiles.
  template <int kLanes, PassMode kMode>
  static void scalar_rows_n(const FastRunArgs& a, std::size_t i) {
    using S = fastmath::VecD<1>;
    constexpr bool kTrace = kMode == PassMode::kTrace;
    constexpr bool kFinish = kMode == PassMode::kSweep;
    double am[kLanes], c1[kLanes], opk[kLanes], opam[kLanes], ia[kLanes],
        ia2[kLanes], bl[kLanes], dmax[kLanes], clamp_s[kLanes],
        clamp_d[kLanes], msr[kLanes];
    double mi[kLanes], mt[kLanes], anchor[kLanes], slope[kLanes], ce[kLanes],
        csc[kLanes], cdc[kLanes];
    double probe[kLanes];
    analysis::BasicLoopAccumulator<S> loop[kLanes];
    std::size_t fbegin[kLanes], fend[kLanes];
    std::size_t lens[kLanes];
    const double* hp[kLanes];
    const double* dhp[kLanes];
    BhPoint* op[kLanes];

    for (int k = 0; k < kLanes; ++k) {
      const std::size_t o = i + static_cast<std::size_t>(k);
      am[k] = a.alpha_ms[o];
      c1[k] = a.c_over_1pc[o];
      opk[k] = a.one_pc_k[o];
      opam[k] = a.one_pc_alpha_ms[o];
      ia[k] = a.inv_a[o];
      ia2[k] = a.inv_a2[o];
      bl[k] = a.blend[o];
      dmax[k] = a.dhmax[o];
      clamp_s[k] = a.clamp_slope[o];
      clamp_d[k] = a.clamp_direction[o];
      msr[k] = a.ms[o];
      mi[k] = a.m_irr[o];
      mt[k] = a.m_total[o];
      anchor[k] = a.anchor_h[o];
      slope[k] = a.last_slope[o];
      ce[k] = a.cnt_events[o];
      csc[k] = a.cnt_slope_clamps[o];
      cdc[k] = a.cnt_direction_clamps[o];
      lens[k] = std::min(a.len != nullptr ? a.len[o] : a.j1, a.j1);
      hp[k] = a.h[(i - a.begin) + k];
      dhp[k] = kTrace ? a.dh[(i - a.begin) + k] : nullptr;
      op[k] = a.out != nullptr ? a.out[o] : nullptr;
      if constexpr (kFinish) {
        fbegin[k] = static_cast<std::size_t>(a.finish_begin[o]);
        fend[k] = static_cast<std::size_t>(a.finish_end[o]);
        probe[k] = a.nonfinite[o];
        loop[k].load(a.loop_state + o, a.loop_stride);
      }
    }
    // The tiles' recording step for lane k's row j, point for point.
    const auto record = [&](int k, std::size_t j, double h) {
      if constexpr (kMode != PassMode::kStep) {
        const double m = msr[k] * mt[k];
        const double b = util::kMu0 * (m + h);
        op[k][j] = BhPoint{h, m, b};
        if constexpr (kFinish) {
          if (j > fbegin[k] && j < fend[k]) {
            loop[k].add_segment(h, b);
          } else {
            loop[k].add(h, b, j == fbegin[k] && j < fend[k]);
          }
          probe[k] = probe_point<S>(probe[k], b);
        }
      }
    };
    // Clamp the row range to this group's own longest lane — the
    // rectangle's j1 is the whole dispatch's maximum, and spinning empty
    // guard iterations past every local lane's end would waste the tail.
    std::size_t j1 = a.j0;
    for (int k = 0; k < kLanes; ++k) j1 = std::max(j1, lens[k]);
    j1 = std::min(j1, a.j1);

    for (std::size_t j = a.j0; j < j1; ++j) {
      for (int k = 0; k < kLanes; ++k) {
        if (j >= lens[k]) continue;
        const double h = hp[k][j];

        // core(): algebraic refresh from the previous total magnetisation.
        const double he = h + am[k] * mt[k];
        const double m_an = man(he, ia[k], ia2[k], bl[k]);
        const double mt1 = c1[k] * m_an + mi[k];

        // Event source: the planner's row program in trace mode, the
        // anchored threshold otherwise. The non-event skip mirrors the
        // vector tile's any(event) shortcut — only pure-discard work is
        // elided, so the values written are the ones the select
        // formulation would produce.
        double dh;
        bool event;
        if constexpr (kTrace) {
          dh = dhp[k][j];
          event = dh != 0.0;
        } else {
          dh = h - anchor[k];
          event = std::fabs(dh) > dmax[k];
        }
        if (!event) {
          mt[k] = mt1;
          record(k, j, h);
          continue;
        }

        // Integral(): select-based clamps, then (threshold mode only) the
        // feedback refresh with the effective field from the pre-event
        // total, exactly like the scalar model's second
        // refresh_algebraic(); trace rows leave the refresh to the
        // planner's explicit follow-up row.
        const double delta = std::copysign(1.0, dh);
        const double delta_m = m_an - mt1;
        const double denom = delta * opk[k] - opam[k] * delta_m;
        const double raw = delta_m / denom;
        const bool clamped =
            (denom == 0.0) | ((raw < 0.0) & (clamp_s[k] != 0.0));
        const double s = bit_select(clamped, raw, 0.0);
        double dm = dh * s;
        const bool rejected = (clamp_d[k] != 0.0) & (dm * dh < 0.0);
        dm = bit_select(rejected, dm, 0.0);

        mi[k] += dm;
        if constexpr (kTrace) {
          mt[k] = mt1;
        } else {
          const double he2 = h + am[k] * mt1;
          mt[k] = c1[k] * man(he2, ia[k], ia2[k], bl[k]) + mi[k];
          anchor[k] = h;
        }
        slope[k] = s;
        ce[k] += 1.0;
        csc[k] += clamped ? 1.0 : 0.0;
        cdc[k] += rejected ? 1.0 : 0.0;
        record(k, j, h);
      }
    }

    for (int k = 0; k < kLanes; ++k) {
      const std::size_t o = i + static_cast<std::size_t>(k);
      a.m_irr[o] = mi[k];
      a.m_total[o] = mt[k];
      a.anchor_h[o] = anchor[k];
      a.last_slope[o] = slope[k];
      a.cnt_events[o] = ce[k];
      a.cnt_slope_clamps[o] = csc[k];
      a.cnt_direction_clamps[o] = cdc[k];
      if constexpr (kFinish) {
        a.nonfinite[o] = probe[k];
        loop[k].store(a.loop_state + o, a.loop_stride);
      }
    }
  }
};

/// The width-W entry point body: dispatches over the anhysteretic kind.
template <int W>
void fast_run(AnhystereticKind kind, const FastRunArgs& args) {
  switch (kind) {
    case AnhystereticKind::kClassicLangevin:
      FastPass<AnhystereticKind::kClassicLangevin, W>::run(args);
      break;
    case AnhystereticKind::kAtan:
      FastPass<AnhystereticKind::kAtan, W>::run(args);
      break;
    case AnhystereticKind::kDualAtan:
      FastPass<AnhystereticKind::kDualAtan, W>::run(args);
      break;
  }
}

}  // inline namespace FERRO_SIMD_NS
}  // namespace ferro::mag::detail
