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
// slopes / counters) is loaded once per tile, lives in registers across the
// whole row range, and is stored once at the end. That turns the
// per-sample cost into one gathered field load, the step arithmetic, and
// (optionally) one curve-point store — no state traffic. Lanes left over
// after the W-tiles cascade to the W/2 pass and finally to W = 1, which is
// the same tile body over fastmath::VecD<1>: there is one copy of each row
// program, whatever the width.
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
// The step body is branch-free within a tile (selects and copysign, the
// feedback refresh masked by the event flag). Every operation is lane-wise
// and identical in sequence at every width, W = 1 included, so a lane's
// trajectory — NaN and infinite field samples included — never depends on
// the vector width, on which lanes share a register, on how lanes are
// grouped into tiles, row segments or blocks, or on which lanes around it
// have already finished: width, pairing, partition and thread-count
// invariance by construction (property-tested in
// tests/test_timeless_batch.cpp).
//
// ABI note: FastRunArgs and FastRunFn sit OUTSIDE the ISA inline namespace
// — their layout is flag-independent and the function-pointer type must
// agree across differently-flagged TUs. Everything with a body lives inside
// it, so no template instantiation can be merged across TUs compiled for
// different ISAs (the classic wide-SIMD ODR trap: a baseline binary
// executing an AVX-compiled copy of a deduplicated inline function).
#pragma once

#include <algorithm>
#include <cstddef>

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

template <AnhystereticKind kKind, int W>
struct FastPass {
  using V = fastmath::VecD<W>;
  using R = typename V::Reg;
  using M = typename V::Mask;

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
    // Tiles interleaved per group: a single tile is one dependency chain
    // per row (he -> man -> m_total, ~60 cycles), so the core would idle
    // between samples; a second independent chain roughly doubles the
    // occupancy. Vector tiles stop paying beyond two — the constants spill
    // — while single-lane tiles keep paying up to four.
    constexpr int kGroup = W == 1 ? 4 : 2;
    std::size_t i = a.begin;
    for (; i + kGroup * W <= a.end; i += static_cast<std::size_t>(kGroup * W)) {
      tile_dispatch<kGroup, kMode>(a, i);
    }
    for (; i + W <= a.end; i += static_cast<std::size_t>(W)) {
      tile_dispatch<1, kMode>(a, i);
    }

    if constexpr (W > 1) {
      // Leftover lanes: hand them to the next narrower pass (same IEEE
      // sequence, so the hand-off point changes no bits).
      FastRunArgs tail = a;
      tail.begin = i;
      tail.h = a.h + (i - a.begin);
      if constexpr (kMode == PassMode::kTrace) tail.dh = a.dh + (i - a.begin);
      FastPass<kKind, W / 2>::template run_mode<kMode>(tail);
    }
  }

  static FERRO_ALWAYS_INLINE R man(R he, R ia, R ia2, R bl) {
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
        const R m_an = man(he, ia[t], ia2[t], bl[t]);
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
                V::mul(c1[t], man(he2, ia[t], ia2[t], bl[t])), mi_next);
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
      // same m/b arithmetic as the scalar model. Finished lanes stop
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
