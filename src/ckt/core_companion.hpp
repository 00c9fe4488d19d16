// Newton companion of one TimelessJa core, shared by JaInductor and
// JaTransformer.
//
// In the paper's HDL models m_irr is a discrete state that changes only at
// a dhmax field event; the analogue solve never sees the jump. Re-running
// TimelessJa::apply at every Newton iterate would put that jump inside the
// solve: B(H) steps by dhmax*slope where an iterate crosses the threshold,
// and when the solution falls in the step no root exists. The companion
// fixes the event decision for the whole trial step instead:
//
//   * decision   — taken at the step's seed iterate (the predicted
//                  solution, TransientMachine); afterwards it may switch
//                  only from "no event" to "event", once an iterate crosses
//                  |H - anchor| > dhmax, never back;
//   * evaluation — B, its slope and commit() all use the latched branch,
//                  which is smooth in H, so each piecewise-smooth branch is
//                  solved on its own (the argument Egger & Engertsberger
//                  make for Newton on hysteresis operators);
//   * slope      — the seed iterate takes a wide central difference across
//                  the threshold, natural evaluations on both sides, so the
//                  first Newton step already sees a pending event; later
//                  iterates take a narrow difference of the latched branch
//                  itself, its own tangent, so Newton converges
//                  quadratically instead of creeping under the engine's
//                  relative step test.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>

#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"

namespace ferro::ckt {

class CoreCompanion {
 public:
  CoreCompanion(const mag::JaParameters& params,
                const mag::TimelessConfig& config)
      : model_(params, config) {}

  /// The committed magnetic state.
  [[nodiscard]] const mag::TimelessJa& model() const { return model_; }

  /// Takes the event decision at the field of the step's seed iterate
  /// (`seed`: the predicted solution), or lets a later iterate switch it to
  /// "event".
  void latch(double h, bool seed) { event_ = crosses(h) || (!seed && event_); }

  /// Central-difference step in H for the slope at iterate field h: wide on
  /// the seed iterate (at least one event threshold), narrow afterwards.
  [[nodiscard]] double difference_step(double h, bool seed) const {
    const double narrow = 1e-6 * (1.0 + std::fabs(h));
    return seed ? std::max(1.5 * model_.config().dhmax, narrow) : narrow;
  }

  /// B [T] at trial field h from the committed state: on the latched
  /// branch, or with `natural` on the branch apply(h) picks by itself.
  /// `natural_b`, when given, is a natural evaluation at h made elsewhere
  /// (the Monte-Carlo packer's SoA lanes); it is returned wherever the two
  /// branches agree, which keeps packed and scalar runs bitwise identical.
  [[nodiscard]] double b_at(double h, bool natural,
                            std::optional<double> natural_b = {}) const {
    const bool event = natural ? crosses(h) : event_;
    if (natural_b && event == crosses(h)) return *natural_b;
    mag::TimelessJa trial = model_;  // copy of the committed magnetic state
    trial.apply(h, event);
    return trial.flux_density();
  }

  /// Advances the committed state to field h on the latched branch, or
  /// with `natural` on the branch apply(h) picks (a DC commit, which no
  /// Newton solve of the core preceded).
  void commit(double h, bool natural) {
    model_.apply(h, natural ? crosses(h) : event_);
  }

 private:
  /// The decision apply(h) takes by itself from the committed state.
  [[nodiscard]] bool crosses(double h) const {
    return std::fabs(h - model_.state().anchor_h) > model_.config().dhmax;
  }

  mag::TimelessJa model_;
  bool event_ = false;
};

}  // namespace ferro::ckt
