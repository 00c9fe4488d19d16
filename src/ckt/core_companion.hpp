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
//                  iterates take the latched branch's exact tangent
//                  (TimelessJa::evaluate: one evaluation, dB/dH by the
//                  chain rule through apply's arithmetic), so Newton
//                  converges quadratically. No evaluation copies the
//                  model.
#pragma once

#include <algorithm>
#include <cmath>

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

  /// The latched decision: true when this trial step's iterates evaluate
  /// the core on its event branch.
  [[nodiscard]] bool event() const { return event_; }

  /// Takes the event decision at the field of the step's seed iterate
  /// (`seed`: the predicted solution), or lets a later iterate switch it to
  /// "event".
  void latch(double h, bool seed) {
    event_ = model_.crosses(h) || (!seed && event_);
  }

  /// Central-difference step in H for the seed iterate's slope at field h:
  /// at least one event threshold wide, so it spans a pending event.
  [[nodiscard]] double difference_step(double h) const {
    return std::max(1.5 * model_.config().dhmax, 1e-6 * (1.0 + std::fabs(h)));
  }

  /// Latches the decision at iterate field h (latch) and returns the B and
  /// dB/dH a Newton iterate linearises the core with, both from the
  /// committed state. The seed iterate takes B on the latched branch and a
  /// central difference of natural evaluations difference_step(h) to either
  /// side (three evaluations of B alone); later iterates take the latched
  /// branch's tangent (one).
  [[nodiscard]] mag::FluxTangent linearise(double h, bool seed) {
    latch(h, seed);
    if (!seed) return model_.evaluate(h, event_);
    const double dh = difference_step(h);
    const auto natural_b = [&](double hx) {
      return model_.flux_density_at(hx, model_.crosses(hx));
    };
    return {model_.flux_density_at(h, event_),
            (natural_b(h + dh) - natural_b(h - dh)) / (2.0 * dh)};
  }

  /// Advances the committed state to field h on the latched branch, or
  /// with `natural` on the branch apply(h) picks (a DC commit, which no
  /// Newton solve of the core preceded).
  void commit(double h, bool natural) {
    model_.apply(h, natural ? model_.crosses(h) : event_);
  }

 private:
  mag::TimelessJa model_;
  bool event_ = false;
};

}  // namespace ferro::ckt
