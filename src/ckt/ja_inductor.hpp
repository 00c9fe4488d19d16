// Nonlinear inductor on a ferromagnetic core modelled by TimelessJa —
// the component the paper's introduction motivates (JA cores inside
// SPICE/SABER-class circuit simulators).
//
// Branch formulation: the winding equation is v = d(lambda)/dt with
// lambda(i) = N * A * B(H), H = N*i/l, and B supplied by the hysteresis
// model. Each Newton iteration linearises lambda around the present
// current on the branch the CoreCompanion latched for the trial step: an
// event fires only when an iterate of the step crosses |H - anchor| >
// dhmax, and the decision then holds for the rest of the solve and for
// the commit. The state advances only in commit(), so rejected steps
// never pollute the hysteresis trajectory.
#pragma once

#include "ckt/core_companion.hpp"
#include "ckt/device.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"

namespace ferro::ckt {

class JaInductor final : public Device {
 public:
  JaInductor(std::string name, NodeId a, NodeId b, mag::CoreGeometry geometry,
             const mag::JaParameters& params, mag::TimelessConfig config = {});

  [[nodiscard]] std::size_t branch_count() const override { return 1; }
  void stamp(Stamper& s, const EvalContext& ctx) override;
  void commit(const EvalContext& ctx, std::span<const double> x) override;
  [[nodiscard]] bool nonlinear() const override { return true; }

  /// Committed core observables (for probes and tests).
  [[nodiscard]] double field() const { return model().state().present_h; }
  [[nodiscard]] double flux_density() const { return model().flux_density(); }
  [[nodiscard]] double current() const { return i_prev_; }
  [[nodiscard]] const mag::TimelessJa& model() const { return core_.model(); }
  [[nodiscard]] const mag::CoreGeometry& geometry() const { return geometry_; }

  /// The central-difference current perturbation stamp() uses around the
  /// iterate current `i_k`: wide on a trial step's seed iterate (`seed`,
  /// TransientMachine::seeding()), narrow afterwards. Exposed so the
  /// Monte-Carlo packer evaluates the trial points the scalar path will.
  [[nodiscard]] double trial_di(double i_k, bool seed) const;

  /// The same perturbation with the seed guessed from the iterate: a seed
  /// when `i_k` is the committed current bit for bit. The seed is the
  /// predicted solution, so the guess is wrong on almost every seed of a
  /// moving circuit; a wrong guess never changes a result, it only costs
  /// the armed slope pair, which stamp() then evaluates itself.
  [[nodiscard]] double trial_di(double i_k) const;

  /// Pre-arms the next (non-DC) stamp() with externally evaluated trial
  /// flux densities from the COMMITTED magnetic state, each with the event
  /// decision apply(h) takes at its own field: `b_at` at the iterate
  /// current i_k, `b_plus`/`b_minus` at i_k +/- `di` (di from trial_di).
  /// The stamp uses a value wherever it lies on the branch the stamp
  /// evaluates and evaluates that branch itself otherwise, so arming never
  /// changes a result (TimelessJaBatch kExact is bitwise-equal to the
  /// scalar model). One-shot: consumed by the next stamp(), so the packer
  /// re-arms before every Newton iteration.
  void arm_trial(double b_at, double b_plus, double b_minus, double di);

 private:
  NodeId a_, b_;
  mag::CoreGeometry geometry_;
  CoreCompanion core_;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
  double lambda_prev_;

  bool armed_ = false;
  double armed_b_at_ = 0.0;
  double armed_b_plus_ = 0.0;
  double armed_b_minus_ = 0.0;
  double armed_di_ = 0.0;
};

}  // namespace ferro::ckt
