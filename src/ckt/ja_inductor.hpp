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
// the commit. The seed iterate's slope is a wide central difference across
// the threshold (three core evaluations); every later iterate evaluates the
// core once, on the latched branch's exact tangent. The state advances
// only in commit(), so rejected steps never pollute the hysteresis
// trajectory.
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

  /// The seed iterate's central-difference step around current `i_k`,
  /// as a current: CoreCompanion::difference_step at i_k's field, at least
  /// one event threshold wide. Later iterates take the exact tangent and
  /// no difference.
  [[nodiscard]] double trial_di(double i_k) const;

  /// Does nothing: stamp() evaluates its core itself. Kept because the
  /// repository benchmark's traced Monte-Carlo replay calls it.
  void arm_trial(double b_at, double b_plus, double b_minus, double di);

 private:
  NodeId a_, b_;
  mag::CoreGeometry geometry_;
  CoreCompanion core_;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
  double lambda_prev_;
};

}  // namespace ferro::ckt
