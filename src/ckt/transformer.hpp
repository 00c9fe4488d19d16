// Two-winding transformer on a shared JA hysteresis core.
//
// Both windings magnetise the same core: H = (Np*ip + Ns*is)/l. Winding
// equations are vp = d(lambda_p)/dt, vs = d(lambda_s)/dt with
// lambda_p = Np*A*B(H), lambda_s = Ns*A*B(H). The shared B(H) couples the
// two branch rows through the core's differential permeability, taken on
// the branch the CoreCompanion latched for the trial step (an event fires
// only when an iterate crosses |H - anchor| > dhmax, and the decision then
// holds for the rest of the solve and for the commit): a wide central
// difference on the seed iterate, the branch's exact tangent afterwards.
#pragma once

#include "ckt/core_companion.hpp"
#include "ckt/device.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"

namespace ferro::ckt {

class JaTransformer final : public Device {
 public:
  /// `turns_secondary` plus the geometry's `turns` (primary) define the
  /// ratio. Winding order: primary a-b, secondary c-d.
  JaTransformer(std::string name, NodeId pa, NodeId pb, NodeId sa, NodeId sb,
                mag::CoreGeometry geometry, int turns_secondary,
                const mag::JaParameters& params,
                mag::TimelessConfig config = {});

  [[nodiscard]] std::size_t branch_count() const override { return 2; }
  void stamp(Stamper& s, const EvalContext& ctx) override;
  void commit(const EvalContext& ctx, std::span<const double> x) override;
  [[nodiscard]] bool nonlinear() const override { return true; }

  [[nodiscard]] double field() const { return model().state().present_h; }
  [[nodiscard]] double flux_density() const { return model().flux_density(); }
  [[nodiscard]] double primary_current() const { return ip_prev_; }
  [[nodiscard]] double secondary_current() const { return is_prev_; }
  [[nodiscard]] const mag::TimelessJa& model() const { return core_.model(); }

 private:
  /// Core field for winding currents (ip, is).
  [[nodiscard]] double field_at(double ip, double is) const;

  NodeId pa_, pb_, sa_, sb_;
  mag::CoreGeometry geometry_;
  double ns_;  ///< secondary turns
  CoreCompanion core_;
  double ip_prev_ = 0.0, is_prev_ = 0.0;
  double vp_prev_ = 0.0, vs_prev_ = 0.0;
  double lambda_p_prev_, lambda_s_prev_;
};

}  // namespace ferro::ckt
