#include "ckt/mutual.hpp"

#include <cassert>
#include <cmath>

namespace ferro::ckt {

MutualInductor::MutualInductor(std::string name, NodeId pa, NodeId pb,
                               NodeId sa, NodeId sb, double l_primary,
                               double l_secondary, double coupling)
    : Device(std::move(name)),
      pa_(pa),
      pb_(pb),
      sa_(sa),
      sb_(sb),
      l1_(l_primary),
      l2_(l_secondary),
      m_(coupling * std::sqrt(l_primary * l_secondary)) {
  assert(l_primary > 0.0);
  assert(l_secondary > 0.0);
  assert(coupling >= 0.0 && coupling < 1.0);
}

void MutualInductor::stamp(Stamper& s, const EvalContext& ctx) {
  const std::size_t brp = first_branch();
  const std::size_t brs = brp + 1;

  s.node_branch(pa_, brp, +1.0);
  s.node_branch(pb_, brp, -1.0);
  s.branch_node(brp, pa_, +1.0);
  s.branch_node(brp, pb_, -1.0);

  s.node_branch(sa_, brs, +1.0);
  s.node_branch(sb_, brs, -1.0);
  s.branch_node(brs, sa_, +1.0);
  s.branch_node(brs, sb_, -1.0);

  if (ctx.dc) {
    // Quasi-shorts (independent rows even against ideal sources).
    s.branch_branch(brp, brp, -1e-3);
    s.branch_branch(brs, brs, -1e-3);
    return;
  }

  // vp = L1 dip/dt + M dis/dt ; vs = M dip/dt + L2 dis/dt
  // Trapezoidal: v = (2/dt)(lambda - lambda_prev) - v_prev, with
  // lambda_p = L1 ip + M is (linear, so the companion is exact).
  const double scale = 2.0 / ctx.dt;

  const double lambda_p_prev = l1_ * ip_prev_ + m_ * is_prev_;
  const double lambda_s_prev = m_ * ip_prev_ + l2_ * is_prev_;

  s.branch_branch(brp, brp, -scale * l1_);
  s.branch_branch(brp, brs, -scale * m_);
  s.branch_rhs(brp, -scale * lambda_p_prev - vp_prev_);

  s.branch_branch(brs, brp, -scale * m_);
  s.branch_branch(brs, brs, -scale * l2_);
  s.branch_rhs(brs, -scale * lambda_s_prev - vs_prev_);
}

void MutualInductor::commit(const EvalContext& ctx, std::span<const double> x) {
  const std::size_t brp = first_branch();
  ip_prev_ = x[ctx.node_count + brp];
  is_prev_ = x[ctx.node_count + brp + 1];
  const auto v_of = [&](NodeId node) {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node)];
  };
  vp_prev_ = v_of(pa_) - v_of(pb_);
  vs_prev_ = v_of(sa_) - v_of(sb_);
}

}  // namespace ferro::ckt
