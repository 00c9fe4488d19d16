#include "ckt/transformer.hpp"

#include <utility>

namespace ferro::ckt {

JaTransformer::JaTransformer(std::string name, NodeId pa, NodeId pb, NodeId sa,
                             NodeId sb, mag::CoreGeometry geometry,
                             int turns_secondary,
                             const mag::JaParameters& params,
                             mag::TimelessConfig config)
    : Device(std::move(name)),
      pa_(pa),
      pb_(pb),
      sa_(sa),
      sb_(sb),
      geometry_(geometry),
      ns_(static_cast<double>(turns_secondary)),
      core_(params, config) {
  const double b0 = model().flux_density();
  lambda_p_prev_ = static_cast<double>(geometry_.turns) * geometry_.area * b0;
  lambda_s_prev_ = ns_ * geometry_.area * b0;
}

double JaTransformer::field_at(double ip, double is) const {
  return (static_cast<double>(geometry_.turns) * ip + ns_ * is) /
         geometry_.path_length;
}

void JaTransformer::stamp(Stamper& s, const EvalContext& ctx) {
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
    // Both windings are DC quasi-shorts (independent rows, see JaInductor).
    s.branch_branch(brp, brp, -1e-3);
    s.branch_branch(brs, brs, -1e-3);
    return;
  }

  const double np = static_cast<double>(geometry_.turns);
  const double ip_k = s.i(brp);
  const double is_k = s.i(brs);
  const double h_k = field_at(ip_k, is_k);
  // Differential permeability from the committed state (see CoreCompanion).
  const mag::FluxTangent core = core_.linearise(h_k, ctx.iteration == 0);
  const double lambda_p_k = np * geometry_.area * core.b;
  const double lambda_s_k = ns_ * geometry_.area * core.b;

  // d(lambda_w)/d(i_u) = N_w * A * dB/dH * N_u / l
  const double common = geometry_.area * core.db_dh / geometry_.path_length;
  const double lpp = np * common * np;
  const double lps = np * common * ns_;
  const double lsp = ns_ * common * np;
  const double lss = ns_ * common * ns_;

  // Trapezoidal, per winding: v = (2/dt)(lambda - lambda_prev) - v_prev.
  const double scale = 2.0 / ctx.dt;

  // vp - scale*(lpp*ip + lps*is) = scale*(lambda_p_k - lpp*ip_k - lps*is_k
  //                                       - lambda_p_prev) - vp_prev
  s.branch_branch(brp, brp, -scale * lpp);
  s.branch_branch(brp, brs, -scale * lps);
  s.branch_rhs(brp, scale * (lambda_p_k - lpp * ip_k - lps * is_k -
                             lambda_p_prev_) -
                        vp_prev_);

  s.branch_branch(brs, brp, -scale * lsp);
  s.branch_branch(brs, brs, -scale * lss);
  s.branch_rhs(brs, scale * (lambda_s_k - lsp * ip_k - lss * is_k -
                             lambda_s_prev_) -
                        vs_prev_);
}

void JaTransformer::commit(const EvalContext& ctx, std::span<const double> x) {
  const std::size_t brp = first_branch();
  const double ip = x[ctx.node_count + brp];
  const double is = x[ctx.node_count + brp + 1];

  core_.commit(field_at(ip, is), ctx.dc);
  const double b = model().flux_density();
  lambda_p_prev_ = static_cast<double>(geometry_.turns) * geometry_.area * b;
  lambda_s_prev_ = ns_ * geometry_.area * b;

  const auto v_of = [&](NodeId node) {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node)];
  };
  vp_prev_ = v_of(pa_) - v_of(pb_);
  vs_prev_ = v_of(sa_) - v_of(sb_);
  ip_prev_ = ip;
  is_prev_ = is;
}

}  // namespace ferro::ckt
