#include "ckt/ja_inductor.hpp"

#include <utility>

namespace ferro::ckt {

JaInductor::JaInductor(std::string name, NodeId a, NodeId b,
                       mag::CoreGeometry geometry,
                       const mag::JaParameters& params,
                       mag::TimelessConfig config)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      geometry_(geometry),
      core_(params, config) {
  lambda_prev_ = geometry_.linkage_from_b(model().flux_density());
}

double JaInductor::trial_di(double i_k) const {
  return geometry_.current_from_field(
      core_.difference_step(geometry_.field_from_current(i_k)));
}

void JaInductor::arm_trial(double, double, double, double) {}

void JaInductor::stamp(Stamper& s, const EvalContext& ctx) {
  const std::size_t br = first_branch();
  s.node_branch(a_, br, +1.0);
  s.node_branch(b_, br, -1.0);
  s.branch_node(br, a_, +1.0);
  s.branch_node(br, b_, -1.0);

  if (ctx.dc) {
    // DC quasi-short (milliohm keeps the row independent of ideal sources).
    s.branch_branch(br, br, -1e-3);
    return;
  }

  const double i_k = s.i(br);
  const mag::FluxTangent core = core_.linearise(
      geometry_.field_from_current(i_k), ctx.iteration == 0);
  const double n = static_cast<double>(geometry_.turns);
  const double lambda_k = geometry_.linkage_from_b(core.b);
  // d(lambda)/di = N * A * dB/dH * N / l
  const double l_eff = n * geometry_.area * core.db_dh * n / geometry_.path_length;

  // Trapezoidal: v = (2/dt)(lambda - lambda_prev) - v_prev, so
  // v_a - v_b - scale*l_eff*i = scale*(lambda_k - l_eff*i_k - lambda_prev) - v_prev
  const double scale = 2.0 / ctx.dt;
  s.branch_branch(br, br, -scale * l_eff);
  s.branch_rhs(br, scale * (lambda_k - l_eff * i_k - lambda_prev_) - v_prev_);
}

void JaInductor::commit(const EvalContext& ctx, std::span<const double> x) {
  const double i = x[ctx.node_count + first_branch()];
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];

  core_.commit(geometry_.field_from_current(i), ctx.dc);
  lambda_prev_ = geometry_.linkage_from_b(model().flux_density());
  i_prev_ = i;
  v_prev_ = va - vb;
}

}  // namespace ferro::ckt
