#include "ckt/ja_inductor.hpp"

#include <optional>
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

double JaInductor::trial_di(double i_k, bool seed) const {
  return geometry_.current_from_field(
      core_.difference_step(geometry_.field_from_current(i_k), seed));
}

double JaInductor::trial_di(double i_k) const {
  return trial_di(i_k, i_k == i_prev_);
}

void JaInductor::arm_trial(double b_at, double b_plus, double b_minus,
                           double di) {
  armed_ = true;
  armed_b_at_ = b_at;
  armed_b_plus_ = b_plus;
  armed_b_minus_ = b_minus;
  armed_di_ = di;
}

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
  const bool seed = ctx.iteration == 0;
  core_.latch(geometry_.field_from_current(i_k), seed);
  const double di = trial_di(i_k, seed);

  // Packer-armed values stand in for the evaluations they equal (see
  // arm_trial); the slope pair only when it was taken at the same di.
  const bool armed = std::exchange(armed_, false);
  const bool armed_pair = armed && armed_di_ == di;
  const auto lambda_at = [&](double i, bool natural, bool use_armed,
                             double armed_b) {
    return geometry_.linkage_from_b(
        core_.b_at(geometry_.field_from_current(i), natural,
                   use_armed ? std::optional<double>(armed_b) : std::nullopt));
  };
  const double lambda_k = lambda_at(i_k, false, armed, armed_b_at_);
  const double l_eff = (lambda_at(i_k + di, seed, armed_pair, armed_b_plus_) -
                        lambda_at(i_k - di, seed, armed_pair, armed_b_minus_)) /
                       (2.0 * di);

  // Trapezoidal: v = (2/dt)(lambda - lambda_prev) - v_prev
  // Backward Euler: v = (lambda - lambda_prev)/dt
  const double scale =
      ctx.method == ams::IntegrationMethod::kTrapezoidal ? 2.0 / ctx.dt
                                                         : 1.0 / ctx.dt;
  const double hist =
      ctx.method == ams::IntegrationMethod::kTrapezoidal ? -v_prev_ : 0.0;

  // v_a - v_b - scale*l_eff*i = scale*(lambda_k - l_eff*i_k - lambda_prev) + hist
  s.branch_branch(br, br, -scale * l_eff);
  s.branch_rhs(br, scale * (lambda_k - l_eff * i_k - lambda_prev_) + hist);
}

void JaInductor::commit(const EvalContext& ctx, std::span<const double> x) {
  const double i = x[ctx.node_count + first_branch()];
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];

  armed_ = false;  // a pending arming must never outlive its iteration
  core_.commit(geometry_.field_from_current(i), ctx.dc);
  lambda_prev_ = geometry_.linkage_from_b(model().flux_density());
  i_prev_ = i;
  v_prev_ = va - vb;
}

}  // namespace ferro::ckt
