#include "ckt/rlc.hpp"

#include <cassert>

namespace ferro::ckt {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {
  assert(ohms > 0.0);
}

void Resistor::stamp(Stamper& s, const EvalContext&) {
  s.conductance(a_, b_, 1.0 / ohms_);
}

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads,
                     std::optional<double> v_initial)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      farads_(farads),
      ic_(v_initial),
      v_prev_(v_initial.value_or(0.0)) {
  assert(farads > 0.0);
}

void Capacitor::stamp(Stamper& s, const EvalContext& ctx) {
  if (ctx.dc) {
    if (ic_) {
      // Enforce v(a)-v(b) = IC with a stiff Norton pair.
      constexpr double kG0 = 1e6;
      s.conductance(a_, b_, kG0);
      s.current_source(b_, a_, kG0 * *ic_);
    } else {
      // Open circuit at DC; a tiny leak keeps floating nodes solvable.
      s.conductance(a_, b_, 1e-12);
    }
    return;
  }
  // Trapezoidal Norton companion; ieq is its history current.
  const double geq = 2.0 * farads_ / ctx.dt;
  const double ieq = -geq * v_prev_ - i_prev_;
  s.conductance(a_, b_, geq);
  s.current_source(a_, b_, ieq);
}

void Capacitor::commit(const EvalContext& ctx, std::span<const double> x) {
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];
  const double v = va - vb;
  if (!ctx.dc && ctx.dt > 0.0) {
    const double geq = 2.0 * farads_ / ctx.dt;
    i_prev_ = geq * (v - v_prev_) - i_prev_;
  }
  v_prev_ = v;
}

Inductor::Inductor(std::string name, NodeId a, NodeId b, double henries,
                   std::optional<double> i_initial)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      henries_(henries),
      ic_(i_initial),
      i_prev_(i_initial.value_or(0.0)) {
  assert(henries > 0.0);
}

void Inductor::stamp(Stamper& s, const EvalContext& ctx) {
  const std::size_t br = first_branch();
  s.node_branch(a_, br, +1.0);
  s.node_branch(b_, br, -1.0);

  if (ctx.dc) {
    if (ic_) {
      // Forced branch current: i = IC.
      s.branch_branch(br, br, 1.0);
      s.branch_rhs(br, *ic_);
    } else {
      // DC quasi-short: v_a - v_b = r_eps * i. The milliohm keeps the row
      // independent when an ideal source parallels the winding.
      s.branch_node(br, a_, +1.0);
      s.branch_node(br, b_, -1.0);
      s.branch_branch(br, br, -1e-3);
    }
    return;
  }
  s.branch_node(br, a_, +1.0);
  s.branch_node(br, b_, -1.0);
  // Trapezoidal: (v + v_prev)/2 = L (i - i_prev)/dt
  const double req = 2.0 * henries_ / ctx.dt;
  s.branch_branch(br, br, -req);
  s.branch_rhs(br, -req * i_prev_ - v_prev_);
}

void Inductor::commit(const EvalContext& ctx, std::span<const double> x) {
  const double va = a_ == kGround ? 0.0 : x[static_cast<std::size_t>(a_)];
  const double vb = b_ == kGround ? 0.0 : x[static_cast<std::size_t>(b_)];
  i_prev_ = x[ctx.node_count + first_branch()];
  v_prev_ = va - vb;
}

}  // namespace ferro::ckt
