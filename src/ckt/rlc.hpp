// Linear passives: resistor, capacitor, (linear) inductor.
#pragma once

#include <optional>

#include "ckt/device.hpp"

namespace ferro::ckt {

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);
  void stamp(Stamper& s, const EvalContext& ctx) override;

  [[nodiscard]] double resistance() const { return ohms_; }

 private:
  NodeId a_, b_;
  double ohms_;
};

/// Capacitor with a trapezoidal companion model.
///
/// An explicit initial condition (SPICE `IC=`) is enforced during the DC
/// operating point through a stiff Norton equivalent; without one the
/// capacitor is open at DC.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads,
            std::optional<double> v_initial = std::nullopt);
  void stamp(Stamper& s, const EvalContext& ctx) override;
  void commit(const EvalContext& ctx, std::span<const double> x) override;

  [[nodiscard]] double voltage() const { return v_prev_; }

 private:
  NodeId a_, b_;
  double farads_;
  std::optional<double> ic_;
  double v_prev_;
  double i_prev_ = 0.0;
};

/// Linear inductor using a branch-current unknown. DC: exact short, or a
/// forced branch current when an initial condition is given.
class Inductor final : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double henries,
           std::optional<double> i_initial = std::nullopt);
  [[nodiscard]] std::size_t branch_count() const override { return 1; }
  void stamp(Stamper& s, const EvalContext& ctx) override;
  void commit(const EvalContext& ctx, std::span<const double> x) override;

  [[nodiscard]] double current() const { return i_prev_; }

 private:
  NodeId a_, b_;
  double henries_;
  std::optional<double> ic_;
  double i_prev_;
  double v_prev_ = 0.0;
};

}  // namespace ferro::ckt
