// Device interface and MNA stamping helpers.
//
// The engine runs SPICE-style successive linearisation: each Newton
// iteration rebuilds the MNA matrix from companion models evaluated at the
// present iterate, solves, and repeats until the iterate settles. Devices
// with memory (C, L, cores) keep *committed* state that only advances in
// commit(), so rejected trial steps leave no trace — the same discipline
// TimelessJa::set_state supports for the hysteresis devices.
#pragma once

#include <span>
#include <string>

#include "ams/matrix.hpp"

namespace ferro::ckt {

/// Node handle: >= 0 is a matrix row/column, kGround is the reference.
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Evaluation context for one Newton iteration of one (trial) step.
struct EvalContext {
  double t = 0.0;    ///< target time of the step [s]
  double dt = 0.0;   ///< step size [s]; 0 together with dc==true for DC
  bool dc = false;   ///< DC operating-point analysis
  /// Newton iteration within the trial step. 0 is the seed iterate: for a
  /// transient step of a nonlinear circuit the predicted solution (the last
  /// accepted solution extrapolated along the step before it, see
  /// TransientMachine), otherwise the last accepted solution bit for bit.
  int iteration = 0;
  std::size_t node_count = 0;  ///< unknown layout: nodes first, then branches
  std::span<const double> x;  ///< present iterate: node voltages then branch currents

  [[nodiscard]] double v(NodeId node) const {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] double i(std::size_t branch) const {
    return x[node_count + branch];
  }
};

/// Ground-aware writer into the MNA matrix and right-hand side.
class Stamper {
 public:
  Stamper(ams::Matrix& a, std::span<double> z, std::span<const double> x,
          std::size_t node_count)
      : a_(a), z_(z), x_(x), nodes_(node_count) {}

  /// Two-terminal conductance g between nodes a and b.
  void conductance(NodeId a, NodeId b, double g);

  /// Independent current `i` flowing from node a to node b (through the
  /// device), added to the right-hand side.
  void current_source(NodeId a, NodeId b, double i);

  /// KCL coupling: branch current `branch` enters the KCL row of `node`
  /// with sign `coeff` (+1 = current leaves the node through the branch).
  void node_branch(NodeId node, std::size_t branch, double coeff);

  /// Entry in a branch equation row: coefficient of node voltage.
  void branch_node(std::size_t branch, NodeId node, double coeff);

  /// Entry in a branch equation row: coefficient of a branch current.
  void branch_branch(std::size_t row_branch, std::size_t col_branch, double coeff);

  /// Right-hand side of a branch equation.
  void branch_rhs(std::size_t branch, double value);

  /// Voltage at `node` in the present iterate.
  [[nodiscard]] double v(NodeId node) const {
    return node == kGround ? 0.0 : x_[static_cast<std::size_t>(node)];
  }
  /// Branch current in the present iterate.
  [[nodiscard]] double i(std::size_t branch) const { return x_[nodes_ + branch]; }

 private:
  [[nodiscard]] std::size_t row_of_branch(std::size_t branch) const {
    return nodes_ + branch;
  }

  ams::Matrix& a_;
  std::span<double> z_;
  std::span<const double> x_;
  std::size_t nodes_;
};

/// Base class of every circuit element.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Number of extra branch-current unknowns this device needs.
  [[nodiscard]] virtual std::size_t branch_count() const { return 0; }

  /// Called once by the engine with the first global branch index.
  void assign_branches(std::size_t first) { first_branch_ = first; }
  [[nodiscard]] std::size_t first_branch() const { return first_branch_; }

  /// Adds this device's companion stamps at the context's iterate.
  virtual void stamp(Stamper& s, const EvalContext& ctx) = 0;

  /// Advances committed state after the engine accepts the step.
  virtual void commit(const EvalContext& ctx, std::span<const double> x);

  /// True when the stamps depend on the iterate (forces Newton iteration).
  [[nodiscard]] virtual bool nonlinear() const { return false; }

 private:
  std::string name_;
  std::size_t first_branch_ = 0;
};

}  // namespace ferro::ckt
