// NelderMead — derivative-free simplex descent in ask/tell form.
//
// The classic Nelder-Mead update needs one or two objective values per
// iteration (reflection, then possibly expansion/contraction) plus n values
// after a shrink. Exposing the pending evaluations through ask()/tell()
// instead of a callback lets the fitting layer run independent instances
// in lockstep groups and evaluate *all* of a group's pending points as one
// packed batch per generation — the optimizer never calls the model itself.
//
// Usage:
//   NelderMead nm(x0, 0.1);
//   while (!nm.converged()) {
//     auto points = nm.ask();             // empty once converged
//     nm.tell(evaluate_all(points));      // same order as ask()
//   }
//   use(nm.best(), nm.best_value());
//
// The instance is deterministic: no internal randomness, so identical
// (x0, scale, told values) sequences reproduce bitwise-identical simplices.
#pragma once

#include <cstddef>
#include <vector>

namespace ferro::fit {

struct NelderMeadOptions {
  double reflection = 1.0;
  double expansion = 2.0;
  double contraction = 0.5;
  double shrink = 0.5;
  /// Converged when the simplex value spread is below f_tol (relative to
  /// the best value) AND every vertex is within x_tol of the best vertex.
  double f_tol = 1e-12;
  double x_tol = 1e-9;
};

class NelderMead {
 public:
  /// Starts a simplex at `x0` with edge length `scale` along each axis.
  NelderMead(std::vector<double> x0, double scale,
             NelderMeadOptions options = {});

  /// The points whose objective values the next tell() must supply, in
  /// order. Empty exactly when converged(). Calling ask() repeatedly
  /// without tell() returns the same points.
  [[nodiscard]] std::vector<std::vector<double>> ask() const;

  /// Supplies the objective values for the last ask(), advancing the
  /// simplex. Values must be finite-or-+inf (NaN is treated as +inf so a
  /// failed model evaluation just loses every comparison).
  void tell(const std::vector<double>& values);

  [[nodiscard]] bool converged() const { return stage_ == Stage::kDone; }

  /// Best vertex / value seen so far (valid once the initial simplex has
  /// been told; before that, x0 and +inf).
  [[nodiscard]] const std::vector<double>& best() const;
  [[nodiscard]] double best_value() const;

  /// Re-seeds a fresh simplex of edge `scale` around the current best
  /// vertex, leaving best()/best_value() intact. Used between restarts:
  /// Nelder-Mead simplices collapse along valley floors, and restarting
  /// around the incumbent recovers progress a collapsed simplex cannot.
  void restart(double scale);

  /// Objective values consumed so far (== model evaluations paid).
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }

 private:
  enum class Stage {
    kInit,      ///< awaiting the n+1 initial vertex values
    kReflect,   ///< awaiting the reflected point's value
    kExpand,    ///< awaiting the expanded point's value
    kContract,  ///< awaiting the contracted point's value
    kShrink,    ///< awaiting the n shrunk vertex values
    kDone,
  };

  void seed_simplex(const std::vector<double>& centre, double scale);
  void order_and_maybe_finish();
  [[nodiscard]] std::vector<double> centroid_excluding_worst() const;
  [[nodiscard]] std::vector<double> affine(const std::vector<double>& from,
                                           const std::vector<double>& to,
                                           double t) const;

  std::size_t dim_;
  NelderMeadOptions options_;
  std::vector<std::vector<double>> vertices_;  ///< sorted best-first after tell
  std::vector<double> values_;                 ///< f at vertices_
  Stage stage_ = Stage::kInit;
  std::vector<std::vector<double>> pending_;   ///< what ask() returns
  std::vector<double> reflected_;
  double reflected_value_ = 0.0;
  std::vector<double> best_point_;
  double best_value_;
  std::size_t evaluations_ = 0;
};

}  // namespace ferro::fit
