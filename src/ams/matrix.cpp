#include "ams/matrix.hpp"

#include <cassert>
#include <cmath>

namespace ferro::ams {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::fill(double value) {
  for (double& v : data_) v = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

bool LuSolver::factor(const Matrix& a) {
  assert(a.rows() == a.cols());
  n_ = a.rows();
  lu_ = a;
  pivot_.resize(n_);
  factored_ = false;
  singular_ = false;

  for (std::size_t i = 0; i < n_; ++i) pivot_[i] = i;

  for (std::size_t col = 0; col < n_; ++col) {
    // Partial pivot: find the largest magnitude in this column at/below the
    // diagonal.
    std::size_t best = col;
    double best_mag = std::fabs(lu_.at(col, col));
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double mag = std::fabs(lu_.at(r, col));
      if (mag > best_mag) {
        best = r;
        best_mag = mag;
      }
    }
    if (best_mag < 1e-300) {
      singular_ = true;
      return false;
    }
    if (best != col) {
      for (std::size_t c = 0; c < n_; ++c) {
        std::swap(lu_.at(col, c), lu_.at(best, c));
      }
      std::swap(pivot_[col], pivot_[best]);
    }
    const double inv_pivot = 1.0 / lu_.at(col, col);
    for (std::size_t r = col + 1; r < n_; ++r) {
      const double factor = lu_.at(r, col) * inv_pivot;
      lu_.at(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n_; ++c) {
        lu_.at(r, c) -= factor * lu_.at(col, c);
      }
    }
  }
  factored_ = true;
  return true;
}

bool LuSolver::solve(std::span<const double> b, std::span<double> x) const {
  if (!factored_ || singular_) return false;
  assert(b.size() == n_);
  assert(x.size() == n_);

  // Forward substitution with permutation.
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = b[pivot_[r]];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_.at(r, c) * x[c];
    x[r] = acc;
  }
  // Backward substitution.
  for (std::size_t ri = n_; ri-- > 0;) {
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n_; ++c) acc -= lu_.at(ri, c) * x[c];
    x[ri] = acc / lu_.at(ri, ri);
  }
  return true;
}

}  // namespace ferro::ams
