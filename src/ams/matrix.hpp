// Small dense linear algebra: the MNA engine only ever factors matrices of
// a few dozen rows, so a cache-friendly dense LU with partial pivoting is
// the right tool (this mirrors what compact AMS/SPICE kernels do before
// sparse techniques pay off).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ferro::ams {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  void fill(double value);
  void resize(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// In-place LU factorisation with partial pivoting.
///
/// After a successful factor(), solve() may be called any number of times.
/// singular() reports a (numerically) singular pivot.
class LuSolver {
 public:
  /// Factors a copy of `a` (must be square).
  bool factor(const Matrix& a);

  /// Solves A x = b into `x` (sizes n). Returns false if not factored or
  /// singular.
  bool solve(std::span<const double> b, std::span<double> x) const;

  [[nodiscard]] bool singular() const { return singular_; }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> pivot_;
  std::size_t n_ = 0;
  bool factored_ = false;
  bool singular_ = false;
};

}  // namespace ferro::ams
