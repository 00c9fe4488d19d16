#include "ckt/lane_lu.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "ckt/lane_lu_kernel.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace ferro::ckt {

namespace detail {

// Baseline width entry points (the ISA-flagged TUs define W4/W8).
namespace {
void lane_lu_w1(const LaneLuArgs& args) {
  lane_lu<mag::fastmath::VecD<1>>(args);
}
#if defined(FERRO_FASTMATH_SIMD)
void lane_lu_w2(const LaneLuArgs& args) {
  lane_lu<mag::fastmath::VecD<2>>(args);
}
#endif
}  // namespace

const LaneLuFn kLaneLuW1 = &lane_lu_w1;
#if defined(FERRO_FASTMATH_SIMD)
const LaneLuFn kLaneLuW2 = &lane_lu_w2;
#else
const LaneLuFn kLaneLuW2 = nullptr;
#endif

}  // namespace detail

std::size_t LaneLu::max_lanes() {
  return static_cast<std::size_t>(mag::TimelessJaBatch::active_simd_width());
}

void LaneLu::reset(std::size_t n, std::size_t lanes) {
  // Narrowest compiled pass covering `lanes`, no wider than the active
  // width: the active width is one the CPU runs, and so is every narrower.
  const struct {
    std::size_t width;
    detail::LaneLuFn fn;
  } passes[] = {{1, detail::kLaneLuW1},
                {2, detail::kLaneLuW2},
                {4, detail::kLaneLuW4},
                {8, detail::kLaneLuW8}};
  const std::size_t cap = max_lanes();
  assert(lanes >= 1 && lanes <= cap);
  const auto* pass = std::find_if(
      std::begin(passes), std::end(passes), [&](const auto& p) {
        return p.fn != nullptr && p.width >= lanes && p.width <= cap;
      });
  assert(pass != std::end(passes));
  width_ = pass->width;
  fn_ = pass->fn;
  n_ = n;

  // load() overwrites every entry of a live lane; idle lanes solve I x = 0.
  a_.resize(n * n * width_);
  b_.resize(n * width_);
  x_.resize(n * width_);
  singular_.resize(width_);
  for (std::size_t lane = lanes; lane < width_; ++lane) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        a_[(r * n + c) * width_ + lane] = r == c ? 1.0 : 0.0;
      }
      b_[r * width_ + lane] = 0.0;
    }
  }
}

void LaneLu::load(std::size_t lane, const ams::Matrix& a,
                  std::span<const double> b) {
  assert(lane < width_ && a.rows() == n_ && a.cols() == n_ && b.size() == n_);
  const std::span<const double> entries = a.data();
  for (std::size_t k = 0; k < n_ * n_; ++k) {
    a_[k * width_ + lane] = entries[k];
  }
  for (std::size_t r = 0; r < n_; ++r) b_[r * width_ + lane] = b[r];
}

void LaneLu::solve() {
  fn_(detail::LaneLuArgs{n_, a_.data(), b_.data(), x_.data(),
                         singular_.data()});
}

void LaneLu::store(std::size_t lane, std::span<double> x) const {
  assert(lane < width_ && x.size() == n_);
  for (std::size_t r = 0; r < n_; ++r) x[r] = x_[r * width_ + lane];
}

}  // namespace ferro::ckt
