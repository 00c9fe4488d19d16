#include "wave/standard.hpp"

#include <cassert>
#include <cmath>

#include "util/constants.hpp"

namespace ferro::wave {

double Waveform::derivative(double t) const {
  // Central difference with a step scaled to |t|; adequate for baselines
  // that only need dH/dt qualitatively (the timeless model never calls this).
  const double h = 1e-7 * (1.0 + std::fabs(t));
  return (value(t + h) - value(t - h)) / (2.0 * h);
}

Sine::Sine(double amplitude, double frequency, double phase, double offset)
    : amplitude_(amplitude),
      omega_(2.0 * util::kPi * frequency),
      phase_(phase),
      offset_(offset) {
  assert(frequency > 0.0);
}

double Sine::value(double t) const {
  return offset_ + amplitude_ * std::sin(omega_ * t + phase_);
}

double Sine::derivative(double t) const {
  return amplitude_ * omega_ * std::cos(omega_ * t + phase_);
}

Triangular::Triangular(double amplitude, double period, double offset)
    : amplitude_(amplitude), period_(period), offset_(offset) {
  assert(period > 0.0);
}

double Triangular::value(double t) const {
  // Phase in [0,1): 0 -> offset, 0.25 -> +A, 0.75 -> -A.
  double phase = std::fmod(t / period_, 1.0);
  if (phase < 0.0) phase += 1.0;
  double unit = 0.0;  // triangle in [-1, 1]
  if (phase < 0.25) {
    unit = 4.0 * phase;
  } else if (phase < 0.75) {
    unit = 2.0 - 4.0 * phase;
  } else {
    unit = 4.0 * phase - 4.0;
  }
  return offset_ + amplitude_ * unit;
}

double Triangular::derivative(double t) const {
  double phase = std::fmod(t / period_, 1.0);
  if (phase < 0.0) phase += 1.0;
  const double slope = 4.0 * amplitude_ / period_;
  return (phase < 0.25 || phase >= 0.75) ? slope : -slope;
}

}  // namespace ferro::wave
