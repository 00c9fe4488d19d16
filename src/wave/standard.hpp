// Standard waveform shapes: constant, step, sine, triangular.
#pragma once

#include "wave/waveform.hpp"

namespace ferro::wave {

/// value(t) = level.
class Constant final : public Waveform {
 public:
  explicit Constant(double level) : level_(level) {}
  [[nodiscard]] double value(double) const override { return level_; }
  [[nodiscard]] double derivative(double) const override { return 0.0; }

 private:
  double level_;
};

/// value(t) = before for t < t_step, after for t >= t_step.
class Step final : public Waveform {
 public:
  Step(double before, double after, double t_step)
      : before_(before), after_(after), t_step_(t_step) {}
  [[nodiscard]] double value(double t) const override {
    return t < t_step_ ? before_ : after_;
  }
  [[nodiscard]] double derivative(double) const override { return 0.0; }

 private:
  double before_;
  double after_;
  double t_step_;
};

/// value(t) = offset + amplitude * sin(2*pi*frequency*t + phase).
class Sine final : public Waveform {
 public:
  Sine(double amplitude, double frequency, double phase = 0.0, double offset = 0.0);
  [[nodiscard]] double value(double t) const override;
  [[nodiscard]] double derivative(double t) const override;

 private:
  double amplitude_;
  double omega_;
  double phase_;
  double offset_;
};

/// Symmetric triangle wave. Starts at `offset`, rises to offset+amplitude at
/// T/4, falls to offset-amplitude at 3T/4, returns to offset at T.
/// This is the paper's DC-sweep excitation shape.
class Triangular final : public Waveform {
 public:
  Triangular(double amplitude, double period, double offset = 0.0);
  [[nodiscard]] double value(double t) const override;
  [[nodiscard]] double derivative(double t) const override;

 private:
  double amplitude_;
  double period_;
  double offset_;
};

}  // namespace ferro::wave
