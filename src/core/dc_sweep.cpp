#include "core/dc_sweep.hpp"

namespace ferro::core {

DcSweepResult run_dc_sweep(const mag::JaParameters& params,
                           const mag::TimelessConfig& config,
                           const wave::HSweep& sweep) {
  DcSweepResult result;
  mag::TimelessJa model(params, config);
  result.curve = mag::run_sweep(model, sweep);
  result.stats = model.stats();
  return result;
}

const std::vector<double>& fig1_amplitudes() {
  static const std::vector<double> kAmplitudes = {10000.0, 7500.0, 5000.0,
                                                  2500.0};
  return kAmplitudes;
}

wave::HSweep fig1_sweep(double step) {
  return wave::SweepBuilder(step).decaying_cycles(fig1_amplitudes()).build();
}

}  // namespace ferro::core
