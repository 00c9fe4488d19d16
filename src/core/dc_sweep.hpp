// Timeless DC sweep driver — "a triangular waveform is used in a DC sweep,
// i.e. timeless simulations" (paper, Sec. 3).
#pragma once

#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"

namespace ferro::core {

struct DcSweepResult {
  mag::BhCurve curve;
  mag::TimelessStats stats;
};

/// Runs a fresh TimelessJa through `sweep`, recording every sample.
[[nodiscard]] DcSweepResult run_dc_sweep(const mag::JaParameters& params,
                                         const mag::TimelessConfig& config,
                                         const wave::HSweep& sweep);

/// The paper's Fig. 1 excitation: a decaying triangular DC sweep producing
/// the major loop plus nested non-biased minor loops.
/// Amplitudes: 10, 7.5, 5, 2.5 kA/m; `step` is the sample spacing [A/m].
[[nodiscard]] wave::HSweep fig1_sweep(double step = 10.0);

/// The Fig. 1 amplitudes, exposed for benches that report per-loop metrics.
[[nodiscard]] const std::vector<double>& fig1_amplitudes();

}  // namespace ferro::core
