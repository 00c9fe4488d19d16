// The paper's SystemC model, reproduced process-for-process on the event
// kernel: core() / monitorH() / Integral() communicating through signals
// with delta-cycle semantics.
//
// Two deliberate adaptations of the published listing:
//   * `trig` is an event counter instead of the constant 1 (writing 1 twice
//     to a change-triggered signal would only fire once);
//   * Integral() toggles a `refresh` signal that core() is sensitive to, so
//     the published magnetisation already includes the event's dm. The raw
//     listing republishes one field sample late; the arithmetic sequence is
//     otherwise identical (see TimelessJa::apply, which this module matches
//     bit-for-bit).
#pragma once

#include "hdl/module.hpp"
#include "hdl/signal.hpp"
#include "mag/anhysteretic.hpp"
#include "mag/bh.hpp"
#include "mag/ja_params.hpp"
#include "mag/timeless_ja.hpp"
#include "wave/sweep.hpp"

namespace ferro::core {

/// The JA hysteresis module of the paper's Section 3 listing.
class JaCoreModule final : public hdl::Module {
 public:
  JaCoreModule(hdl::Kernel& kernel, std::string name,
               const mag::JaParameters& params, double dhmax);

  /// Applied field input [A/m] — written by the testbench driver.
  hdl::Signal<double> H;
  /// Normalised total magnetisation output (the listing's Msig).
  hdl::Signal<double> Msig;
  /// Flux density output [T] (the listing's Bsig).
  hdl::Signal<double> Bsig;

  [[nodiscard]] const mag::JaParameters& params() const { return params_; }
  [[nodiscard]] double m_irr() const { return mirr_; }

  /// Discretisation counters, mirroring TimelessJa's: field events and
  /// integration steps counted where Integral() fires, the clamp counters
  /// where its guards trigger (denominator-zero and negative-slope both
  /// land in slope_clamps, like the scalar model). `samples` is the
  /// testbench's to count — the module cannot tell a field write from a
  /// refresh republish, so run_systemc_sweep records one sample per sweep
  /// entry it applies.
  [[nodiscard]] const mag::TimelessStats& stats() const { return stats_; }

  /// True when `config`'s clamp flags describe exactly what Integral()
  /// hard-codes (the listing's "assure positive derivative" slope clamp and
  /// the dm*dh rejection, both always on). Other executors — BatchRunner's
  /// SoA packing — may reproduce the network's arithmetic without running
  /// it only for such configs; defined here so a change to the process
  /// body and this predicate stay on the same screen.
  [[nodiscard]] static bool clamps_match(const mag::TimelessConfig& config);

 private:
  void core();       ///< anhysteretic + reversible + publish (listing: core)
  void monitor_h();  ///< field-event detection (listing: monitorH)
  void integral();   ///< Forward-Euler slope integration (listing: Integral)

  mag::JaParameters params_;
  mag::Anhysteretic anhysteretic_;
  double dhmax_;
  double c_over_1pc_;
  double alpha_ms_;
  double one_pc_k_;         ///< (1+c)*k — must round exactly like TimelessJa
  double one_pc_alpha_ms_;  ///< (1+c)*alpha*Ms — ditto

  // Internal event signals.
  hdl::Signal<bool> hchanged_;
  hdl::Signal<int> trig_;
  hdl::Signal<int> refresh_;

  mag::TimelessStats stats_;

  // Plain members, exactly like the listing's member variables.
  double lasth_ = 0.0;
  double deltah_ = 0.0;
  double mirr_ = 0.0;
  double mtotal_ = 0.0;
  double man_ = 0.0;
  int trig_count_ = 0;
  int refresh_count_ = 0;
};

/// Result of driving the module through a timeless sweep.
struct SystemCSweepResult {
  mag::BhCurve curve;
  hdl::KernelStats kernel_stats;
  /// The module's discretisation counters plus one sample per sweep entry;
  /// for configs within the network's clamp subset these match TimelessJa's
  /// counters exactly (the frontend-parity property extends to the stats).
  mag::TimelessStats stats;
};

/// Builds a kernel + JaCoreModule, applies each sweep sample (settling all
/// delta cycles in between, i.e. a pure timeless run), and records the
/// published (H, M, B).
[[nodiscard]] SystemCSweepResult run_systemc_sweep(
    const mag::JaParameters& params, double dhmax, const wave::HSweep& sweep);

}  // namespace ferro::core
