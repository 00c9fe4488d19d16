// ckt::MonteCarlo — tolerance corner sweeps over one circuit topology,
// fanned across core::ThreadPool, with (optionally) lane-wise linear solves.
//
// A sweep is: a CornerSampler (which quantities scatter, under which seed)
// plus a CornerBuilder (how one corner's factors become a Circuit). Each
// corner is an independent transient run; the runner executes them with the
// same discipline the scenario BatchRunner established —
//
//   * deterministic: corner i's result is a pure function of (seed, i) and
//     the transient options. Thread count, chunk size, and scheduling order
//     never touch the bits (property-tested).
//   * fault-isolated: a corner whose builder throws, whose probes don't
//     resolve, or whose Newton iteration collapses reports a structured
//     core::Error in ITS CornerResult; the other corners are unaffected.
//   * bounded: RunLimits (cancel token / deadline / error budget) stop the
//     sweep at step boundaries; unfinished corners are emitted as
//     kCancelled / kDeadlineExceeded markers, every index exactly once.
//   * streaming: the sink overload delivers per-corner results as they
//     finish through core::stream_to_sink, the streaming driver BatchRunner
//     uses too, and returns its core::StreamSummary — a 10k-corner sweep
//     never materialises all waveforms at once (leave record_waveforms off
//     and each corner carries only its probe summaries and stats).
//
// Packing: corners share a topology, so the lockstep group inside one
// chunk steps together, one Newton iteration per live corner per round.
// Each round batches the group's linear solves: each live corner stamps its
// MNA system (TransientMachine::stamp), and the systems are factored and
// solved together by ckt::LaneLu, up to W per vector pass, where W is the
// process-wide SIMD width (mag::TimelessJaBatch::active_simd_width, capped
// by FERRO_FORCE_SIMD_WIDTH); a block with fewer live corners runs at the
// narrowest width that covers them. A lone live corner, and one whose
// unknown count differs from its block's, keep their own ams::LuSolver.
// Every lane is bitwise what LuSolver computes. The JA cores are not
// batched: after a trial step's seed, a core's stamp evaluates it once, on
// its exact tangent (ckt/core_companion.hpp), which SoA trial passes would
// not make cheaper.
//
// So kPackedExact equals kScalar equals a direct ckt::run_transient —
// verified down to the last waveform bit by the tests, at every SIMD width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ckt/engine.hpp"
#include "ckt/netlist.hpp"
#include "ckt/scatter.hpp"
#include "core/cancel.hpp"
#include "core/error.hpp"
#include "core/stream.hpp"

namespace ferro::ckt {

/// How the corners of one lockstep group are stepped.
enum class McPacking {
  kScalar,       ///< one plain run_transient per corner (the reference)
  kPackedExact,  ///< in lockstep, linear solves in LaneLu lanes; bitwise-equal
                 ///< to kScalar
};

[[nodiscard]] std::string_view to_string(McPacking packing);

/// One observable recorded per accepted step of every corner.
struct Probe {
  enum class Kind {
    kNodeVoltage,      ///< target = node name ("0"/"gnd" probe the reference)
    kBranchCurrent,    ///< target = device name (its first branch current)
    kCoreFluxDensity,  ///< target = JaInductor name (committed B) [T]
    kCoreField,        ///< target = JaInductor name (committed H) [A/m]
  };

  Kind kind = Kind::kNodeVoltage;
  std::string target;
};

[[nodiscard]] std::string_view to_string(Probe::Kind kind);

/// Per-corner reduction of one probe over the whole waveform — the metrics
/// a sweep keeps when full waveforms would not fit.
struct ProbeSummary {
  double min = 0.0;
  double max = 0.0;
  double abs_peak = 0.0;    ///< max |value| over the run
  double t_abs_peak = 0.0;  ///< time of the first |value| == abs_peak sample
  double final = 0.0;       ///< value at the last accepted step
};

/// Everything one corner produces. Default-constructed + moved through the
/// streaming queue; self-contained (no references into the runner).
struct CornerResult {
  std::size_t index = 0;
  CornerValues draws;  ///< the factors this corner was built from
  CircuitStats stats;
  std::vector<ProbeSummary> probes;  ///< parallel to MonteCarloOptions::probes

  /// Waveforms, recorded only when MonteCarloOptions::record_waveforms:
  /// t[k] is accepted-step k's time, waveforms[p][k] probe p's value there.
  std::vector<double> t;
  std::vector<std::vector<double>> waveforms;

  /// First structured failure of this corner (see run_transient), plus the
  /// corner-layer cases: a throwing builder or an unresolvable probe target
  /// (both kInvalidScenario).
  core::Error error;

  [[nodiscard]] bool ok() const { return error.ok(); }
};

/// Streaming sink family over CornerResult (the delivery contract of
/// core/stream.hpp: on_start once, every index exactly once in any order,
/// on_complete always, single-threaded calls).
using CornerSink = core::BasicResultSink<CornerResult>;
using CornerOrderedSink = core::BasicOrderedSink<CornerResult>;
using CornerCollectingSink = core::BasicCollectingSink<CornerResult>;

/// Builds one corner's circuit: read scattered values off the view
/// (`view.value("r1.value", 10.0)`), populate the empty `circuit`. Called
/// concurrently for different corners — must not touch shared mutable
/// state. A thrown exception fails that corner only (kInvalidScenario).
using CornerBuilder = std::function<void(const CornerView& view, Circuit& circuit)>;

struct MonteCarloOptions {
  std::size_t corners = 0;
  /// Total workers (core::resolve_workers); 0 = hardware concurrency.
  unsigned threads = 1;
  /// Corners per dispatch chunk — which is also the lockstep SoA group
  /// size, at every thread count. 0 = ThreadPool::default_chunk. Results
  /// never depend on it.
  std::size_t chunk = 0;
  McPacking packing = McPacking::kPackedExact;
  bool record_waveforms = false;
  TransientOptions transient;
  std::vector<Probe> probes;
  core::RunLimits limits;
};

class MonteCarlo {
 public:
  MonteCarlo(CornerSampler sampler, CornerBuilder builder);

  [[nodiscard]] const CornerSampler& sampler() const { return sampler_; }

  /// Collect path: all corner results, indexed by corner. `report` (optional)
  /// receives the batch verdict.
  [[nodiscard]] std::vector<CornerResult> run(
      const MonteCarloOptions& options, core::BatchReport* report = nullptr) const;

  /// Streaming path: results are delivered to `sink` as corners finish
  /// (bounded memory), through core::stream_to_sink. Serial sweeps drive
  /// the sink inline; parallel sweeps hand results to one consumer thread
  /// through a queue of twice the worker count.
  core::StreamSummary run(const MonteCarloOptions& options,
                          CornerSink& sink) const;

 private:
  CornerSampler sampler_;
  CornerBuilder builder_;
};

}  // namespace ferro::ckt
