// BatchRunner — fan a vector of (model, excitation, frontend) scenarios
// across a persistent thread pool, either collecting BH
// curves plus loop metrics in deterministic job order or streaming them to
// a ResultSink while workers are still computing. One entry-point family:
// run(scenarios[, sink], RunOptions{packing, limits, stream}).
//
// Each scenario is an independent simulation (the frontends share no mutable
// state): result index i always corresponds to scenarios[i], and the payload
// is bitwise identical whatever the thread count. Under Packing::kExact (the
// default) it is bitwise run_scenario(scenarios[i]) — curve, metrics, stats
// and error — which stays the fallback unit and the oracle. Failures
// (invalid parameters, a throwing solver) are captured per job as
// structured core::Error codes instead of aborting the batch.
//
// Fault tolerance (core/cancel.hpp): every run variant accepts RunLimits —
// a shared CancelToken, a wall-clock deadline, and an error budget. The
// limits are polled per work unit; when one fires the batch drains
// gracefully: in-flight units finish, every unfinished scenario is emitted
// with a kCancelled/kDeadlineExceeded result, streaming sinks still receive
// every index exactly once and then on_complete(). Packed lanes get a
// non-finite guardrail on top: a lane whose curve came back NaN/Inf is
// quarantined and retried once through run_scenario, so FastMath garbage
// demotes to a per-scenario kNonFinite error (or a clean exact result),
// never a poisoned "success".
//
// Every run plans and packs (core/frontend_plan.hpp). Stage 1 routes each
// scenario and, for kAms, collects one JA-free H(t) trajectory solve per
// *distinct* excitation (shared by every material driving it, fanned
// across the pool alongside the other work). Stage 2 executes the routed
// scenarios as SoA lane blocks of one kernel tile (twice the active SIMD
// width), with ragged lanes masked out of their vector groups as they
// finish: JA lanes on mag::TimelessJaBatch, quasi-static energy-based
// lanes on mag::EnergyBasedBatch, kAms lanes as planner-trace rows.
// Scenarios outside the packed executors' bitwise-reproducible subset run
// as per-scenario run_scenario jobs in the same dispatch.
//
// Inputs are read where they are used. What validate_setup() rejects
// falls back, so run_scenario issues the verdict. Each sweep lane block
// scans its sweep lanes' samples and samples its TimeDrive lanes onto the
// uniform grid the frontend itself would use, on the worker, just before
// its kernel reads them; the planner scans kAms sweeps as it synthesises
// their excitation. So under RunLimits::max_errors an invalid scenario is
// booked when the unit holding it runs — a fallback job or a lane block,
// which still finishes its other lanes — not in scenario order up front.
// Each kernel finishes its lanes in its output pass — the loop metrics and
// the non-finite verdict accumulated as the points are recorded
// (analysis::CurveFinish), bitwise what finish_result computes on the
// delivered curve — so no result is walked a second time.
//
// The streaming path runs core::stream_to_sink (core/stream.hpp), the
// streaming driver ckt::MonteCarlo uses too: workers push results into a
// bounded MPSC queue as they finish, one consumer thread drains every
// pending result at once and drives the sink serially, and a slow sink
// backpressures the workers instead of buffering unboundedly. Results ARRIVE
// in scheduling order but each carries its scenario index; wrap the sink in
// OrderedSink (core/result_sink.hpp) to recover exactly the collecting
// order. A sink callback that throws does not tear down the pool: the batch
// drains, that one delivery is discarded, later results are still offered,
// and the first error (plus counters) lands in the returned StreamSummary.
// A streaming run reuses the curve storage of every delivered result the
// sink did not keep: the next lane block records into pages that are
// already mapped instead of faulting fresh ones in. Its memory is bounded
// by the lane blocks in flight and the queue, not by the batch.
//
// The schedule: one unit list, built in dispatch_packed and run by serial
// and parallel runs alike, in the order the pool starts it (index order,
// core/thread_pool.hpp): fallback jobs first, so no whole serial frontend
// (a unit with no bound on its run time) starts last and holds the batch
// open alone, then kAms trace blocks, energy blocks and JA sweep blocks,
// each kind's lanes sorted longest first (ties in scenario order), so the
// batch ends on its shortest blocks. The order is a measured throughput
// choice (README, "Persistent pool"); no result depends on it.
//
// The runner owns one pool for its lifetime, shared by every run variant;
// the pool starts its threads with its first parallel batch, so sweeping
// many batches through one runner pays thread start-up exactly once.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/cancel.hpp"
#include "core/error.hpp"
#include "core/result_sink.hpp"
#include "core/scenario.hpp"
#include "core/thread_pool.hpp"
#include "mag/timeless_ja_batch.hpp"

namespace ferro::core {

struct BatchOptions {
  /// Worker count (core::resolve_workers): 0 picks
  /// std::thread::hardware_concurrency(); 1 runs every job serially in the
  /// calling thread (no threads spawned).
  unsigned threads = 0;
};

/// The arithmetic of the packed JA lanes.
enum class Packing {
  /// Exact math — results (curve, metrics, stats) are bitwise
  /// run_scenario's for every scenario, packable or not.
  kExact,
  /// The polynomial FastMath JA lanes (bounded error, faster). Energy-based
  /// lanes and fallback jobs have no approximate path and execute exactly
  /// under either packing.
  kFast,
};

/// The packing a mag::BatchMath selection maps onto.
[[nodiscard]] constexpr Packing packing_for(mag::BatchMath math) {
  return math == mag::BatchMath::kFast ? Packing::kFast : Packing::kExact;
}

struct StreamOptions {
  /// Bound of the worker→sink queue, in results; the consumer may hold one
  /// more drained batch of at most this many. 0 picks the default,
  /// BatchRunner::lane_block() plus twice the worker count: a packed lane
  /// block emits its results back to back, so the queue holds one block's
  /// burst plus the slack that keeps workers from stalling on a prompt
  /// sink, and a slow sink still caps memory quickly.
  std::size_t queue_capacity = 0;
};

/// Everything one batch execution can be configured with: pick a Packing,
/// attach RunLimits, and — for the streaming overload — size the queue.
struct RunOptions {
  Packing packing = Packing::kExact;
  /// Fault-tolerance limits: shared CancelToken, wall-clock deadline, error
  /// budget. Default = run to completion.
  RunLimits limits{};
  /// Streaming-only knobs; the collecting overload ignores them.
  StreamOptions stream{};
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Runs every scenario and returns results in scenario order and length
  /// whatever the options: unfinished scenarios hold their kCancelled/
  /// kDeadlineExceeded verdicts, and `report` (optional) receives the
  /// counters and stop cause.
  ///
  /// Routable scenarios (core/frontend_plan.hpp) are packed into each
  /// model's SoA lane blocks — mag::TimelessJaBatch for JA lanes (all three
  /// frontends qualify: kDirect and clamp-matching kSystemC sweeps and time
  /// drives without sub-stepping, and every non-empty kAms drive), and
  /// mag::EnergyBasedBatch for quasi-static energy lanes — while the rest
  /// run as run_scenario jobs. kAms planning solves the JA-free H(t) ODE
  /// once per distinct excitation and replays each material over the shared
  /// trajectory as a planner-trace lane. With Packing::kExact every result
  /// — curve, metrics, AND stats — is bitwise run_scenario's (the
  /// frontend-parity property licenses the kSystemC routing; the trace
  /// expansion of TimelessJa::apply licenses kAms; the shared play update
  /// licenses the energy lanes); kFast opts the JA lanes into the
  /// polynomial FastMath path (bounded error, faster).
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<Scenario>& scenarios, const RunOptions& options = {},
      BatchReport* report = nullptr) const;

  /// Streaming twin: delivers every scenario's result to `sink` as it
  /// completes (see the header comment and ResultSink for the full
  /// contract). The payload delivered for scenario i is bitwise identical
  /// to the collecting overload's [i] under the same options; only the
  /// arrival order is scheduling-dependent. Blocks until the batch has
  /// drained and on_complete returned.
  StreamSummary run(const std::vector<Scenario>& scenarios, ResultSink& sink,
                    const RunOptions& options = {}) const;

  /// Lanes per packed block: one kernel tile, twice the active SIMD width,
  /// at every thread count — a worker holds one tile of curves at a time.
  [[nodiscard]] static std::size_t lane_block();

  /// The worker→sink queue bound a streaming run() of `n_jobs` scenarios
  /// uses: `stream.queue_capacity`, or lane_block() + 2 × workers when 0.
  [[nodiscard]] std::size_t queue_capacity(const StreamOptions& stream,
                                           std::size_t n_jobs) const;

  /// The worker count `run` would use for `n_jobs` jobs
  /// (core::resolve_workers of options().threads).
  [[nodiscard]] unsigned resolved_threads(std::size_t n_jobs) const {
    return resolve_workers(options_.threads, n_jobs);
  }

  [[nodiscard]] const BatchOptions& options() const { return options_; }

 private:
  /// Thread-safe result hand-off: slot writes for the collect paths, queue
  /// pushes for the streaming paths. Receives each scenario index exactly
  /// once; callers on the parallel path must tolerate concurrent invocation.
  using EmitFn = std::function<void(std::size_t, ScenarioResult&&)>;

  /// The curve storage a streaming run's sink handed back, for the packed
  /// lane blocks to record into (defined in batch_runner.cpp).
  class CurveRecycler;

  /// The dispatch both run() overloads call: SoA lane blocks fused with
  /// per-scenario fallback jobs. `gate` is polled per work unit (fallback
  /// job / lane block / trajectory solve); the lane blocks take their
  /// storage from `recycled`.
  void dispatch_packed(const std::vector<Scenario>& scenarios,
                       Packing packing, const EmitFn& emit, RunGate& gate,
                       CurveRecycler& recycled) const;

  BatchOptions options_;
  /// Sized from options().threads (0 = hardware concurrency), independent
  /// of any one batch's job count.
  mutable ThreadPool pool_;
};

}  // namespace ferro::core
