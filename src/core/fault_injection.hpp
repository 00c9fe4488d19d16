// Deterministic fault injection for the batch engine's failure paths.
//
// The robustness contracts — every failure drains, reports the right
// ErrorCode, leaks nothing — are only testable if failures can be produced
// on demand at the exact internal sites where they occur in production.
// FaultInjector is a process-global registry of named sites; a test arms a
// site with an action and a hit ordinal, and the engine's instrumented code
// paths call FERRO_FAULT_HIT(site) as they pass:
//
//     FaultInjector::arm(FaultSite::kSinkDeliver, {FaultAction::kThrow,
//                                                  /*nth=*/3});
//     ... run the batch: the 3rd sink delivery throws InjectedFault ...
//
// Actions: kThrow raises InjectedFault from inside the site, kStall sleeps
// (to widen race/cancellation windows), kPoison makes the hook return true
// so sites that own data corrupt it (the lane-compute site NaN-poisons its
// curve, driving the quarantine machinery).
//
// The hooks compile to `false` unless FERRO_FAULT_INJECTION is defined
// (CMake option of the same name, PUBLIC on the ferro target) — release
// builds carry zero overhead, and tests/test_fault_injection.cpp skips
// itself when the instrumentation is absent. Hit counting is deterministic
// per site under a serial batch (threads = 1); parallel batches still fire
// exactly once per armed ordinal, just at a scheduling-dependent site pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace ferro::core {

/// Instrumented sites, one per distinct engine failure path.
enum class FaultSite {
  kSinkDeliver,      ///< stream_to_sink: around each sink on_result
  kQueuePush,        ///< ResultQueue::push (worker -> consumer hand-off)
  kLaneCompute,      ///< packed lane result assembly (per lane)
  kTrajectorySolve,  ///< FrontendPlanSet::solve_trajectory (per job)
};
inline constexpr std::size_t kFaultSiteCount = 4;

enum class FaultAction {
  kThrow,   ///< throw InjectedFault at the site
  kStall,   ///< sleep stall_ms at the site, then continue normally
  kPoison,  ///< hook returns true; the site corrupts its own data
};

/// What injected throws raise — deliberately a std::runtime_error subclass
/// so the engine's ordinary exception capture handles it like any failure.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  struct Arm {
    FaultAction action = FaultAction::kThrow;
    /// Fire on the nth hit of the site (1-based), then every hit until
    /// `count` firings have happened.
    std::uint64_t nth = 1;
    std::uint64_t count = 1;
    int stall_ms = 25;  ///< kStall sleep per firing
  };

  /// Arms `site` (replacing any previous arming). Thread-safe.
  static void arm(FaultSite site, Arm arm);

  /// Disarms every site and zeroes the hit counters. Tests call this in
  /// SetUp/TearDown so armings never leak across test cases.
  static void reset();

  /// Hits observed at `site` since the last reset().
  [[nodiscard]] static std::uint64_t hits(FaultSite site);

  /// The engine-side hook (use FERRO_FAULT_HIT, not this, so uninstrumented
  /// builds compile the call out): counts a hit, performs the armed action
  /// if this hit fires, and returns true iff the action was kPoison.
  static bool fire(FaultSite site);
};

}  // namespace ferro::core

#ifdef FERRO_FAULT_INJECTION
#define FERRO_FAULT_HIT(site) (::ferro::core::FaultInjector::fire(site))
#else
#define FERRO_FAULT_HIT(site) (false)
#endif
