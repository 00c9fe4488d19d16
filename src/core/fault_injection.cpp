#include "core/fault_injection.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

namespace ferro::core {
namespace {

struct SiteState {
  std::mutex mutex;
  std::optional<FaultInjector::Arm> arm;
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

std::array<SiteState, kFaultSiteCount>& sites() {
  static std::array<SiteState, kFaultSiteCount> states;
  return states;
}

SiteState& site_state(FaultSite site) {
  return sites()[static_cast<std::size_t>(site)];
}

constexpr const char* site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kSinkDeliver: return "sink-deliver";
    case FaultSite::kQueuePush: return "queue-push";
    case FaultSite::kLaneCompute: return "lane-compute";
    case FaultSite::kTrajectorySolve: return "trajectory-solve";
  }
  return "unknown";
}

}  // namespace

void FaultInjector::arm(FaultSite site, Arm arm) {
  SiteState& s = site_state(site);
  std::lock_guard<std::mutex> lk(s.mutex);
  s.arm = arm;
  s.hits = 0;
  s.fired = 0;
}

void FaultInjector::reset() {
  for (SiteState& s : sites()) {
    std::lock_guard<std::mutex> lk(s.mutex);
    s.arm.reset();
    s.hits = 0;
    s.fired = 0;
  }
}

std::uint64_t FaultInjector::hits(FaultSite site) {
  SiteState& s = site_state(site);
  std::lock_guard<std::mutex> lk(s.mutex);
  return s.hits;
}

bool FaultInjector::fire(FaultSite site) {
  SiteState& s = site_state(site);
  FaultAction action;
  int stall_ms = 0;
  {
    std::lock_guard<std::mutex> lk(s.mutex);
    ++s.hits;
    if (!s.arm || s.fired >= s.arm->count || s.hits < s.arm->nth) return false;
    ++s.fired;
    action = s.arm->action;
    stall_ms = s.arm->stall_ms;
  }
  // Act outside the lock: a stall must not serialise unrelated sites, and a
  // throw must not unwind with the mutex held.
  switch (action) {
    case FaultAction::kThrow:
      throw InjectedFault(std::string("injected fault at ") + site_name(site));
    case FaultAction::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      return false;
    case FaultAction::kPoison:
      return true;
  }
  return false;
}

}  // namespace ferro::core
