#include "hdl/kernel.hpp"

#include <stdexcept>

namespace ferro::hdl {

SignalBase::SignalBase(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {}

void SignalBase::add_listener(ProcessId pid) { listeners_.push_back(pid); }

ProcessId Kernel::register_process(std::string name, ProcessFn fn) {
  processes_.push_back({std::move(name), std::move(fn), false});
  return processes_.size() - 1;
}

void Kernel::make_sensitive(ProcessId pid, SignalBase& signal) {
  signal.add_listener(pid);
}

void Kernel::trigger(ProcessId pid) {
  Process& p = processes_.at(pid);
  if (!p.queued) {
    p.queued = true;
    runnable_.push_back(pid);
  }
}

void Kernel::request_update(SignalBase& signal) {
  if (!signal.update_pending_) {
    signal.update_pending_ = true;
    update_queue_.push_back(&signal);
  }
}

const std::string& Kernel::process_name(ProcessId pid) const {
  return processes_.at(pid).name;
}

void Kernel::run_one_delta() {
  ++stats_.delta_cycles;

  // Evaluate phase: run everything runnable right now. Processes triggered
  // during this phase run in the *next* delta (we swap the queue first).
  std::vector<ProcessId> active;
  active.swap(runnable_);
  for (const ProcessId pid : active) {
    processes_[pid].queued = false;
  }
  for (const ProcessId pid : active) {
    ++stats_.process_activations;
    processes_[pid].fn();
  }

  // Update phase: apply deferred signal writes; genuine changes wake the
  // listeners for the next delta.
  std::vector<SignalBase*> updates;
  updates.swap(update_queue_);
  for (SignalBase* sig : updates) {
    sig->update_pending_ = false;
    ++stats_.signal_updates;
    if (sig->apply_update()) {
      for (const ProcessId pid : sig->listeners_) {
        trigger(pid);
      }
    }
  }
}

std::size_t Kernel::settle(std::size_t max_deltas) {
  std::size_t deltas = 0;
  while (!runnable_.empty() || !update_queue_.empty()) {
    if (deltas >= max_deltas) {
      throw std::runtime_error(
          "delta-cycle limit of " + std::to_string(max_deltas) +
          " reached without settling (combinational oscillation?)");
    }
    run_one_delta();
    ++deltas;
  }
  return deltas;
}

}  // namespace ferro::hdl
