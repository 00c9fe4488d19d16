// Event-driven simulation kernel with SystemC-style delta cycles.
//
// The substitution for the paper's OSCI SystemC 2.0.1 runtime: it
// implements exactly the semantics the published model relies on —
//   * Signal<T>: write() stores a next-value; the value becomes visible at
//     the following delta cycle; a genuine value change wakes the processes
//     registered as sensitive to the signal;
//   * processes: plain callbacks with static sensitivity, run in the
//     evaluate phase; all requested signal updates are applied together in
//     the update phase.
// The model runs timeless: a testbench writes one input sample, settles its
// delta cycles and reads the outputs, so simulated time never advances and
// the kernel keeps none.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ferro::hdl {

class Kernel;

using ProcessId = std::size_t;
using ProcessFn = std::function<void()>;

/// Base of all signals: typed behaviour lives in Signal<T> (signal.hpp).
class SignalBase {
 public:
  SignalBase(Kernel& kernel, std::string name);
  virtual ~SignalBase() = default;

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Registers `pid` to be woken on value changes.
  void add_listener(ProcessId pid);

 protected:
  /// Moves next-value into current-value; true if the value changed.
  [[nodiscard]] virtual bool apply_update() = 0;

  Kernel& kernel_;
  std::string name_;
  std::vector<ProcessId> listeners_;
  bool update_pending_ = false;

  friend class Kernel;
};

/// Aggregate activity counters (SUB1 bench observables).
struct KernelStats {
  std::uint64_t delta_cycles = 0;
  std::uint64_t process_activations = 0;
  std::uint64_t signal_updates = 0;
};

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Registers a process; it does not run until triggered or a sensitive
  /// signal changes.
  ProcessId register_process(std::string name, ProcessFn fn);

  /// Static sensitivity: wake `pid` whenever `signal` changes value.
  void make_sensitive(ProcessId pid, SignalBase& signal);

  /// Queues `pid` to run in the next delta cycle of the current time.
  void trigger(ProcessId pid);

  /// Called by Signal<T>::write — defers the value change to the update
  /// phase of the current delta cycle.
  void request_update(SignalBase& signal);

  /// Runs delta cycles at the current time until no process is runnable.
  /// Returns the number of delta cycles executed. Throws std::runtime_error
  /// once `max_deltas` cycles have run without settling — a combinational
  /// oscillation guard (run_scenario reports it as kSolverDiverged).
  std::size_t settle(std::size_t max_deltas = 1'000'000);

  [[nodiscard]] const KernelStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& process_name(ProcessId pid) const;

 private:
  void run_one_delta();

  struct Process {
    std::string name;
    ProcessFn fn;
    bool queued = false;
  };

  std::vector<Process> processes_;
  std::vector<ProcessId> runnable_;
  std::vector<SignalBase*> update_queue_;
  KernelStats stats_{};
};

}  // namespace ferro::hdl
