#include "core/cancel.hpp"

#include <cstdint>
#include <limits>
#include <string>

namespace ferro::core {

RunGate::RunGate(const RunLimits& limits)
    : cancel_(limits.cancel), max_errors_(limits.max_errors) {
  if (limits.deadline_s > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(limits.deadline_s));
  }
}

bool RunGate::stopped() const {
  if (stop_cause_.load(std::memory_order_acquire) !=
      static_cast<std::uint8_t>(Cause::kNone)) {
    return true;
  }
  Cause cause = Cause::kNone;
  if (cancel_.cancelled()) {
    cause = Cause::kCancelToken;
  } else if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    cause = Cause::kDeadline;
  } else if (max_errors_ != 0 &&
             failures_.load(std::memory_order_relaxed) >= max_errors_) {
    cause = Cause::kErrorBudget;
  }
  if (cause == Cause::kNone) return false;
  // Latch the first cause observed; a concurrent poller that saw a different
  // cause first wins the exchange and ours is discarded — either way every
  // later stop_error() agrees.
  std::uint8_t expected = static_cast<std::uint8_t>(Cause::kNone);
  stop_cause_.compare_exchange_strong(expected,
                                      static_cast<std::uint8_t>(cause),
                                      std::memory_order_acq_rel);
  return true;
}

Error RunGate::stop_error() const {
  switch (static_cast<Cause>(stop_cause_.load(std::memory_order_acquire))) {
    case Cause::kCancelToken:
      return {ErrorCode::kCancelled, "cancellation requested"};
    case Cause::kDeadline:
      return {ErrorCode::kDeadlineExceeded, "batch deadline expired"};
    case Cause::kErrorBudget:
      return {ErrorCode::kCancelled,
              "error budget exhausted (max_errors=" +
                  std::to_string(max_errors_) + ")"};
    case Cause::kNone:
      break;
  }
  return {};
}

double RunGate::remaining_seconds() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  const auto left = deadline_ - std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(left).count();
  // Never return a non-positive remainder: RunLimits encodes "no deadline"
  // as 0, and a caller forwarding the remainder to a nested batch relies on
  // the nested gate (not the encoding) to call time on an expired budget.
  return s > 1e-9 ? s : 1e-9;
}

void RunGate::count_verdict(const Error& verdict) {
  if (verdict.code == ErrorCode::kCancelled ||
      verdict.code == ErrorCode::kDeadlineExceeded) {
    count_cancelled();
  } else if (!verdict.ok()) {
    count_failure();
  }
}

void RunGate::fill(BatchReport& report) const {
  report.failed = failures();
  report.cancelled = cancelled();
  report.quarantined = quarantined();
  report.stop = stopped() ? stop_error() : Error{};
}

}  // namespace ferro::core
