// core::Error — the structured failure taxonomy of the batch engine.
//
// Every failure that used to travel as a free-form `std::string error`
// (ScenarioResult, TrajectoryJob, StreamSummary) now carries a machine-
// branchable code plus the human-readable detail. Callers switch on the
// code; the detail is for logs and terminals only and is never part of any
// behavioural contract.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace ferro::core {

enum class ErrorCode {
  kOk = 0,            ///< no failure (Error{} is "success")
  kInvalidScenario,   ///< rejected by validate(): bad params/config/drive
  kSolverDiverged,    ///< a frontend or trajectory solver failed or threw
  kNonFinite,         ///< NaN/Inf in the produced curve (quarantine verdict)
  kBracketFailure,    ///< an inverse (flux-driven) solve failed to bracket
  kSinkError,         ///< a ResultSink callback threw
  kCancelled,         ///< CancelToken fired or the error budget tripped
  kDeadlineExceeded,  ///< the RunLimits deadline expired
  kInternal,          ///< engine-side failure (allocation, injected fault)
};

[[nodiscard]] constexpr std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidScenario: return "invalid-scenario";
    case ErrorCode::kSolverDiverged: return "solver-diverged";
    case ErrorCode::kNonFinite: return "non-finite";
    case ErrorCode::kBracketFailure: return "bracket-failure";
    case ErrorCode::kSinkError: return "sink-error";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

/// A failure: branch on `code`, print `detail`. Default-constructed Error is
/// success, so result structs embed one without an optional wrapper.
struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kOk; }

  /// "code: detail" for terminals; "ok" on success.
  [[nodiscard]] std::string message() const {
    if (ok()) return "ok";
    std::string out(to_string(code));
    if (!detail.empty()) {
      out += ": ";
      out += detail;
    }
    return out;
  }

  friend bool operator==(const Error&, const Error&) = default;
};

/// Shorthand for error sites: Error{code, detail} with the enum spelled once.
[[nodiscard]] inline Error make_error(ErrorCode code, std::string detail) {
  return Error{code, std::move(detail)};
}

/// gtest prints `result.error` in assertion messages via this.
inline std::ostream& operator<<(std::ostream& os, const Error& e) {
  return os << e.message();
}

}  // namespace ferro::core
