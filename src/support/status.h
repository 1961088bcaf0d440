// Typed recoverable errors for data-dependent exhaustion.
//
// The require.h taxonomy covers conditions that indicate a *broken program*:
// PreconditionError (caller handed the library garbage) and InternalError
// (the library's own invariants failed). Both are std::logic_error — callers
// are not expected to recover, and the repo's tests treat them as fatal.
//
// Data-dependent exhaustion is different. A hash table can fill up, a
// key-dependent probe cycle can saturate while free slots remain (see the
// gcd note in hashing/open_table.h), a capped buffer pool can run dry —
// all on well-formed input, purely as a function of the data. The ROADMAP's
// production north-star requires these states to return to the caller for
// graceful degradation (grow, rehash, drain, shed load) instead of
// unwinding the whole batch. This header gives them a first-class type:
//
//   * StatusCode / Status — value-style reporting for the try_* entry
//     points (no unwinding at all on the failure path);
//   * RecoverableError — an exception carrying a StatusCode, thrown by the
//     legacy throwing wrappers. It derives from std::runtime_error, NOT
//     std::logic_error, so `catch (const std::logic_error&)` audits keep
//     meaning "bug", and recovery loops can catch exactly the recoverable
//     class.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace folvec {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// Every slot of the container is occupied; recover by growing.
  kTableFull,
  /// A key's probe sequence exhausted its cycle while free slots remain
  /// outside it (composite table size, gcd(step, size) > 1 — see
  /// hashing/open_table.h), or fault injection forced the condition.
  /// Recover by growing to a size whose probe cycles cover the table.
  kProbeCycleSaturated,
  /// A capped BufferPool could not serve an acquire within its word limit.
  kPoolExhausted,
  /// Catch-all for wrapped non-recoverable failures.
  kInternal,
};

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kTableFull:
      return "TableFull";
    case StatusCode::kProbeCycleSaturated:
      return "ProbeCycleSaturated";
    case StatusCode::kPoolExhausted:
      return "PoolExhausted";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

/// Value-style result of a try_* operation: a code plus a human-readable
/// message (empty for kOk). Statuses are cheap to copy and never unwind.
class Status {
 public:
  Status() = default;  // kOk
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string to_string() const {
    if (is_ok()) return "Ok";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception form of a non-ok Status, thrown by the legacy throwing entry
/// points whose signatures predate the try_* APIs. Recovery loops catch
/// this type (and only this type): PreconditionError / InternalError remain
/// std::logic_error and still mean "bug, do not retry".
class RecoverableError : public std::runtime_error {
 public:
  RecoverableError(StatusCode code, const std::string& message)
      : std::runtime_error(std::string(status_code_name(code)) + ": " +
                           message),
        code_(code),
        status_(code, message) {}

  StatusCode code() const { return code_; }
  const Status& status() const { return status_; }

 private:
  StatusCode code_;
  Status status_;
};

}  // namespace folvec
