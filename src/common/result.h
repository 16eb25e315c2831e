// Lightweight status/error codes used across the DDBS.
//
// Errors here are *protocol outcomes* (a rejected request, a timeout), not
// programming errors; programming errors are asserted. Following the Core
// Guidelines (E.27-ish for a codebase that must not throw across the
// event-loop boundary) we report outcomes by value.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

namespace ddbs {

enum class Code : uint8_t {
  kOk = 0,
  kSessionMismatch,  // request carried ns[k] != as[k] (paper Section 3.2)
  kSiteNotOperational, // DM/TM refuses user work while as[k] == 0
  kUnreadable,       // copy is marked unreadable; caller may redirect
  kLockTimeout,      // lock wait exceeded bound
  kDeadlockVictim,   // aborted by the wait-for-graph detector
  kAborted,          // transaction aborted (any phase)
  kTimeout,          // message timeout (suspected site failure)
  kNoCopyAvailable,  // no readable copy among nominally-up sites
  kTotallyFailed,    // copier found no readable source copy anywhere
  kConflict,         // control transaction conflicted and was aborted
  kRejected,         // generic refusal (e.g. unknown txn at participant)
  kNotFound,
  kBusy,             // no-wait batch found a lock taken, or a user lock
                     // request would queue behind another waiter
};

const char* to_string(Code c);

struct [[nodiscard]] Status {
  Code code = Code::kOk;

  constexpr bool ok() const { return code == Code::kOk; }
  constexpr explicit operator bool() const { return ok(); }

  static constexpr Status OK() { return Status{Code::kOk}; }
  static constexpr Status Error(Code c) { return Status{c}; }
};

// Minimal expected-like wrapper for protocol results.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {} // NOLINT(implicit)
  Result(Code c) : code_(c) { assert(c != Code::kOk); } // NOLINT(implicit)

  bool ok() const { return code_ == Code::kOk; }
  explicit operator bool() const { return ok(); }
  Code code() const { return code_; }

  const T& value() const {
    assert(ok());
    return value_;
  }
  T& value() {
    assert(ok());
    return value_;
  }

 private:
  T value_{};
  Code code_ = Code::kOk;
};

} // namespace ddbs
