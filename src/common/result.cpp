#include "common/result.h"

namespace ddbs {

const char* to_string(Code c) {
  switch (c) {
    case Code::kOk: return "ok";
    case Code::kSessionMismatch: return "session-mismatch";
    case Code::kSiteNotOperational: return "site-not-operational";
    case Code::kUnreadable: return "unreadable";
    case Code::kLockTimeout: return "lock-timeout";
    case Code::kDeadlockVictim: return "deadlock-victim";
    case Code::kAborted: return "aborted";
    case Code::kTimeout: return "timeout";
    case Code::kNoCopyAvailable: return "no-copy-available";
    case Code::kTotallyFailed: return "totally-failed";
    case Code::kConflict: return "conflict";
    case Code::kRejected: return "rejected";
    case Code::kNotFound: return "not-found";
    case Code::kBusy: return "busy";
  }
  return "?";
}

} // namespace ddbs
