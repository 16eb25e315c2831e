// Fundamental identifier and value types shared by every module.
//
// Terminology follows the paper (Bhargava & Ruan 1986):
//   - a *logical data item* X is replicated as *physical copies* x_k,
//     one per resident site k;
//   - as[k] is site k's *actual session number*, NS[k] the replicated
//     *nominal session number* data item.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>
#include <vector>

namespace ddbs {

using SiteId = int32_t;      // 0-based site index; kInvalidSite when absent
using ItemId = int64_t;      // logical data item identifier
using TxnId = uint64_t;      // globally unique transaction identifier
using SessionNum = uint64_t; // 0 == "not operational" (paper's convention)
using Value = int64_t;       // data items hold integers (sufficient for study)
using SimTime = int64_t;     // simulated microseconds since start
using SpanId = uint64_t;     // causal span identifier; 0 == "no span"

inline constexpr SiteId kInvalidSite = -1;
inline constexpr SimTime kNoTime = std::numeric_limits<SimTime>::min();

// ItemId layout. Regular items occupy [0, kNsBase). The nominal session
// vector NS[k] and the per-site status tables (missing list / fail-lock
// table) are addressed as items too, so that they flow through the same
// lock manager and commit protocol, exactly as the paper prescribes
// ("elements of the ML can be seen as data items augmented to the
// database ... access should be under concurrency control").
inline constexpr ItemId kNsBase = 1'000'000'000;     // NS[k] = kNsBase + k
inline constexpr ItemId kStatusBase = 2'000'000'000; // status table of site k

constexpr ItemId ns_item(SiteId k) { return kNsBase + k; }
constexpr ItemId status_item(SiteId k) { return kStatusBase + k; }
constexpr bool is_ns_item(ItemId x) { return x >= kNsBase && x < kStatusBase; }
constexpr bool is_status_item(ItemId x) { return x >= kStatusBase; }
constexpr bool is_data_item(ItemId x) { return x >= 0 && x < kNsBase; }
constexpr SiteId ns_site(ItemId x) { return static_cast<SiteId>(x - kNsBase); }
constexpr SiteId status_site(ItemId x) {
  return static_cast<SiteId>(x - kStatusBase);
}

// Version tag of a physical copy. Writers of the same logical item are
// serialized by strict 2PL; the coordinator assigns
//   counter = 1 + max(counter at every prepared copy)
// so all copies written by one transaction carry an identical tag and the
// tags of successive writers are strictly increasing (a per-item Lamport
// counter -- no global clock involved). `writer` breaks ties and lets the
// verifier resolve read-from edges.
struct Version {
  uint64_t counter = 0;
  TxnId writer = 0; // 0 == initial database state

  friend auto operator<=>(const Version&, const Version&) = default;
};

// The kinds of transactions the paper distinguishes (Section 3).
enum class TxnKind : uint8_t {
  kUser,        // ordinary transaction under the ROWAA convention
  kCopier,      // refreshes one unreadable physical copy (Section 3.2)
  kControlUp,   // type-1 control txn: "site k is nominally up"
  kControlDown, // type-2 control txn: "site(s) d are nominally down"
};

// Control transactions "can be processed by recovering sites as well"
// (Section 3.3): the DM serves them without the session check.
inline bool is_control(TxnKind k) {
  return k == TxnKind::kControlUp || k == TxnKind::kControlDown;
}

const char* to_string(TxnKind k);

// Nominal session vector as seen by one transaction (its frozen view).
using SessionVector = std::vector<SessionNum>;

std::string to_string(const SessionVector& v);

} // namespace ddbs
