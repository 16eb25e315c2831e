// Wire messages exchanged between sites. Everything the protocol does --
// physical reads/writes (always a BatchReq), status-table access, two-phase
// commit, cooperative termination, failure-detector pings and the spooler
// baseline -- is one of these payloads inside an Envelope.
#pragma once

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/small_vec.h"
#include "common/types.h"

namespace ddbs {

// ---- physical data operations -------------------------------------------
//
// Every physical read and write rides a BatchReq: all the operations a
// coordinator sends to one destination site in one step share an envelope,
// and a lone operation is a one-op batch. One envelope-level check is
// enough because the session convention (paper Section 3.2) is per-SITE:
// expected_session = ns_i[k] for destination k. The DM skips the check
// for control transactions (by `kind`): they are processable by
// recovering sites (Section 3.3). It still admits each operation
// individually (a planted skip-session-check bug must keep applying to
// writes only) and reports a per-operation code.

enum class BatchOpKind : uint8_t { kRead, kWrite };

// How a read treats a copy marked unreadable (Section 3.2).
enum class ReadMode : uint8_t {
  // Answer kUnreadable; the coordinator may read another copy.
  kReject,
  // A user read under UnreadablePolicy::kBlock waits at the DM until the
  // copy is refreshed -- honoured only when it is the batch's sole op, so
  // a parked read never holds other operations' results hostage.
  kMayPark,
  // Copier resolution pass only: serve the copy even if it is marked
  // (under the normal shared lock). Used when EVERY resident copy of an
  // item is marked -- the max-version copy among them is the latest
  // committed state (see CopierCoordinator::resolve_all_marked).
  kServe,
};

struct BatchOp {
  BatchOpKind op = BatchOpKind::kRead;
  ItemId item = 0;
  // Read fields.
  ReadMode read_mode = ReadMode::kReject;
  // Write fields.
  Value value = 0;
  // Copier writes install the source copy's version instead of bumping the
  // per-item counter, so copies converge on identical tags.
  bool is_copier_write = false;
  Version copier_version;
  // Resident sites skipped because they are nominally down -- the DM
  // records them in its fail-lock table / missing list at commit (paper
  // Section 5).
  SiteVec missed_sites;
  // Every site this logical write targets (this one included); at commit
  // each participant drops missing-list entries (item, j) for j in here,
  // since a whole-item write makes every written copy current.
  SiteVec written_sites;
};

// How a user transaction's batch asks for its locks.
enum class Dispatch : uint8_t {
  // Waits for its locks (copiers, control transactions and every read a
  // user transaction sends alone). A user transaction's data locks wait
  // only behind holders: one that would queue behind another waiter is
  // answered kBusy (DataManager, DESIGN.md §2).
  kDirect,
  // The parallel round: every lock is granted at once or the batch holds
  // nothing and is answered kBusy. It never waits.
  kNoWait,
  // A hop of the ordered chain that follows a busy round: it waits, as a
  // user kDirect batch does.
  kChained,
};

// One later site of a chained dispatch (BatchReq::chain): what the
// coordinator would otherwise have sent there itself.
struct ChainHop {
  SiteId to = kInvalidSite;
  uint64_t rpc_id = 0; // pre-registered at the coordinator
  SessionNum expected_session = 0;
  std::vector<BatchOp> ops;
  SiteVec prepare;
};

struct BatchReq {
  TxnId txn = 0;
  TxnKind kind = TxnKind::kUser;
  Dispatch dispatch = Dispatch::kDirect;
  SiteId coordinator = kInvalidSite;
  SessionNum expected_session = 0;
  std::vector<BatchOp> ops;
  // Early vote: every site the coordinator will prepare, ascending (the
  // PrepareReq::participants it would send), or empty. A listed site whose
  // batch succeeds on every op prepares at once and votes in its BatchResp,
  // which saves the separate prepare round.
  SiteVec prepare;
  // Chained dispatch: the transaction's batches for later sites, last
  // site first, so the next hop is back(). Once this batch holds every
  // lock it needs and the coordinator will not abort on its response, the
  // DM forwards the next hop (carrying the rest) and answers the
  // coordinator directly.
  std::vector<ChainHop> chain;
};

struct BatchOpResult {
  Code code = Code::kOk;
  Value value = 0;   // reads only
  Version version;   // reads only
};

// One staged item's current version counter, as a yes vote reports it.
struct ItemCounter {
  ItemId item = 0;
  uint64_t counter = 0;
};
// A participant stages few items, so the counters of a vote fit inline.
using VoteCounters = SmallVec<ItemCounter, 2>;

struct BatchResp {
  TxnId txn = 0;
  Code code = Code::kOk; // batch-level verdict: kOk iff every op succeeded
  std::vector<BatchOpResult> results;
  // The early vote (BatchReq::prepare): set only when the request listed a
  // prepare set and code is kOk; then it is a PrepareResp's yes vote.
  bool vote_yes = false;
  // With code kBusy: no holder conflicted, only a waiter queued ahead.
  bool busy_queued = false;
  VoteCounters version_counters;
};

// One spooled update held for a down site (spooler baseline, Hammer &
// Shipman style redo). Declared here because the status-table protocol
// doubles as the locked spool handoff in spooler mode.
struct SpoolRecord {
  ItemId item = 0;
  Value value = 0;
  Version version;
};

// ---- status tables (fail-lock / missing-list), paper Section 5 ----------

struct StatusEntry {
  ItemId item = 0;
  SiteId site = kInvalidSite; // the site whose copy missed the update
  friend bool operator==(const StatusEntry&, const StatusEntry&) = default;
};

// X-lock the destination's status item for `recovering_site`, return its
// status entries (or, in spooler mode, its spool records for that site)
// and stage their removal, applied only if the type-1 control transaction
// of `recovering_site` commits. The X lock keeps writers that skip that
// site's copy (which S-lock the same item) from adding entries between
// the read and the commit.
struct StatusTakeReq {
  TxnId txn = 0;
  SiteId coordinator = kInvalidSite;
  SiteId recovering_site = kInvalidSite;
  // Spooler mode: serve token of the destination's prefetch response that
  // the recovering site installed in this incarnation (0 = none). Records
  // still flagged with it are not shipped again.
  uint64_t spool_served = 0;
  // True when, after this recovery, no site remains nominally down: the
  // item-granular fail-lock set has no one left to cover and is dropped
  // at commit too.
  bool clear_fail_locks = false;
};

struct StatusTakeResp {
  TxnId txn = 0;
  Code code = Code::kOk;
  std::vector<StatusEntry> entries;    // session-vector modes
  std::vector<SpoolRecord> spool;      // spooler mode: records for the
                                       // recovering site, read under lock
};

// ---- two-phase commit -----------------------------------------------------

struct PrepareReq {
  TxnId txn = 0;
  SiteId coordinator = kInvalidSite;
  // Every prepared site, so an in-doubt site can run cooperative
  // termination against the others when the coordinator is unreachable.
  // Sites released at the lock point are not listed: they learn no outcome.
  SiteVec participants;
};

// A yes-vote returns the current version counter of every copy this
// participant has staged writes for; the coordinator takes the max over all
// participants, adds one, and ships the result in CommitReq so every copy of
// an item gets an identical, strictly-increasing tag.
struct PrepareResp {
  TxnId txn = 0;
  bool vote_yes = false;
  VoteCounters version_counters;
};

// A read-only participant's release travels one-way (no AckResp), except
// at the coordinator's own site.
struct CommitReq {
  TxnId txn = 0;
  std::vector<std::pair<ItemId, uint64_t>> new_counters;
  // A batch of this transaction may still reach the site after this: a
  // duplicate from a relaunched chain, or a no-wait batch whose answer
  // timed out or never came. The DM refuses it.
  bool late_batches = false;
};

struct AbortReq {
  TxnId txn = 0;
};

// One-way: undo what this transaction's granted no-wait batch took at the
// destination (its locks and staged writes), unless a chained batch of the
// transaction has reached the site since.
struct RetractReq {
  TxnId txn = 0;
};

struct AckResp {
  TxnId txn = 0;
  Code code = Code::kOk;
};

// ---- cooperative termination (recovering participant asks around) --------

struct OutcomeQuery {
  TxnId txn = 0;
};

enum class Outcome : uint8_t { kCommitted, kAborted, kUnknown };

struct OutcomeResp {
  TxnId txn = 0;
  Outcome outcome = Outcome::kUnknown;
  std::vector<std::pair<ItemId, uint64_t>> new_counters; // when committed
};

// A participant that learned the outcome late (cooperative termination or
// in-doubt replay on reboot) tells the coordinator, so the coordinator can
// garbage-collect its durable OutcomeRec once every participant has acked.
struct OutcomeAck {
  TxnId txn = 0;
  SiteId from = kInvalidSite;
};

// ---- failure detector -----------------------------------------------------

struct Ping {};

struct Pong {
  bool operational = false;
  SessionNum session = 0;
};

// Best-effort notice sent by a committed type-2 control transaction to
// the site(s) it declared down. A LIVE recipient has been falsely declared
// (possible only when the fail-stop assumption is violated, e.g. a lossy
// transport starving pings); its only safe reaction is to crash and
// re-integrate through the normal recovery procedure.
struct DeclaredDown {};

// ---- spooler baseline (Hammer & Shipman style redo) -----------------------

struct SpoolFetchReq {
  SiteId for_site = kInvalidSite;
};

struct SpoolFetchResp {
  Code code = Code::kOk;
  std::vector<SpoolRecord> records;
  uint64_t token = 0; // serve token the records are flagged with
};

struct SpoolTrimReq { // recovering site tells spoolers to drop its records
  SiteId for_site = kInvalidSite;
};

// ---------------------------------------------------------------------------

using Payload =
    std::variant<BatchReq, BatchResp, StatusTakeReq, StatusTakeResp,
                 PrepareReq, PrepareResp, CommitReq, AbortReq, AckResp,
                 OutcomeQuery, OutcomeResp, OutcomeAck, Ping, Pong,
                 SpoolFetchReq, SpoolFetchResp, SpoolTrimReq, DeclaredDown,
                 RetractReq>;

struct Envelope {
  uint64_t rpc_id = 0;
  bool is_response = false;
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  Payload payload;
  // Causal span of the sender at send time (0 = none). Stamped by the
  // RpcEndpoint so per-site work can nest under the coordinator's span.
  SpanId span = 0;
  // Where a request's response goes when that is not the sender: the
  // original requester of a forwarded request (RpcEndpoint::forward).
  SiteId reply_to = kInvalidSite;
};

} // namespace ddbs
