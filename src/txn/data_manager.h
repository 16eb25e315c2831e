// The data manager (DM) of one site: "carries out the physical operations
// on the copies stored at the site" (paper Section 2). Concretely it
//
//   * enforces the session check: every non-control request carries the
//     sender's perceived session number ns_i[k] and is rejected unless it
//     equals as[k] (Section 3.2);
//   * runs strict two-phase locking over physical copies, NS copies and
//     the per-down-site status-table lock items;
//   * is a two-phase-commit participant (WAL prepare/commit/abort records,
//     yes-votes carry per-item version counters, either in a PrepareResp or
//     early, in the BatchResp of a batch that names this site in its
//     prepare set; cooperative termination when the coordinator goes
//     silent);
//   * maintains the Section-5 bookkeeping at commit time: missing-list /
//     fail-lock additions for skipped copies, removals for written copies,
//     spool records in spooler mode, and unreadable-mark transitions;
//   * grants a user transaction's no-wait batch (Dispatch::kNoWait) whole
//     or answers kBusy holding nothing, and gives a granted one back on a
//     RetractReq;
//   * passes a user transaction's chained batches on to the next site once
//     its own batch holds every lock (BatchReq::chain);
//   * answers pings, outcome queries and spool fetches;
//   * parks a lone ReadMode::kMayPark user read that hits an unreadable
//     copy (kBlock) or rejects it so the TM can redirect (kRedirect),
//     triggering an on-demand copier either way.
//
// Volatile state (locks, transaction contexts, parked reads, status tables)
// is wiped by crash(); the KV image, WAL, spool and outcome log live in
// StableStorage and survive.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/types.h"
#include "net/rpc.h"
#include "recovery/status_tables.h"
#include "replication/session.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "storage/stable_storage.h"
#include "txn/lock_manager.h"
#include "verify/history.h"

namespace ddbs {

class DataManager {
 public:
  using UnreadableHook = std::function<void(ItemId)>;
  // True while this site's TM still runs the coordinator of `txn`.
  using CoordinatingFn = std::function<bool(TxnId)>;

  DataManager(SiteId self, const Config& cfg, Scheduler& sched,
              RpcEndpoint& rpc, StableStorage& stable, SiteState& state,
              Metrics& metrics, HistoryRecorder* recorder,
              Tracer* tracer = nullptr);

  // Entry point for every request envelope addressed to this site. A
  // request that waits for locks keeps its envelope, so it is taken by
  // value: the network's delivery moves it in.
  void handle_request(Envelope env);

  // ---- local coupling with the recovery manager (same site) -------------

  // Stage recovery-time effects inside the type-1 control transaction
  // `txn`: marks to set, missing-list entries to rebuild, spool records to
  // replay. Applied atomically when the control transaction commits.
  void stage_recovery_actions(TxnId txn, std::vector<ItemId> marks,
                              std::vector<StatusEntry> ml_rebuild,
                              std::vector<SpoolRecord> replay);

  // Mark-all strategy, step 2 of the recovery procedure: purely local,
  // runs before the control transaction while no user activity exists.
  // The recovery manager passes the hosted items that have at least one
  // remote copy; a single-copy item cannot have missed an update (a
  // ROWAA write with zero available targets fails), so marking it would
  // only strand it as "totally failed".
  void mark_items(const std::vector<ItemId>& items);

  // Bulk-apply spooled records outside any transaction (version-guarded;
  // used for the unlocked prefetch in spooler mode and for redo).
  size_t apply_spool_records(const std::vector<SpoolRecord>& recs);

  // Spooler mode, before the type-1: apply the prefetched records and
  // remember each source site's serve token (0 = nothing from that site)
  // until the next crash, so the type-1 asks only for what is new.
  void install_prefetched_spool(const std::vector<SpoolRecord>& recs,
                                std::vector<uint64_t> serve_tokens);
  uint64_t prefetched_spool_token(SiteId from) const {
    const auto i = static_cast<size_t>(from);
    return i < prefetch_tokens_.size() ? prefetch_tokens_[i] : 0;
  }

  // ---- crash / boot ------------------------------------------------------

  void crash();
  void boot(); // after power-on: rebuild volatile outcome cache from WAL

  std::vector<WalRecord> in_doubt() const { return stable_.wal().in_doubt(); }

  // Apply/discard one in-doubt WAL record after learning its outcome.
  void resolve_in_doubt(const WalRecord& rec, bool committed,
                        const std::vector<std::pair<ItemId, uint64_t>>&
                            new_counters);

  // ---- wiring / introspection -------------------------------------------

  void set_unreadable_hook(UnreadableHook h) { unreadable_hook_ = std::move(h); }
  void set_coordinating_fn(CoordinatingFn f) { coordinating_ = std::move(f); }

  KvStore& kv() { return stable_.kv(); }
  const KvStore& kv() const { return stable_.kv(); }
  StatusTable& status_table() { return status_; }
  LockManager& locks() { return lm_; }
  size_t active_txn_count() const { return ctxs_.size(); }
  size_t closed_count() const { return closed_.size(); }
  size_t parked_read_count() const;

 private:
  struct StagedWrite {
    Value value = 0;
    bool is_copier = false;
    Version copier_version;
    SiteVec missed;
    SiteVec written;
  };

  struct TxnCtx {
    TxnId txn = 0;
    TxnKind kind = TxnKind::kUser;
    SiteId coordinator = kInvalidSite;
    bool prepared = false;
    bool logged_prepare = false;
    std::map<ItemId, StagedWrite> writes;
    bool status_clear = false;
    SiteId clear_for = kInvalidSite;
    bool clear_fail_locks = false;
    bool recovery_actions = false;
    std::vector<ItemId> marks;
    std::vector<StatusEntry> ml_rebuild;
    std::vector<SpoolRecord> replay;
    SiteVec participants;
    EventId termination_timer = 0;
    EventId activity_timer = 0; // unilateral abort of orphaned contexts
    // A granted no-wait batch's locks, until a RetractReq gives them back
    // or a chained batch of the transaction arrives and owns them.
    bool retractable = false;
    std::vector<LockManager::Grant> nowait_grants;
    // A chained batch arrived: a late no-wait batch is answered kBusy.
    bool chain_seen = false;
  };

  // One in-flight request waiting on a chain of locks.
  struct Chain {
    uint64_t id = 0;
    TxnId txn = 0;
    Envelope env;
    std::vector<std::pair<ItemId, LockMode>> locks; // remaining
    LockManager::RequestId rid = 0;                 // current wait, 0 if none
    EventId timer = 0;
    // Runs once every lock is held, with the request (which it may move
    // from: the chain is finished with it).
    std::function<void(Envelope&)> on_done;
    // Grant-callback handshake. These live in the chain (NOT on the
    // acquiring stack frame): the callback may run long after
    // advance_chain() returned, when a conflicting holder releases.
    bool in_acquire = false;
    bool sync_granted = false;
    // Causal attribution: the requesting coordinator's span (from the
    // envelope) and the lock-wait span opened lazily at the first real
    // wait, closed when the chain resolves either way.
    SpanId parent_span = 0;
    SpanId wait_span = 0;
    // First real wait's start time (kNoTime = never blocked), feeding the
    // dm.lock_wait_us histogram when the chain stops waiting: granted,
    // timed out, refused or cancelled. Contended path only: synchronously
    // granted chains never touch it.
    SimTime wait_started = kNoTime;
    // A user transaction's chain: its data-item locks are requested with
    // LockManager::Wait::kBehindHolders, and a refusal answers kBusy.
    bool behind_holders = false;
  };

  // ---- handlers ----
  void on_batch(Envelope& env);
  void on_status_take(Envelope& env);
  void on_prepare(const Envelope& env);
  void on_commit(const Envelope& env);
  void on_abort(const Envelope& env);
  void on_retract(const Envelope& env);
  void on_outcome_query(const Envelope& env);
  void on_outcome_ack(const Envelope& env);
  void on_ping(const Envelope& env);
  void on_spool_fetch(const Envelope& env);
  void on_spool_trim(const Envelope& env);

  // ---- helpers ----
  // Tell the coordinator we durably learned this outcome (so it can erase
  // us from the decision record's unacked set). Local when we coordinated.
  void send_outcome_ack(TxnId txn, SiteId coordinator);
  TxnCtx& ctx_of(TxnId txn, TxnKind kind, SiteId coordinator);
  TxnCtx* find_ctx(TxnId txn);
  // Admission: mode + session checks shared by read/write/status ops.
  // Returns kOk or the rejection code.
  Code admit(SessionNum expected, TxnKind kind) const;

  void serve_batch(Envelope& env, BatchResp resp,
                   const std::vector<uint8_t>& pending);
  void start_chain(TxnId txn, Envelope env,
                   std::vector<std::pair<ItemId, LockMode>> locks,
                   std::function<void(Envelope&)> on_done);
  void advance_chain(const std::shared_ptr<Chain>& chain);
  // The chain stops waiting, whatever the outcome: a real wait adds its
  // length to dm.lock_wait_us and closes its span.
  void end_wait(Chain& c);
  void erase_chain(const std::shared_ptr<Chain>& chain);
  void fail_chains_of(TxnId txn, Code code);
  void schedule_deadlock_check();
  void run_deadlock_check();
  void rearm_deadlock_check();

  // Enter the prepared state (idempotent): remember the prepared set, stop
  // the activity timer, arm the termination timer (unless this site
  // coordinates), and append the prepare record once anything is staged. True when a record was appended, so
  // the yes vote must wait for the log force.
  bool prepare(TxnCtx& ctx, const SiteVec& participants);
  // The version counters a yes vote carries: one per staged item.
  VoteCounters vote_counters(const TxnCtx& ctx) const;
  // Send a yes vote, after the log force when `forced` (the vote promises
  // the prepare record is on the medium).
  void respond_vote(const Envelope& env, Payload vote, bool forced);
  void finish_abort(TxnId txn, bool log_abort);
  void apply_commit(TxnCtx& ctx,
                    const std::vector<std::pair<ItemId, uint64_t>>& counters);
  void install_write(TxnId writer, ItemId item, const StagedWrite& w,
                     uint64_t counter);
  void reply_code(const Envelope& env, Code code); // typed error response
  // Chained dispatch: pass the rest of a batch's chain (moved out of
  // `env`) on to its next hop, unless `resp` makes the coordinator abort.
  void forward_chain(Envelope& env, const BatchResp& resp);
  void unpark_reads(ItemId item);
  void drop_parked(TxnId txn);
  void arm_termination_timer(TxnId txn);
  void run_termination(TxnId txn, size_t participant_idx);
  void maybe_checkpoint_wal();
  void close_txn(TxnId txn);
  bool is_closed(TxnId txn);
  void prune_closed();

  SiteId self_;
  const Config& cfg_;
  Scheduler& sched_;
  RpcEndpoint& rpc_;
  StableStorage& stable_;
  SiteState& state_;
  Metrics& metrics_;
  HistoryRecorder* recorder_;
  Tracer* tracer_;

  LockManager lm_;
  StatusTable status_;
  std::unordered_map<TxnId, TxnCtx> ctxs_;
  std::unordered_map<TxnId, std::vector<std::shared_ptr<Chain>>> chains_;
  std::map<ItemId, std::vector<Envelope>> parked_;
  // Transactions whose context ended here for good: every abort, every
  // commit that may still see a late batch (CommitReq::late_batches), and
  // every commit learned through cooperative termination, whose answer
  // does not say. Later messages for them must not resurrect a context
  // (reply kAborted / vote no instead). Each entry expires (close_txn);
  // closed_order_ queues the expiries in order.
  std::unordered_map<TxnId, SimTime> closed_;
  std::deque<std::pair<SimTime, TxnId>> closed_order_;
  UnreadableHook unreadable_hook_;
  CoordinatingFn coordinating_;
  uint64_t next_chain_ = 1;
  bool deadlock_check_scheduled_ = false;
  // Wait-graph epoch (LockManager::wait_graph_epoch) at the last sweep that
  // found no cycle: while the epoch is unchanged no new wait edge appeared,
  // so no new cycle can exist and the sweep is skipped.
  uint64_t clean_wait_epoch_ = ~0ull;
  uint64_t boot_epoch_ = 0; // guards stale timer callbacks across crashes
  // Spooler mode: serve tokens handed out by on_spool_fetch (never reset,
  // so never reissued) and, per source site, the one whose records this
  // incarnation installed.
  uint64_t spool_serves_ = 0;
  std::vector<uint64_t> prefetch_tokens_;
};

} // namespace ddbs
