// Transaction coordinators. CoordinatorBase owns the machinery every kind
// of transaction shares: the nominal-session-vector snapshot, request
// plumbing with suspicion reporting, a presumed-abort commit that prepares
// only the sites holding writes or the NS snapshot (with a durable
// coordinator decision log) and counts the votes they already gave early,
// and deferred self-retirement.
// UserTxnCoordinator drives ordinary transactions under the ROWAA
// convention (paper Section 3.2); the copier and control coordinators in
// src/recovery derive from the same base.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/types.h"
#include "net/rpc.h"
#include "replication/catalog.h"
#include "replication/ns_view.h"
#include "replication/session.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "storage/stable_storage.h"
#include "txn/txn.h"
#include "verify/history.h"

namespace ddbs {

struct CoordinatorEnv {
  SiteId self = kInvalidSite;
  const Config* cfg = nullptr;
  Scheduler* sched = nullptr;
  RpcEndpoint* rpc = nullptr;
  const Catalog* cat = nullptr;
  StableStorage* stable = nullptr;
  SiteState* state = nullptr;
  Metrics* metrics = nullptr;
  HistoryRecorder* recorder = nullptr;
  Tracer* tracer = nullptr; // may be null: tracing disabled
};

class CoordinatorBase {
 public:
  using DoneFn = std::function<void(const TxnResult&)>;
  using SuspectFn = std::function<void(SiteId)>;
  using RetireFn = std::function<void(TxnId)>;

  CoordinatorBase(TxnId txn, TxnKind kind, const CoordinatorEnv& env);
  virtual ~CoordinatorBase();
  CoordinatorBase(const CoordinatorBase&) = delete;
  CoordinatorBase& operator=(const CoordinatorBase&) = delete;

  virtual void start() = 0;

  // start() wrapped in this coordinator's span scope, so every RPC sent
  // from the initial step inherits the span. Call sites use this instead
  // of start() directly.
  void launch_start() {
    SpanScope scope(tracer_, span_);
    start();
  }

  TxnId id() const { return txn_; }
  TxnKind kind() const { return kind_; }
  SpanId span() const { return span_; }

  void set_done(DoneFn f) { done_ = std::move(f); }
  void set_suspect_fn(SuspectFn f) { suspect_ = std::move(f); }
  void set_retire_fn(RetireFn f) { retire_ = std::move(f); }

 protected:
  // Timer that is automatically cancelled when the coordinator dies. It
  // is a backstop (Scheduler::timeout): nearly every one is cancelled.
  void schedule(SimTime delay, EventFn fn);

  // All coordinator-originated requests go through this wrapper or its
  // two halves below, which remember the rpc ids so ~CoordinatorBase can
  // cancel any still pending. The response/timeout callbacks capture
  // `this`; once the coordinator is retired (erased by the TM one tick
  // after its decision) a late callback would re-enter freed memory --
  // even the `if (decided_) return;` guard is a read of a dead object.
  // Dropping them is exactly what the guard intended.
  uint64_t send_request(SiteId to, Payload payload, SimTime timeout,
                        RpcEndpoint::ResponseCb cb);
  // expect_reply registers a reply whose request this coordinator or, in a
  // chained dispatch, another site's DM will deliver; its timeout starts
  // with rpc_.arm_timeout. send_registered sends a request under such an
  // id. It is the one place that records participants_: a request that
  // opens a DM context makes its destination a participant, and so does
  // every hop of a BatchReq's chain.
  uint64_t expect_reply(RpcEndpoint::ResponseCb cb);
  void send_registered(uint64_t rpc_id, SiteId to, Payload payload);

  // Read the full NS vector NS[0..n-1] at `at` in index order under shared
  // locks, filling view_. k(false) on any failure (txn should abort).
  // Entries in `skip` are not read (and stay absent from view_, i.e.
  // session 0): a type-2 control transaction skips the entries it is about
  // to zero, so concurrent declarations acquire their X-locks in one
  // canonical global order instead of deadlocking through read-at-self
  // locks.
  void read_ns_vector(SiteId at, SessionNum expected_at,
                      std::function<void(bool)> k,
                      const std::vector<SiteId>& skip = {});

  // Every site id, ascending: the host set of a user transaction or copier
  // when footprint_ns is off (the paper's full-vector read).
  std::vector<SiteId> all_sites() const;

  // Footprint-proportional variant: read only the NS entries of `sites`
  // (sorted ascending -- the same global lock order control transactions
  // write in) at `at`. User transactions pass their host set, copiers
  // their item's resident sites; cost is O(|sites|) instead of O(n_sites).
  // With `vote`, `at` also prepares with the read and returns a yes vote
  // (BatchReq::prepare = {at}): the snapshot's site then needs no
  // PrepareReq unless a later request voids the vote.
  void read_ns_entries(SiteId at, std::vector<SiteId> sites,
                       SessionNum expected_at, std::function<void(bool)> k,
                       bool vote = false);

  // An empty BatchReq from this transaction carrying the given session
  // stamp; callers append the ops.
  BatchReq batch_header(SessionNum expected) const;

  // Send the writes ONE DESTINATION AT A TIME in the given order. All
  // writers of the same item use ascending site order, so X-locks on one
  // item's copies are acquired in a canonical global order and multi-site
  // writer/writer deadlocks (invisible to local wait-for graphs) cannot
  // form. A run of consecutive writes to one destination with the same
  // session stamp travels in one BatchReq -- the run boundaries preserve
  // the caller's send order, so the canonical global order is unchanged.
  // k(true) when all staged; k(false, code) on first failure (timeouts are
  // reported through suspect()).
  struct PlannedWrite {
    SiteId to = kInvalidSite;
    BatchOp op;
    SessionNum expected_session = 0;
  };
  void send_writes_seq(std::vector<PlannedWrite> writes,
                       std::function<void(bool, Code)> k);
  // A write of NS entry ns[entry] := value at site `to`, as control
  // transactions issue them (the DM skips the session check for their
  // kind: they are processable by recovering sites, Section 3.3).
  static PlannedWrite ns_write(SiteId to, SiteId entry, Value value);

  // Async-chain state of send_writes_seq: one BatchReq per run. Owned by
  // the in-flight RPC callbacks: no self-referential closures, no leaks.
  struct WriteGroup {
    SiteId to = kInvalidSite;
    BatchReq req;
  };
  struct WriteSeqState {
    std::vector<WriteGroup> groups;
    std::function<void(bool, Code)> k;
  };
  void write_seq_step(std::shared_ptr<WriteSeqState> st, size_t i);

  // Presumed-abort commit over participants_, called once every operation
  // has been answered (the lock point). When some participant holds a
  // staged write or commit-time action, those sites and the NS snapshot's
  // site are prepared; every other participant only served reads and is
  // released in the same step (a one-way CommitReq; only this site's
  // release is acked). A prepared site with a standing
  // early vote (count_early_vote) gets no PrepareReq, so when every one
  // voted early the decision is made right here. With nothing staged the
  // decision is immediate and every participant is released: no votes, no
  // redo to certify. An early release is safe because a participant's
  // unilateral (activity-timeout) abort can never precede the
  // coordinator's own deadline: that timer is armed at transaction start,
  // strictly before any participant context exists. k(true) fires once
  // the decision is commit AND the local participant has applied (self is
  // always a participant); k(false) fires on abort. Retirement is handled
  // inside.
  void run_commit(std::function<void(bool)> k);

  // A yes vote that `site` returned in a BatchResp (BatchReq::prepare). It
  // stands until the next request that opens a context there.
  void count_early_vote(SiteId site, const BatchResp& resp);

  // Abort everywhere, report `reason` through done_, retire.
  void abort_txn(Code reason);

  // Report success through done_ (after run_commit said true).
  void report_committed(std::vector<Value> reads);
  // Report an abort that was already executed (e.g. a no-vote in
  // run_commit).
  void report_aborted(Code reason);

  void suspect(SiteId s) {
    if (suspect_) suspect_(s);
  }
  void retire_later();

  const TxnId txn_;
  const TxnKind kind_;
  const SiteId self_;
  const Config& cfg_;
  Scheduler& sched_;
  RpcEndpoint& rpc_;
  const Catalog& cat_;
  StableStorage& stable_;
  SiteState& state_;
  Metrics& metrics_;
  HistoryRecorder* recorder_;
  Tracer* tracer_;
  // This transaction's causal span (0 when disabled). The id is taken at
  // construction, under the span ambient then (parent_span_); every
  // start() records the begin event with trace_begin().
  SpanId span_ = 0;
  SpanId parent_span_ = 0;

  void trace(TraceKind k, int64_t a = 0, int64_t b = 0) {
    Tracer::emit(tracer_, k, self_, txn_, a, b);
  }
  // Record this transaction's begin event (txn_begin, copier_start,
  // control_up_start or control_down_start by kind_), opening span_.
  void trace_begin(int64_t a = 0, int64_t b = 0);

  // Record a physical read THIS transaction actually consumed. Use-time
  // recording (vs. at the serving DM) keeps orphaned serves -- a parked
  // read answered after this coordinator failed over, a response the
  // transport lost -- out of the checked history. Read-own-write results
  // (marked with version.writer == txn_) are not database reads.
  void record_read(SiteId site, ItemId item, const Version& version) {
    if (recorder_ && version.writer != txn_) {
      recorder_->add_read(txn_, site, item, version.writer, version.counter);
    }
  }

  // Construction time, for the commit-latency histogram (user txns only).
  const SimTime started_;

  // What a participant's DM holds for this transaction, by the strongest
  // request sent there: locks of plain reads, the NS snapshot's S-locks,
  // or staged writes / commit-time actions (a status take's clear; recovery
  // actions are staged at the coordinator's own site, which every type-1
  // also writes).
  enum class Hold : uint8_t { kReads, kNsSnapshot, kStaged };
  struct Participant {
    Hold hold = Hold::kReads;
    // A standing yes vote. send_request voids it: the vote covered only
    // what the site held when it gave it.
    bool voted = false;
    // Some yes vote reported staged writes: the site logged a prepare, can
    // be in doubt, and is in the decision record's unacked set.
    bool logged_prepare = false;
  };
  // Sites holding a DM context of this transaction; run_commit drops the
  // ones it releases, so an abort reaches only the sites still waiting.
  // A chain hop counts from launch: the chain may reach it at any time.
  std::map<SiteId, Participant> participants_;
  // Frozen NS snapshot, sparse: only the entries this transaction read.
  // An absent entry reads as session 0 (nominally down), which is what the
  // dense representation held for unread/skipped sites.
  NsView view_;
  bool decided_ = false; // 2PC decision made (or unilateral abort)
  // A batch of this transaction may still reach a site after the decision
  // (a chain relaunched past a silent hop, a no-wait batch whose answer
  // timed out or never came), so every CommitReq says so (CommitReq::
  // late_batches).
  bool late_batches_ = false;
  // Participants whose prepare timed out in run_commit (the caller may
  // need to declare them down and retry -- recovery step 4).
  std::vector<SiteId> last_prepare_timeouts_;
  // Targets whose write timed out in the last send_writes_seq.
  std::vector<SiteId> last_write_timeouts_;

 private:
  // `to` holds (at least) `hold`; a standing vote there is void.
  void note_participant(SiteId to, Hold hold);
  void send_aborts();
  // CommitReq to q: applies the decision at a prepared site, releases a
  // read-only one. Acks drive outcome GC, the local k(true) and retirement.
  void send_commit(SiteId q, const CommitReq& req);
  void count_yes_vote(Participant& p, const VoteCounters& counters);
  // Every prepared site has voted: abort on any no, else log the decision
  // and tell them all.
  void decide();

  DoneFn done_;
  SuspectFn suspect_;
  RetireFn retire_;
  std::vector<EventId> timers_;
  std::vector<uint64_t> rpcs_; // every id this coordinator ever sent
  bool retired_ = false;

  // Commit progress.
  size_t votes_pending_ = 0;
  bool any_no_ = false;
  std::map<ItemId, uint64_t> max_counters_;
  size_t acks_pending_ = 0;
  std::function<void(bool)> commit_k_;
};

// ---------------------------------------------------------------------------

class UserTxnCoordinator : public CoordinatorBase {
 public:
  UserTxnCoordinator(TxnId txn, const CoordinatorEnv& env, TxnSpec spec);

  void start() override;

 private:
  // Union of the resident sites of every item in spec_, ascending: the
  // only NS entries whose values can ever matter to this transaction
  // (all_sites() when footprint_ns is off).
  std::vector<SiteId> host_set() const;

  // Commit phase, once every logical op has resolved.
  void finish_ops();

  // Whole-transaction batching: every logical op is planned against the
  // frozen view up front and shipped as ONE BatchReq per destination site
  // -- O(sites) scheduler events instead of O(ops x sites). Safe because
  // the Section 3.2 session check is per-site: the batch is admitted or
  // rejected under exactly the session number each single op would have
  // carried. A failed write aborts (conjunction over nominally-up copies);
  // a failed read falls back to the candidate ladder of one-read batches,
  // whose ReadMode::kMayPark read can park on an unreadable copy.
  //
  // One parallel round, the chain on conflict. Every batch first goes out
  // at once, no-wait (Dispatch::kNoWait): a site grants all of its locks
  // now or none and answers kBusy. When every site grants, the early votes
  // come back in that one round trip. Otherwise, with s the lowest busy
  // site, the grants below s stay, every grant above s is retracted
  // (RetractReq, one-way), and the batches from s up form one chain in
  // ascending site order: the first goes out from here carrying the rest,
  // each DM forwards the rest once it holds its own locks, and every site
  // answers here directly.
  struct ReadRetry {
    ItemId item = 0;
    size_t slot = 0;       // read-op ordinal (index into read_values_)
    size_t cand_start = 0; // first candidate the fallback ladder tries
  };
  struct SiteBatch {
    SiteId to = kInvalidSite;
    BatchReq req;
    std::vector<size_t> read_slot; // per op: ordinal, or SIZE_MAX for writes
    uint64_t rpc_id = 0;           // the reply registered for this hop
    bool resolved = false;         // answered, or timed out
    // The parallel round's answer, held until every lower site's is in.
    bool answered = false;
    Code round_code = Code::kOk;
    BatchResp round_resp;
  };
  struct BatchRunState {
    std::vector<SiteBatch> batches;
    size_t unresolved = 0; // hops not yet answered or timed out
    // Before dispatch: reads that PRECEDE a write of the same item in op
    // order. They must resolve before that write is staged anywhere --
    // once it is, every copy's DM answers them with the staged value
    // (read-own-write), and an unreadable-copy fallback would see the
    // future instead of the pre-write value. After dispatch: reads whose
    // batched attempt failed, walking the candidate ladder.
    std::vector<ReadRetry> retries;
    size_t next_retry = 0;
    bool dispatched = false;
    // Round answers below this site index are taken.
    size_t frontier = 0;
    // The lowest busy site, where the chain starts (none: SIZE_MAX).
    size_t chain_from = SIZE_MAX;
  };
  void run_batched_ops();
  void dispatch_batches(std::shared_ptr<BatchRunState> st);
  void on_round_reply(const std::shared_ptr<BatchRunState>& st, size_t i,
                      Code code, const Payload* payload);
  // Take site i's round answer, every lower one taken. False when the
  // transaction aborted or fell back to the chain at i (busy).
  bool take_round_reply(const std::shared_ptr<BatchRunState>& st, size_t i,
                        Code code, const BatchResp* resp);
  // Give back a round grant above the chain's start (`resp` null: the
  // answer timed out).
  void retract(SiteId to, const BatchResp* resp);
  // Send hop i from here, carrying every later unresolved hop, and start
  // its budget.
  void launch_hop(BatchRunState& st, size_t i);
  // Hop i answered or timed out. Consumed in any order; the next hop's
  // lock_timeout + rpc_timeout budget starts here (its locks were not
  // requested before this hop held its own), and when a read-only hop
  // timed out, the chain is relaunched from the next hop.
  void on_hop_reply(const std::shared_ptr<BatchRunState>& st, size_t i,
                    Code code, const Payload* payload);
  bool consume_batch_resp(BatchRunState& st, size_t i, Code code,
                          const BatchResp* resp, bool report_timeouts = true);
  void retry_step(std::shared_ptr<BatchRunState> st);
  void retry_read(std::shared_ptr<BatchRunState> st, size_t candidate_idx);

  TxnSpec spec_;
  std::vector<Value> read_values_;
  std::vector<SiteId> read_cands_;
  bool fell_back_ = false; // some round site was busy: the chain ran
};

} // namespace ddbs
