#include "txn/data_manager.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "txn/deadlock.h"
#include "txn/txn.h"

namespace ddbs {

namespace {
constexpr SimTime kDeadlockCheckDelay = 1'000;   // after a wait begins
constexpr SimTime kDeadlockRecheck = 10'000;     // while waiters exist
} // namespace

DataManager::DataManager(SiteId self, const Config& cfg, Scheduler& sched,
                         RpcEndpoint& rpc, StableStorage& stable,
                         SiteState& state, Metrics& metrics,
                         HistoryRecorder* recorder, Tracer* tracer)
    : self_(self),
      cfg_(cfg),
      sched_(sched),
      rpc_(rpc),
      stable_(stable),
      state_(state),
      metrics_(metrics),
      recorder_(recorder),
      tracer_(tracer) {}

// ---------------------------------------------------------------------------
// dispatch

void DataManager::handle_request(Envelope env) {
  std::visit(
      [&](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, BatchReq>) {
          on_batch(env);
        } else if constexpr (std::is_same_v<T, StatusTakeReq>) {
          on_status_take(env);
        } else if constexpr (std::is_same_v<T, PrepareReq>) {
          on_prepare(env);
        } else if constexpr (std::is_same_v<T, CommitReq>) {
          on_commit(env);
        } else if constexpr (std::is_same_v<T, AbortReq>) {
          on_abort(env);
        } else if constexpr (std::is_same_v<T, RetractReq>) {
          on_retract(env);
        } else if constexpr (std::is_same_v<T, OutcomeQuery>) {
          on_outcome_query(env);
        } else if constexpr (std::is_same_v<T, OutcomeAck>) {
          on_outcome_ack(env);
        } else if constexpr (std::is_same_v<T, Ping>) {
          on_ping(env);
        } else if constexpr (std::is_same_v<T, SpoolFetchReq>) {
          on_spool_fetch(env);
        } else if constexpr (std::is_same_v<T, SpoolTrimReq>) {
          on_spool_trim(env);
        }
        // Response payload types never reach handle_request (RpcEndpoint
        // routes them to the pending-request callback).
      },
      env.payload);
}

// ---------------------------------------------------------------------------
// admission

Code DataManager::admit(SessionNum expected, TxnKind kind) const {
  if (is_control(kind)) {
    // If this handler runs at all, the process is booted.
    return state_.mode == SiteMode::kDown ? Code::kSiteNotOperational
                                          : Code::kOk;
  }
  if (state_.mode != SiteMode::kUp) return Code::kSiteNotOperational;
  if (expected != state_.session) return Code::kSessionMismatch;
  return Code::kOk;
}

DataManager::TxnCtx& DataManager::ctx_of(TxnId txn, TxnKind kind,
                                         SiteId coordinator) {
  auto [it, inserted] = ctxs_.try_emplace(txn);
  TxnCtx& ctx = it->second;
  if (inserted) {
    ctx.txn = txn;
    ctx.kind = kind;
    ctx.coordinator = coordinator;
    // A context whose coordinator dies before 2PC would hold locks forever;
    // the activity timer unilaterally aborts never-prepared contexts.
    const uint64_t epoch = boot_epoch_;
    ctx.activity_timer =
        sched_.timeout(cfg_.txn_timeout, [this, txn, epoch]() {
          if (epoch != boot_epoch_) return;
          TxnCtx* c = find_ctx(txn);
          if (c && !c->prepared) {
            metrics_.inc(metrics_.id.dm_activity_timeout_abort);
            fail_chains_of(txn, Code::kAborted);
            finish_abort(txn, /*log_abort=*/false);
          }
        });
  }
  return ctx;
}

DataManager::TxnCtx* DataManager::find_ctx(TxnId txn) {
  auto it = ctxs_.find(txn);
  return it == ctxs_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// lock chains

void DataManager::start_chain(TxnId txn, Envelope env,
                              std::vector<std::pair<ItemId, LockMode>> locks,
                              std::function<void(Envelope&)> on_done) {
  auto chain = std::make_shared<Chain>();
  chain->id = next_chain_++;
  chain->txn = txn;
  // A user transaction's data locks wait only for their holders (DESIGN.md
  // §2): copiers, control transactions and status takes keep FIFO waits.
  const auto* batch = std::get_if<BatchReq>(&env.payload);
  chain->behind_holders = batch != nullptr && batch->kind == TxnKind::kUser;
  chain->parent_span = env.span;
  chain->env = std::move(env);
  chain->locks = std::move(locks);
  chain->on_done = std::move(on_done);
  chains_[txn].push_back(chain);
  advance_chain(chain);
}

void DataManager::advance_chain(const std::shared_ptr<Chain>& chain) {
  while (!chain->locks.empty()) {
    const auto [item, mode] = chain->locks.front();
    chain->in_acquire = true;
    chain->sync_granted = false;
    std::weak_ptr<Chain> weak = chain;
    const auto rid = lm_.acquire(
        chain->txn, item, mode,
        [this, weak]() {
          auto c = weak.lock();
          if (!c) return;
          if (c->in_acquire) {
            c->sync_granted = true;
            return;
          }
          // Granted later, from a release: continue the chain.
          c->rid = 0;
          c->locks.erase(c->locks.begin());
          advance_chain(c);
        },
        chain->behind_holders && is_data_item(item)
            ? LockManager::Wait::kBehindHolders
            : LockManager::Wait::kFifo);
    chain->in_acquire = false;
    if (chain->sync_granted) {
      chain->sync_granted = false;
      chain->locks.erase(chain->locks.begin());
      continue;
    }
    if (rid == LockManager::kRefused) {
      // Queued behind another waiter: refuse rather than wait. The locks
      // this chain already holds stay until the coordinator's abort.
      metrics_.inc(metrics_.id.dm_busy_behind_waiter);
      if (chain->timer != 0) sched_.cancel(chain->timer);
      end_wait(*chain);
      erase_chain(chain);
      reply_code(chain->env, Code::kBusy);
      return;
    }
    // Must wait.
    chain->rid = rid;
    if (chain->wait_started == kNoTime) chain->wait_started = sched_.now();
    if (chain->wait_span == 0 && tracer_ != nullptr) {
      // Lock-wait span under the requesting coordinator: the first real
      // wait opens it, chain resolution (either way) closes it.
      chain->wait_span = tracer_->begin_under(
          chain->parent_span, TraceKind::kLockWait, self_, chain->txn, item);
    }
    if (chain->timer == 0) {
      const uint64_t epoch = boot_epoch_;
      chain->timer = sched_.timeout(cfg_.lock_timeout, [this, weak, epoch]() {
        if (epoch != boot_epoch_) return;
        auto c = weak.lock();
        if (!c) return;
        c->timer = 0;
        if (c->rid != 0) lm_.cancel(c->rid);
        metrics_.inc(metrics_.id.dm_lock_timeout);
        end_wait(*c);
        reply_code(c->env, Code::kLockTimeout);
        erase_chain(c);
      });
    }
    schedule_deadlock_check();
    return;
  }
  // All locks held.
  if (chain->timer != 0) {
    sched_.cancel(chain->timer);
    chain->timer = 0;
  }
  end_wait(*chain);
  erase_chain(chain);
  chain->on_done(chain->env);
}

void DataManager::end_wait(Chain& c) {
  if (c.wait_started != kNoTime) {
    metrics_.hist(metrics_.id.h_lock_wait_us)
        .add(static_cast<double>(sched_.now() - c.wait_started));
    c.wait_started = kNoTime;
  }
  Tracer::close(tracer_, c.wait_span, TraceKind::kLockWait, self_, c.txn);
  c.wait_span = 0;
}

void DataManager::erase_chain(const std::shared_ptr<Chain>& chain) {
  auto& vec = chains_[chain->txn];
  vec.erase(std::remove(vec.begin(), vec.end(), chain), vec.end());
  if (vec.empty()) chains_.erase(chain->txn);
}

void DataManager::fail_chains_of(TxnId txn, Code code) {
  auto it = chains_.find(txn);
  if (it == chains_.end()) return;
  auto chains = std::move(it->second);
  chains_.erase(it);
  for (auto& c : chains) {
    if (c->rid != 0) lm_.cancel(c->rid);
    if (c->timer != 0) sched_.cancel(c->timer);
    end_wait(*c);
    reply_code(c->env, code);
  }
}

void DataManager::schedule_deadlock_check() {
  if (deadlock_check_scheduled_) return;
  deadlock_check_scheduled_ = true;
  const uint64_t epoch = boot_epoch_;
  sched_.after(kDeadlockCheckDelay, [this, epoch]() {
    if (epoch != boot_epoch_) return;
    deadlock_check_scheduled_ = false;
    run_deadlock_check();
  });
}

void DataManager::run_deadlock_check() {
  // The sweep itself is skippable, but the re-arm pattern below must stay
  // identical in every path: re-arm decisions feed the deterministic event
  // schedule, and the cheap paths must not perturb it.
  const uint64_t epoch = lm_.wait_graph_epoch();
  // No NEW wait edge appeared since a sweep that came back cycle-free:
  // releases and cancels only remove edges, so no cycle can have formed --
  // skip the graph walk. Covers the nobody-waiting case too (an empty
  // graph counts as a clean sweep).
  if (!lm_.has_waiters() || epoch != clean_wait_epoch_) {
    const auto edges =
        lm_.has_waiters() ? lm_.wait_edges()
                          : std::vector<std::pair<TxnId, TxnId>>{};
    std::vector<DeadlockCandidate> candidates;
    if (!edges.empty()) {
      for (const auto& [txn, chains] : chains_) {
        TxnKind kind = TxnKind::kUser;
        if (const TxnCtx* c = find_ctx(txn)) {
          kind = c->kind;
        } else if (!chains.empty()) {
          // Kind travels in the request payload for first-op transactions.
          const Envelope& env = chains.front()->env;
          if (const auto* b = std::get_if<BatchReq>(&env.payload)) {
            kind = b->kind;
          } else {
            kind = TxnKind::kControlUp; // status ops come from control txns
          }
        }
        candidates.push_back(DeadlockCandidate{txn, kind});
      }
    }
    if (auto victim = DeadlockDetector::find_victim(edges, candidates)) {
      metrics_.inc(metrics_.id.dm_deadlock_victim);
      DDBS_DEBUG << "site " << self_ << " deadlock victim txn " << *victim;
      fail_chains_of(*victim, Code::kDeadlockVictim);
      // Not clean: the survivors' edges were not re-examined.
      clean_wait_epoch_ = ~0ull;
    } else {
      clean_wait_epoch_ = epoch;
    }
  }
  // Keep checking while anyone is still waiting (cross-release cycles).
  if (!chains_.empty()) rearm_deadlock_check();
}

void DataManager::rearm_deadlock_check() {
  deadlock_check_scheduled_ = true;
  const uint64_t epoch = boot_epoch_;
  sched_.after(kDeadlockRecheck, [this, epoch]() {
    if (epoch != boot_epoch_) return;
    deadlock_check_scheduled_ = false;
    run_deadlock_check();
  });
}

// ---------------------------------------------------------------------------
// physical operations
//
// One envelope carries every read/write the coordinator has for this site.
// The session check is evaluated once (it is per-site, Section 3.2) but
// applied per operation so the planted skip-session-check bug keeps its
// write-path-only scope; every other admission decision (read-own-write,
// missing copy, unreadable copy) is made per operation. All locks the
// admitted operations need are acquired through a single chain -- per-item
// strongest mode, first-use order -- and the operations are then served in
// op order, so a read that follows a write of the same item in the batch
// sees the staged value just as it would have under sequential single-op
// requests. A read that hits an unreadable copy parks only when it is the
// batch's sole op, asks for ReadMode::kMayPark, and comes from a user
// transaction under kBlock (a parked multi-op batch would hold the other
// operations' results hostage); every other such read resolves to
// kUnreadable and the coordinator falls back to a one-read batch.

void DataManager::on_batch(Envelope& env) {
  const auto& req = std::get<BatchReq>(env.payload);
  const size_t n = req.ops.size();
  BatchResp resp;
  resp.txn = req.txn;
  resp.results.resize(n);
  if (is_closed(req.txn)) {
    resp.code = Code::kAborted;
    for (auto& r : resp.results) r.code = Code::kAborted;
    rpc_.respond(env, std::move(resp));
    return;
  }
  const bool no_wait = req.dispatch == Dispatch::kNoWait;
  TxnCtx* ctx = find_ctx(req.txn);
  if (no_wait && ctx != nullptr && ctx->chain_seen) {
    // A round batch that the chain overtook: the chain's copy holds it.
    reply_code(env, Code::kBusy);
    return;
  }
  const Code session = admit(req.expected_session, req.kind);
  Code write_session = session;
  // PLANTED BUG (explorer self-validation only): the mutation disables the
  // Section 3.2 rejection on the write path only; reads must keep
  // rejecting.
  if (session == Code::kSessionMismatch &&
      cfg_.planted_bug == PlantedBug::kSkipSessionCheck &&
      state_.mode == SiteMode::kUp) {
    write_session = Code::kOk;
  }
  if (session == Code::kSessionMismatch) {
    Tracer::emit_under(tracer_, env.span, TraceKind::kSessionReject, self_,
                       req.txn, static_cast<int64_t>(state_.session),
                       static_cast<int64_t>(req.expected_session));
  }
  bool any_admitted = false;
  for (size_t i = 0; i < n; ++i) {
    const bool is_write = req.ops[i].op == BatchOpKind::kWrite;
    const Code c = is_write ? write_session : session;
    resp.results[i].code = c;
    if (c == Code::kOk) {
      any_admitted = true;
    } else {
      metrics_.inc(is_write
                       ? metrics_.id.dm_write_reject[static_cast<size_t>(c)]
                       : metrics_.id.dm_read_reject[static_cast<size_t>(c)]);
    }
  }
  if (!any_admitted) {
    resp.code = session;
    forward_chain(env, resp);
    rpc_.respond(env, std::move(resp));
    return;
  }

  // A waiting batch opens its context on arrival; a no-wait batch only once
  // its locks are granted, so a busy one leaves nothing behind.
  if (!no_wait) {
    ctx = &ctx_of(req.txn, req.kind, req.coordinator);
    if (req.dispatch == Dispatch::kChained) {
      ctx->chain_seen = true;
      ctx->retractable = false;
    }
  }
  std::vector<std::pair<ItemId, LockMode>> locks;
  std::vector<uint8_t> pending(n, 0); // 1 = resolve in the serve pass
  auto add_lock = [&locks](ItemId item, LockMode mode) {
    for (auto& [li, lm] : locks) {
      if (li == item) {
        if (mode == LockMode::kExclusive) lm = LockMode::kExclusive;
        return;
      }
    }
    locks.emplace_back(item, mode);
  };
  for (size_t i = 0; i < n; ++i) {
    const BatchOp& op = req.ops[i];
    if (resp.results[i].code != Code::kOk) continue;
    if (op.op == BatchOpKind::kWrite) {
      add_lock(op.item, LockMode::kExclusive);
      // Skipping a nominally-down copy touches the per-down-site status
      // lock in shared mode: additions commute with each other but must
      // serialize against the type-1 control transaction's exclusive
      // status take -- this is what makes the missing list "under
      // concurrency control" (S. 5) and closes the stale-readable race
      // discussed in DESIGN.md.
      if (cfg_.keeps_status_tables() && is_data_item(op.item)) {
        for (SiteId d : op.missed_sites) {
          add_lock(status_item(d), LockMode::kShared);
        }
      }
      pending[i] = 1;
      continue;
    }
    // Read-own-write: staged by an earlier transaction chain, or by an
    // earlier write op in this very batch (which holds the X lock either
    // way) -- no S lock needed, resolved in op order during the serve pass.
    bool own = ctx != nullptr && ctx->writes.count(op.item) > 0;
    for (size_t j = 0; !own && j < i; ++j) {
      own = req.ops[j].op == BatchOpKind::kWrite &&
            req.ops[j].item == op.item &&
            resp.results[j].code == Code::kOk;
    }
    if (own) {
      pending[i] = 1;
      continue;
    }
    const Copy* copy = kv().find(op.item);
    if (copy == nullptr) {
      resp.results[i].code = Code::kNotFound;
      continue;
    }
    if (is_data_item(op.item) && copy->unreadable && !is_control(req.kind) &&
        !(op.read_mode == ReadMode::kServe && req.kind == TxnKind::kCopier)) {
      metrics_.inc(metrics_.id.dm_read_hit_unreadable);
      // "a request for reading it triggers a copier transaction" (S. 3.2)
      if (unreadable_hook_) unreadable_hook_(op.item);
      if (n == 1 && op.read_mode == ReadMode::kMayPark &&
          req.kind == TxnKind::kUser &&
          cfg_.unreadable_policy == UnreadablePolicy::kBlock) {
        parked_[op.item].push_back(std::move(env));
        return;
      }
      resp.results[i].code = Code::kUnreadable;
      continue;
    }
    add_lock(op.item, LockMode::kShared);
    pending[i] = 1;
  }

  const TxnId txn = req.txn;
  if (no_wait) {
    std::vector<LockManager::Grant> grants;
    const auto got = lm_.try_acquire_all(txn, locks, &grants);
    if (got != LockManager::TryResult::kGranted) {
      BatchResp busy;
      busy.txn = txn;
      busy.code = Code::kBusy;
      busy.busy_queued = got == LockManager::TryResult::kQueued;
      busy.results.resize(n, BatchOpResult{Code::kBusy, 0, {}});
      rpc_.respond(env, std::move(busy));
      return;
    }
    TxnCtx& granted = ctx_of(txn, req.kind, req.coordinator);
    granted.retractable = true;
    granted.nowait_grants = std::move(grants);
    serve_batch(env, std::move(resp), pending);
    return;
  }
  start_chain(txn, std::move(env), std::move(locks),
              [this, resp = std::move(resp),
               pending = std::move(pending)](Envelope& env) mutable {
                serve_batch(env, std::move(resp), pending);
              });
}

// Every lock of the batch is held: stage its writes, serve its reads in op
// order, pass the chain on and answer (with an early vote when listed).
void DataManager::serve_batch(Envelope& env, BatchResp resp,
                              const std::vector<uint8_t>& pending) {
  const auto& r = std::get<BatchReq>(env.payload);
  TxnCtx& ctx = ctx_of(r.txn, r.kind, r.coordinator);
  for (size_t i = 0; i < r.ops.size(); ++i) {
    if (pending[i] == 0) continue;
    const BatchOp& op = r.ops[i];
    if (op.op == BatchOpKind::kWrite) {
      StagedWrite w;
      w.value = op.value;
      w.is_copier = op.is_copier_write;
      w.copier_version = op.copier_version;
      w.missed = op.missed_sites;
      w.written = op.written_sites;
      ctx.writes[op.item] = std::move(w);
      metrics_.inc(metrics_.id.dm_writes_staged);
      resp.results[i].code = Code::kOk;
      continue;
    }
    auto wit = ctx.writes.find(op.item);
    if (wit != ctx.writes.end()) {
      // Read-own-write (not a database read; nothing recorded).
      resp.results[i] =
          BatchOpResult{Code::kOk, wit->second.value, Version{0, r.txn}};
      continue;
    }
    const Copy* copy = kv().find(op.item);
    assert(copy != nullptr);
    // NOT recorded here: the requesting coordinator records the read
    // when it consumes the response. A serve can outlive the
    // requester -- a read parked on an unreadable copy may only be
    // served after the coordinator timed out, failed over to another
    // copy and committed -- and recording such an orphaned serve
    // would attribute a read the transaction never used,
    // manufacturing false conflict-graph edges.
    metrics_.inc(metrics_.id.dm_reads);
    resp.results[i] = BatchOpResult{Code::kOk, copy->value, copy->version};
  }
  resp.code = Code::kOk;
  for (const auto& res : resp.results) {
    if (res.code != Code::kOk) {
      resp.code = res.code;
      break;
    }
  }
  // The next hop's locks are requested only now that this site
  // holds all of its own: ascending site order, as if the
  // coordinator had sent each batch after the previous reply.
  forward_chain(env, resp);
  if (resp.code != Code::kOk || r.prepare.empty()) {
    rpc_.respond(env, std::move(resp));
    return;
  }
  // Early vote: this site is in the prepare set and every op
  // succeeded, so prepare now exactly as on_prepare would.
  const bool forced = prepare(ctx, r.prepare);
  resp.vote_yes = true;
  resp.version_counters = vote_counters(ctx);
  respond_vote(env, std::move(resp), forced);
}

// The coordinator gives back a granted no-wait batch: the busy round falls
// back to the chain, which will send this site its batch again. The
// prepared state and its log record stay: the chain's batch stages the same
// writes and votes anew, and an abort still resolves the record.
void DataManager::on_retract(const Envelope& env) {
  const auto& req = std::get<RetractReq>(env.payload);
  TxnCtx* ctx = find_ctx(req.txn);
  if (ctx == nullptr || !ctx->retractable) return;
  ctx->retractable = false;
  ctx->writes.clear();
  const auto grants = std::move(ctx->nowait_grants);
  ctx->nowait_grants.clear();
  lm_.retract(req.txn, grants); // grant callbacks may run inside
}

// ---------------------------------------------------------------------------
// status table ops (type-1 control transaction, Section 5 bookkeeping)

void DataManager::on_status_take(Envelope& env) {
  const auto& req = std::get<StatusTakeReq>(env.payload);
  if (is_closed(req.txn)) {
    reply_code(env, Code::kAborted);
    return;
  }
  const Code c = admit(0, TxnKind::kControlUp);
  if (c != Code::kOk) {
    reply_code(env, c);
    return;
  }
  ctx_of(req.txn, TxnKind::kControlUp, req.coordinator);
  const TxnId txn = req.txn;
  const ItemId lock = status_item(req.recovering_site);
  // Exclusive: the clear staged with the read must remove exactly what was
  // read, so writers that would add entries wait until the control
  // transaction commits or aborts.
  start_chain(txn, std::move(env), {{lock, LockMode::kExclusive}},
              [this](Envelope& env) {
                const auto& r = std::get<StatusTakeReq>(env.payload);
                TxnCtx& ctx =
                    ctx_of(r.txn, TxnKind::kControlUp, r.coordinator);
                StatusTakeResp resp;
                resp.txn = r.txn;
                if (cfg_.recovery_scheme == RecoveryScheme::kSpooler) {
                  resp.spool = stable_.spool().records_for(
                      r.recovering_site, r.spool_served);
                } else if (cfg_.outdated_strategy ==
                           OutdatedStrategy::kFailLock) {
                  for (ItemId x : status_.fl_items()) {
                    resp.entries.push_back(StatusEntry{x, kInvalidSite});
                  }
                } else if (cfg_.outdated_strategy ==
                           OutdatedStrategy::kMissingList) {
                  resp.entries = status_.ml_entries();
                }
                // Applied by apply_commit, dropped with the context on
                // abort.
                ctx.status_clear = true;
                ctx.clear_for = r.recovering_site;
                ctx.clear_fail_locks = r.clear_fail_locks;
                rpc_.respond(env, std::move(resp));
              });
}

// ---------------------------------------------------------------------------
// two-phase commit, participant side

void DataManager::on_prepare(const Envelope& env) {
  const auto& req = std::get<PrepareReq>(env.payload);
  TxnCtx* ctx = find_ctx(req.txn);
  if (ctx == nullptr || is_closed(req.txn)) {
    // Unknown transaction: either we crashed since serving it (all its
    // locks and context are gone -- committing would be unsound, cf. the
    // vanished-S-lock hazard) or we unilaterally aborted it. Vote no.
    metrics_.inc(metrics_.id.dm_vote_no_unknown);
    rpc_.respond(env, PrepareResp{req.txn, false, {}});
    return;
  }
  const bool forced = prepare(*ctx, req.participants);
  respond_vote(env, PrepareResp{req.txn, true, vote_counters(*ctx)}, forced);
}

bool DataManager::prepare(TxnCtx& ctx, const SiteVec& participants) {
  ctx.participants = participants;
  if (!ctx.prepared) {
    ctx.prepared = true;
    if (ctx.activity_timer != 0) {
      sched_.cancel(ctx.activity_timer);
      ctx.activity_timer = 0;
    }
    // The outcome of a transaction this site coordinates arrives over
    // loopback, which loses nothing; a crash takes the context with it.
    if (ctx.coordinator != self_) arm_termination_timer(ctx.txn);
  }
  // The record is written once, with the first staged writes: a vote given
  // with the NS snapshot holds none yet, and a batch the chain resends
  // after a retract stages the same writes again.
  bool forced_log = false;
  if (!ctx.logged_prepare && !ctx.writes.empty()) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kPrepare;
    rec.txn = ctx.txn;
    rec.txn_kind = ctx.kind;
    rec.coordinator = ctx.coordinator;
    for (const auto& [item, w] : ctx.writes) {
      rec.writes.push_back(
          WalWrite{item, w.value, w.is_copier, w.copier_version, w.missed});
    }
    stable_.wal().append(std::move(rec));
    ctx.logged_prepare = true;
    forced_log = true;
  }
  return forced_log;
}

VoteCounters DataManager::vote_counters(const TxnCtx& ctx) const {
  VoteCounters counters;
  for (const auto& [item, w] : ctx.writes) {
    const Copy* copy = kv().find(item);
    counters.push_back(ItemCounter{item, copy ? copy->version.counter : 0});
  }
  return counters;
}

void DataManager::respond_vote(const Envelope& env, Payload vote,
                               bool forced) {
  // Read-only participants skip the force (nothing was logged), and the
  // in-memory engine is durable at append, so its force completes inline:
  // both answer now, without building a flush continuation on the heap.
  if (!forced || cfg_.storage_engine != StorageEngineKind::kDurable) {
    rpc_.respond(env, std::move(vote));
    return;
  }
  // The durable engine charges a group-commit disk write first.
  const uint64_t epoch = boot_epoch_;
  stable_.flush([this, env, vote = std::move(vote), epoch]() mutable {
    if (epoch != boot_epoch_) return; // crashed while the flush was queued
    rpc_.respond(env, std::move(vote));
  });
}

void DataManager::on_commit(const Envelope& env) {
  const auto& req = std::get<CommitReq>(env.payload);
  if (req.late_batches) close_txn(req.txn);
  TxnCtx* ctx = find_ctx(req.txn);
  if (ctx == nullptr) {
    // Crashed since voting (in-doubt resolution will redo from the WAL) or
    // duplicate delivery after apply. Ack positively only if we know we
    // applied it; otherwise refuse so the coordinator keeps its outcome
    // record for our eventual query.
    const OutcomeRec* known = stable_.find_outcome(req.txn);
    rpc_.respond(env, AckResp{req.txn, known && known->committed
                                           ? Code::kOk
                                           : Code::kRejected});
    return;
  }
  apply_commit(*ctx, req.new_counters);
  rpc_.respond(env, AckResp{req.txn, Code::kOk});
}

void DataManager::apply_commit(
    TxnCtx& ctx, const std::vector<std::pair<ItemId, uint64_t>>& counters) {
  const TxnId txn = ctx.txn;
  if (ctx.termination_timer != 0) sched_.cancel(ctx.termination_timer);
  if (ctx.activity_timer != 0) sched_.cancel(ctx.activity_timer);
  if (ctx.logged_prepare) {
    stable_.wal().append(
        WalRecord{WalRecord::Kind::kCommit, txn, ctx.kind, ctx.coordinator,
                  {}, counters});
  }
  auto counter_of = [&counters](ItemId item) -> uint64_t {
    for (const auto& [i, c] : counters) {
      if (i == item) return c;
    }
    assert(false && "commit lacks a counter for a staged item");
    return 0;
  };
  for (const auto& [item, w] : ctx.writes) {
    install_write(txn, item, w, w.is_copier ? 0 : counter_of(item));
  }
  if (ctx.status_clear) {
    status_.ml_remove_all_for(ctx.clear_for);
    stable_.spool().trim(ctx.clear_for);
    if (ctx.clear_fail_locks) status_.fl_clear();
  }
  if (ctx.recovery_actions) {
    for (ItemId item : ctx.marks) {
      if (kv().exists(item)) kv().mark_unreadable(item);
    }
    for (const StatusEntry& e : ctx.ml_rebuild) {
      if (e.site == kInvalidSite) {
        status_.fl_add(e.item); // fail-lock rebuild entry
      } else {
        status_.ml_add(e.item, e.site);
      }
    }
    apply_spool_records(ctx.replay);
    metrics_.inc(metrics_.id.dm_recovery_marks,
                 static_cast<int64_t>(ctx.marks.size()));
  }
  // Outcome records exist to answer redo/termination queries; only
  // participants that logged a prepare (i.e. can be in doubt) need them.
  // Recording for read-only participants would grow stable storage by one
  // entry per read transaction with nobody ever asking.
  // Never clobber an existing record: when this site also coordinated the
  // transaction, the decision record is already there and carries the
  // unacked-participant set that drives outcome GC.
  if (ctx.logged_prepare && stable_.find_outcome(txn) == nullptr) {
    OutcomeRec rec;
    rec.committed = true;
    rec.new_counters = counters;
    stable_.record_outcome(txn, std::move(rec));
  }
  ctxs_.erase(txn);
  lm_.release_all(txn);
  metrics_.inc(metrics_.id.dm_commits_applied);
  maybe_checkpoint_wal();
}

void DataManager::install_write(TxnId writer, ItemId item,
                                const StagedWrite& w, uint64_t counter) {
  if (w.is_copier) {
    const Copy* c = kv().find(item);
    // §5 short-circuit, judged on this data copy alone: counters of
    // different sites do not compare (a write made while every current
    // copy was down numbers from a stale copy's counter, below theirs).
    // The copy needs no install once a committed write has refreshed it
    // (it is no longer marked), or when it already holds this very write.
    // NS copies are never marked; a type-1's refresh of one keeps the
    // newer version.
    // PLANTED BUG (explorer self-validation only): copier-counter-compare
    // judges data copies by counter too, so a stale copy's higher counter
    // keeps it.
    const bool by_counter =
        !is_data_item(item) ||
        cfg_.planted_bug == PlantedBug::kCopierCounterCompare;
    const bool current =
        c != nullptr && (by_counter ? !(c->version < w.copier_version)
                                    : !c->unreadable ||
                                          c->version == w.copier_version);
    if (!current) {
      kv().install(item, w.value, w.copier_version);
      if (recorder_) {
        recorder_->add_write(writer, self_, item, w.copier_version.counter,
                             w.value, /*copier_install=*/true);
      }
      metrics_.inc(metrics_.id.dm_copier_installs);
    } else {
      kv().clear_mark(item);
      metrics_.inc(metrics_.id.dm_copier_skipped_current);
      metrics_.inc(metrics_.id.rec_refresh_skipped);
    }
    unpark_reads(item);
    return;
  }
  // Protocol invariant: writers of one item are serialized by strict 2PL
  // and the coordinator assigns max(counters)+1, so a non-copier install
  // strictly advances the copy's version. A violation here means the lock
  // or counter machinery broke -- fail loudly in debug builds.
  assert(!kv().exists(item) || kv().find(item)->version.counter < counter);
  kv().install(item, w.value, Version{counter, writer});
  if (recorder_ && !is_status_item(item)) {
    recorder_->add_write(writer, self_, item, counter, w.value, false);
  }
  if (is_data_item(item)) {
    switch (cfg_.recovery_scheme) {
      case RecoveryScheme::kSpooler:
        for (SiteId d : w.missed) {
          stable_.spool().add(d,
                              SpoolRecord{item, w.value, Version{counter,
                                                                 writer}});
        }
        break;
      case RecoveryScheme::kSessionVector:
        switch (cfg_.outdated_strategy) {
          case OutdatedStrategy::kMissingList:
            for (SiteId d : w.missed) status_.ml_add(item, d);
            for (SiteId j : w.written) status_.ml_remove(item, j);
            break;
          case OutdatedStrategy::kFailLock:
            if (!w.missed.empty()) status_.fl_add(item);
            break;
          case OutdatedStrategy::kMarkAll:
          case OutdatedStrategy::kMarkAllVersionCmp:
            break;
        }
        break;
    }
    if (!w.missed.empty()) {
      metrics_.inc(metrics_.id.dm_writes_with_missed_copies);
    }
  }
  unpark_reads(item);
}

void DataManager::on_abort(const Envelope& env) {
  const auto& req = std::get<AbortReq>(env.payload);
  fail_chains_of(req.txn, Code::kAborted);
  finish_abort(req.txn, /*log_abort=*/true);
  rpc_.respond(env, AckResp{req.txn, Code::kOk});
}

void DataManager::finish_abort(TxnId txn, bool log_abort) {
  drop_parked(txn);
  close_txn(txn);
  auto it = ctxs_.find(txn);
  if (it == ctxs_.end()) {
    lm_.release_all(txn); // read locks may exist without staged writes
    return;
  }
  TxnCtx& ctx = it->second;
  if (ctx.termination_timer != 0) sched_.cancel(ctx.termination_timer);
  if (ctx.activity_timer != 0) sched_.cancel(ctx.activity_timer);
  if (ctx.logged_prepare) {
    if (log_abort) {
      stable_.wal().append(WalRecord{WalRecord::Kind::kAbort, txn, ctx.kind,
                                     ctx.coordinator, {}, {}});
    }
    if (stable_.find_outcome(txn) == nullptr) {
      stable_.record_outcome(txn, OutcomeRec{false, {}, {}});
    }
  }
  ctxs_.erase(it);
  lm_.release_all(txn);
  metrics_.inc(metrics_.id.dm_aborts_applied);
  maybe_checkpoint_wal();
}

// ---------------------------------------------------------------------------
// cooperative termination (participant side of "transaction resolution")

void DataManager::arm_termination_timer(TxnId txn) {
  TxnCtx* ctx = find_ctx(txn);
  assert(ctx != nullptr);
  const uint64_t epoch = boot_epoch_;
  ctx->termination_timer =
      sched_.timeout(3 * cfg_.rpc_timeout, [this, txn, epoch]() {
        if (epoch != boot_epoch_) return;
        run_termination(txn, 0);
      });
}

void DataManager::run_termination(TxnId txn, size_t participant_idx) {
  TxnCtx* ctx = find_ctx(txn);
  if (ctx == nullptr || !ctx->prepared) return; // resolved meanwhile
  // Target 0 is the coordinator; then the other participants in turn.
  SiteId target = kInvalidSite;
  size_t idx = participant_idx;
  if (idx == 0) {
    target = ctx->coordinator;
  } else {
    size_t seen = 0;
    for (SiteId p : ctx->participants) {
      if (p == self_ || p == ctx->coordinator) continue;
      if (++seen == idx) {
        target = p;
        break;
      }
    }
  }
  if (target == kInvalidSite) {
    // Exhausted everyone without an answer: blocked (inherent to 2PC);
    // retry the whole round later.
    const uint64_t epoch = boot_epoch_;
    ctx->termination_timer =
        sched_.timeout(5 * cfg_.rpc_timeout, [this, txn, epoch]() {
          if (epoch != boot_epoch_) return;
          run_termination(txn, 0);
        });
    metrics_.inc(metrics_.id.dm_termination_blocked_round);
    return;
  }
  const uint64_t epoch = boot_epoch_;
  metrics_.inc(metrics_.id.dm_termination_queries);
  rpc_.send_request(
      target, OutcomeQuery{txn}, cfg_.rpc_timeout,
      [this, txn, idx, epoch](Code code, const Payload* payload) {
        if (epoch != boot_epoch_) return;
        TxnCtx* c = find_ctx(txn);
        if (c == nullptr || !c->prepared) return;
        if (code == Code::kOk && payload != nullptr) {
          const auto& resp = std::get<OutcomeResp>(*payload);
          // apply_commit/finish_abort erase the ctx; capture the
          // coordinator first so the late ack can still be addressed.
          const SiteId coord = c->coordinator;
          if (resp.outcome == Outcome::kCommitted) {
            // The answer does not say whether the chain was relaunched,
            // so a duplicate batch is refused either way.
            close_txn(txn);
            apply_commit(*c, resp.new_counters);
            metrics_.inc(metrics_.id.dm_termination_committed);
            send_outcome_ack(txn, coord);
            return;
          }
          if (resp.outcome == Outcome::kAborted) {
            // Presumed abort: the coordinator keeps no abort record, so
            // there is nothing to ack.
            finish_abort(txn, /*log_abort=*/true);
            metrics_.inc(metrics_.id.dm_termination_aborted);
            return;
          }
          if (idx == 0) {
            // The coordinator is alive and still deciding (an early vote
            // waits on later batches): it will send the outcome, and the
            // other participants know no more than it does. Ask it again
            // later.
            arm_termination_timer(txn);
            return;
          }
        }
        run_termination(txn, idx + 1);
      });
}

void DataManager::on_outcome_query(const Envelope& env) {
  const auto& req = std::get<OutcomeQuery>(env.payload);
  OutcomeResp resp;
  resp.txn = req.txn;
  if (const OutcomeRec* rec = stable_.find_outcome(req.txn)) {
    resp.outcome = rec->committed ? Outcome::kCommitted : Outcome::kAborted;
    resp.new_counters = rec->new_counters;
  } else if (txn_coordinator_site(req.txn) == self_ &&
             !(coordinating_ && coordinating_(req.txn))) {
    // Presumed abort: we coordinated it, it is over, and there is no stable
    // commit record. While our TM still runs the coordinator the answer is
    // unknown: an early vote can outwait the asker's termination timer
    // while later batches queue for locks, and the transaction may yet
    // commit.
    resp.outcome = Outcome::kAborted;
  } else {
    resp.outcome = Outcome::kUnknown;
  }
  rpc_.respond(env, std::move(resp));
}

void DataManager::on_outcome_ack(const Envelope& env) {
  const auto& req = std::get<OutcomeAck>(env.payload);
  stable_.ack_outcome(req.txn, req.from);
  rpc_.respond(env, AckResp{req.txn, Code::kOk});
}

void DataManager::send_outcome_ack(TxnId txn, SiteId coordinator) {
  if (coordinator == self_) {
    stable_.ack_outcome(txn, self_);
    return;
  }
  if (coordinator == kInvalidSite) return;
  // Fire-and-forget: a lost ack merely delays the coordinator's outcome GC
  // (the record stays answerable, which is the safe direction).
  rpc_.send_request(coordinator, OutcomeAck{txn, self_}, cfg_.rpc_timeout,
                    [](Code, const Payload*) {});
}

// ---------------------------------------------------------------------------
// ping / spool

void DataManager::on_ping(const Envelope& env) {
  rpc_.respond(env, Pong{state_.mode == SiteMode::kUp, state_.session});
}

void DataManager::on_spool_fetch(const Envelope& env) {
  const auto& req = std::get<SpoolFetchReq>(env.payload);
  SpoolFetchResp resp;
  resp.code = Code::kOk;
  resp.token = ++spool_serves_;
  resp.records = stable_.spool().serve(req.for_site, resp.token);
  rpc_.respond(env, std::move(resp));
}

void DataManager::on_spool_trim(const Envelope& env) {
  const auto& req = std::get<SpoolTrimReq>(env.payload);
  stable_.spool().trim(req.for_site);
  rpc_.respond(env, AckResp{0, Code::kOk});
}

// ---------------------------------------------------------------------------
// recovery-time local operations

void DataManager::stage_recovery_actions(TxnId txn, std::vector<ItemId> marks,
                                         std::vector<StatusEntry> ml_rebuild,
                                         std::vector<SpoolRecord> replay) {
  TxnCtx& ctx = ctx_of(txn, TxnKind::kControlUp, self_);
  ctx.recovery_actions = true;
  ctx.marks = std::move(marks);
  ctx.ml_rebuild = std::move(ml_rebuild);
  ctx.replay = std::move(replay);
}

void DataManager::mark_items(const std::vector<ItemId>& items) {
  size_t n = 0;
  for (ItemId item : items) {
    if (is_data_item(item) && kv().exists(item)) {
      kv().mark_unreadable(item);
      ++n;
    }
  }
  metrics_.inc(metrics_.id.dm_mark_all_items, static_cast<int64_t>(n));
}

void DataManager::install_prefetched_spool(
    const std::vector<SpoolRecord>& recs, std::vector<uint64_t> serve_tokens) {
  apply_spool_records(recs);
  prefetch_tokens_ = std::move(serve_tokens);
}

size_t DataManager::apply_spool_records(
    const std::vector<SpoolRecord>& recs) {
  size_t applied = 0;
  for (const auto& r : recs) {
    const Copy* c = kv().find(r.item);
    if (c == nullptr) continue; // not hosted here
    if (c->version < r.version) {
      const bool was_marked = c->unreadable;
      kv().install(r.item, r.value, r.version);
      if (was_marked) kv().mark_unreadable(r.item); // replay is not refresh
      if (recorder_) {
        recorder_->add_write(r.version.writer, self_, r.item,
                             r.version.counter, r.value,
                             /*copier_install=*/true);
      }
      ++applied;
    }
  }
  metrics_.inc(metrics_.id.dm_spool_applied, static_cast<int64_t>(applied));
  return applied;
}

// ---------------------------------------------------------------------------
// crash / boot / in-doubt resolution

void DataManager::crash() {
  ++boot_epoch_;
  lm_.clear();
  status_.clear();
  ctxs_.clear();
  chains_.clear();
  parked_.clear();
  closed_.clear();
  closed_order_.clear();
  deadlock_check_scheduled_ = false;
  clean_wait_epoch_ = ~0ull;
  prefetch_tokens_.clear();
  stable_.spool().forget_served();
}

void DataManager::boot() {
  ++boot_epoch_;
  deadlock_check_scheduled_ = false;
  // Rebuild the stable outcome log from the WAL (defensive; outcomes are
  // themselves recorded durably at apply time).
  for (const auto& rec : stable_.wal().records()) {
    if (rec.kind == WalRecord::Kind::kCommit &&
        stable_.find_outcome(rec.txn) == nullptr) {
      stable_.record_outcome(rec.txn, OutcomeRec{true, rec.new_counters, {}});
    } else if (rec.kind == WalRecord::Kind::kAbort &&
               stable_.find_outcome(rec.txn) == nullptr) {
      stable_.record_outcome(rec.txn, OutcomeRec{false, {}, {}});
    }
  }
}

void DataManager::resolve_in_doubt(
    const WalRecord& rec, bool committed,
    const std::vector<std::pair<ItemId, uint64_t>>& new_counters) {
  if (!committed) {
    stable_.wal().append(WalRecord{WalRecord::Kind::kAbort, rec.txn,
                                   rec.txn_kind, rec.coordinator, {}, {}});
    stable_.record_outcome(rec.txn, OutcomeRec{false, {}, {}});
    metrics_.inc(metrics_.id.dm_indoubt_aborted);
    return;
  }
  auto counter_of = [&new_counters](ItemId item) -> uint64_t {
    for (const auto& [i, c] : new_counters) {
      if (i == item) return c;
    }
    return 0;
  };
  for (const auto& w : rec.writes) {
    const Copy* c = kv().find(w.item);
    const Version v = w.is_copier_write
                          ? w.copier_version
                          : Version{counter_of(w.item), rec.txn};
    if (c != nullptr && c->version >= v) continue; // superseded while down
    // Redo installs the value but must preserve an unreadable mark: this
    // copy may still be missing *later* updates that recovery marking is
    // about to (or already did) flag.
    const bool was_marked = c != nullptr && c->unreadable;
    kv().install(w.item, w.value, v);
    if (was_marked) kv().mark_unreadable(w.item);
    if (recorder_) {
      recorder_->add_write(rec.txn, self_, w.item, v.counter, w.value,
                           w.is_copier_write);
    }
    // Re-create the Section-5 bookkeeping this write implied.
    if (is_data_item(w.item) &&
        cfg_.recovery_scheme == RecoveryScheme::kSessionVector) {
      if (cfg_.outdated_strategy == OutdatedStrategy::kMissingList) {
        for (SiteId d : w.missed_sites) status_.ml_add(w.item, d);
      } else if (cfg_.outdated_strategy == OutdatedStrategy::kFailLock &&
                 !w.missed_sites.empty()) {
        status_.fl_add(w.item);
      }
    }
  }
  stable_.wal().append(WalRecord{WalRecord::Kind::kCommit, rec.txn,
                                 rec.txn_kind, rec.coordinator, {},
                                 new_counters});
  if (stable_.find_outcome(rec.txn) == nullptr) {
    stable_.record_outcome(rec.txn, OutcomeRec{true, new_counters, {}});
  }
  metrics_.inc(metrics_.id.dm_indoubt_committed);
  send_outcome_ack(rec.txn, rec.coordinator);
}

// ---------------------------------------------------------------------------
// misc helpers

// A closed entry lives until no batch of its transaction can still arrive:
// the transaction's deadline (at most txn_timeout after its context ended
// here) plus the longest one-way delay. Both terms never fall, so the
// expiries are queued in order.
void DataManager::close_txn(TxnId txn) {
  const SimTime expiry =
      sched_.now() + cfg_.txn_timeout + rpc_.max_latency();
  closed_[txn] = expiry;
  closed_order_.emplace_back(expiry, txn);
  prune_closed();
}

bool DataManager::is_closed(TxnId txn) {
  prune_closed();
  return closed_.count(txn) > 0;
}

void DataManager::prune_closed() {
  const SimTime now = sched_.now();
  while (!closed_order_.empty() && closed_order_.front().first < now) {
    const auto [expiry, txn] = closed_order_.front();
    closed_order_.pop_front();
    // A later close of the same transaction re-queued it with a later
    // expiry; only that one removes it.
    if (auto it = closed_.find(txn); it != closed_.end() && it->second == expiry) {
      closed_.erase(it);
    }
  }
}

void DataManager::maybe_checkpoint_wal() {
  if (cfg_.wal_checkpoint_threshold == 0) return;
  if (stable_.wal().size() < cfg_.wal_checkpoint_threshold) return;
  // Participant-side outcome records duplicate the WAL's resolution facts
  // and exist only to answer other participants' termination queries
  // faster than waiting for the coordinator; they can be garbage-collected
  // with the checkpoint. Coordinator decision records are authoritative
  // under presumed abort and are only dropped by ack collection.
  for (const WalRecord& rec : stable_.wal().records()) {
    if (rec.kind != WalRecord::Kind::kPrepare &&
        txn_coordinator_site(rec.txn) != self_) {
      stable_.forget_outcome(rec.txn);
    }
  }
  stable_.wal().truncate_resolved();
  metrics_.inc(metrics_.id.dm_wal_checkpoints);
}

void DataManager::reply_code(const Envelope& env, Code code) {
  std::visit(
      [&](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, BatchReq>) {
          // A failed lock chain fails the whole batch: nothing was staged
          // or served, so every operation reports the chain's code.
          BatchResp resp;
          resp.txn = payload.txn;
          resp.code = code;
          resp.results.resize(payload.ops.size());
          for (auto& r : resp.results) r.code = code;
          rpc_.respond(env, std::move(resp));
        } else if constexpr (std::is_same_v<T, StatusTakeReq>) {
          StatusTakeResp resp;
          resp.txn = payload.txn;
          resp.code = code;
          rpc_.respond(env, std::move(resp));
        } else if constexpr (std::is_same_v<T, PrepareReq>) {
          rpc_.respond(env, PrepareResp{payload.txn, false, {}});
        } else if constexpr (std::is_same_v<T, CommitReq> ||
                             std::is_same_v<T, AbortReq>) {
          rpc_.respond(env, AckResp{payload.txn, code});
        }
      },
      env.payload);
}

void DataManager::forward_chain(Envelope& env, const BatchResp& resp) {
  auto& req = std::get<BatchReq>(env.payload);
  if (req.chain.empty()) return;
  // The coordinator aborts on any failed write and on any failed read it
  // cannot retry at another copy (kBusy included); then the chain stops
  // here.
  for (size_t i = 0; i < req.ops.size(); ++i) {
    const Code c = resp.results[i].code;
    const bool retried = req.ops[i].op == BatchOpKind::kRead &&
                         (c == Code::kUnreadable ||
                          c == Code::kSessionMismatch ||
                          c == Code::kSiteNotOperational);
    if (c != Code::kOk && !retried) return;
  }
  ChainHop& hop = req.chain.back();
  BatchReq next;
  next.txn = req.txn;
  next.kind = req.kind;
  next.coordinator = req.coordinator;
  next.expected_session = hop.expected_session;
  next.ops = std::move(hop.ops);
  next.prepare = std::move(hop.prepare);
  const SiteId to = hop.to;
  const uint64_t rpc_id = hop.rpc_id;
  next.dispatch = Dispatch::kChained;
  next.chain = std::move(req.chain);
  next.chain.pop_back();
  metrics_.inc(metrics_.id.dm_chain_forwards);
  rpc_.forward(env, rpc_id, to, std::move(next));
}

void DataManager::unpark_reads(ItemId item) {
  auto it = parked_.find(item);
  if (it == parked_.end()) return;
  std::vector<Envelope> envs = std::move(it->second);
  parked_.erase(it);
  const uint64_t epoch = boot_epoch_;
  for (auto& env : envs) {
    sched_.after(1, [this, env = std::move(env), epoch]() {
      if (epoch != boot_epoch_) return;
      handle_request(env);
    });
  }
}

void DataManager::drop_parked(TxnId txn) {
  for (auto it = parked_.begin(); it != parked_.end();) {
    auto& vec = it->second;
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [txn](const Envelope& e) {
                               return std::get<BatchReq>(e.payload).txn == txn;
                             }),
              vec.end());
    it = vec.empty() ? parked_.erase(it) : std::next(it);
  }
}

size_t DataManager::parked_read_count() const {
  size_t n = 0;
  for (const auto& [item, vec] : parked_) n += vec.size();
  return n;
}

} // namespace ddbs
