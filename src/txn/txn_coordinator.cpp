#include "txn/txn_coordinator.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/logging.h"
#include "replication/interpreter.h"

namespace ddbs {

namespace {

// The event that opens a coordinator's span.
TraceKind begin_kind(TxnKind k) {
  switch (k) {
    case TxnKind::kUser: return TraceKind::kTxnBegin;
    case TxnKind::kCopier: return TraceKind::kCopierStart;
    case TxnKind::kControlUp: return TraceKind::kControlUpStart;
    case TxnKind::kControlDown: return TraceKind::kControlDownStart;
  }
  return TraceKind::kTxnBegin;
}

} // namespace

CoordinatorBase::CoordinatorBase(TxnId txn, TxnKind kind,
                                 const CoordinatorEnv& env)
    : txn_(txn),
      kind_(kind),
      self_(env.self),
      cfg_(*env.cfg),
      sched_(*env.sched),
      rpc_(*env.rpc),
      cat_(*env.cat),
      stable_(*env.stable),
      state_(*env.state),
      metrics_(*env.metrics),
      recorder_(env.recorder),
      tracer_(env.tracer),
      started_(env.sched->now()) {
  if (recorder_) recorder_->set_kind(txn_, kind_);
  // The ambient span at construction time becomes the parent: a copier
  // launched from a recovery episode nests under it, a user transaction
  // submitted by the workload is a root.
  if (tracer_ != nullptr) {
    span_ = tracer_->reserve();
    parent_span_ = tracer_->current();
  }
}

CoordinatorBase::~CoordinatorBase() {
  for (EventId id : timers_) sched_.cancel(id);
  // Cancelling an already-answered request is a no-op, so the whole send
  // history can be swept without tracking completion.
  for (uint64_t id : rpcs_) rpc_.cancel_request(id);
  Tracer::close(tracer_, span_, begin_kind(kind_), self_, txn_);
}

void CoordinatorBase::trace_begin(int64_t a, int64_t b) {
  if (tracer_ != nullptr) {
    tracer_->open_reserved(span_, parent_span_, begin_kind(kind_), self_,
                           txn_, a, b);
  }
}

uint64_t CoordinatorBase::send_request(SiteId to, Payload payload,
                                       SimTime timeout,
                                       RpcEndpoint::ResponseCb cb) {
  const uint64_t id = expect_reply(std::move(cb));
  rpc_.arm_timeout(id, timeout);
  send_registered(id, to, std::move(payload));
  return id;
}

uint64_t CoordinatorBase::expect_reply(RpcEndpoint::ResponseCb cb) {
  const uint64_t id = rpc_.expect_reply(std::move(cb));
  rpcs_.push_back(id);
  return id;
}

void CoordinatorBase::send_registered(uint64_t rpc_id, SiteId to,
                                      Payload payload) {
  // Physical ops and the type-1's status takes open a DM context at `to`;
  // pings and the commit's own messages open none.
  auto batch_hold = [](const std::vector<BatchOp>& ops) {
    Hold hold = Hold::kReads;
    for (const BatchOp& op : ops) {
      if (op.op == BatchOpKind::kWrite) return Hold::kStaged;
      if (is_ns_item(op.item)) hold = Hold::kNsSnapshot;
    }
    return hold;
  };
  if (const auto* batch = std::get_if<BatchReq>(&payload)) {
    note_participant(to, batch_hold(batch->ops));
    for (const ChainHop& hop : batch->chain) {
      note_participant(hop.to, batch_hold(hop.ops));
    }
  } else if (std::holds_alternative<StatusTakeReq>(payload)) {
    note_participant(to, Hold::kStaged); // the clear it stages
  }
  rpc_.send_registered(rpc_id, to, std::move(payload));
}

void CoordinatorBase::note_participant(SiteId to, Hold hold) {
  Participant& p = participants_[to];
  p.hold = std::max(p.hold, hold);
  p.voted = false;
}

void CoordinatorBase::schedule(SimTime delay, EventFn fn) {
  timers_.push_back(sched_.timeout(delay, [this, fn = std::move(fn)]() mutable {
    SpanScope scope(tracer_, span_);
    fn();
  }));
}

void CoordinatorBase::retire_later() {
  if (retired_) return;
  retired_ = true;
  // Deferred: the caller may still be on this object's stack.
  if (retire_) {
    sched_.after(1, [retire = retire_, txn = txn_]() { retire(txn); });
  }
}

std::vector<SiteId> CoordinatorBase::all_sites() const {
  std::vector<SiteId> sites(static_cast<size_t>(cfg_.n_sites));
  std::iota(sites.begin(), sites.end(), SiteId{0});
  return sites;
}

void CoordinatorBase::read_ns_vector(SiteId at, SessionNum expected_at,
                                     std::function<void(bool)> k,
                                     const std::vector<SiteId>& skip) {
  // Full vector minus the skip set, by sorted set difference (the old
  // per-index std::find scan was O(n_sites x |skip|)). Skipped entries
  // simply stay absent from the sparse view_, which reads them as 0.
  std::vector<SiteId> sorted_skip = skip;
  std::sort(sorted_skip.begin(), sorted_skip.end());
  std::vector<SiteId> sites;
  sites.reserve(static_cast<size_t>(cfg_.n_sites));
  auto it = sorted_skip.begin();
  for (SiteId idx = 0; idx < cfg_.n_sites; ++idx) {
    while (it != sorted_skip.end() && *it < idx) ++it;
    if (it != sorted_skip.end() && *it == idx) continue;
    sites.push_back(idx);
  }
  read_ns_entries(at, std::move(sites), expected_at, std::move(k));
}

// The requested NS entries travel in one BatchReq. The DM serves the reads
// in index order under one lock chain -- the order control transactions
// write NS entries in, which keeps NS-lock deadlocks rare (and the detector
// catches the rest); the first failing entry fails the vector read.
void CoordinatorBase::read_ns_entries(SiteId at, std::vector<SiteId> sites,
                                      SessionNum expected_at,
                                      std::function<void(bool)> k,
                                      bool vote) {
  metrics_.inc(metrics_.id.txn_ns_reads,
               static_cast<int64_t>(sites.size()));
  // Sent even when `sites` is empty (a transaction with no ops): the read
  // is what makes `at` a participant.
  BatchReq req = batch_header(expected_at);
  if (vote) req.prepare = {at};
  req.ops.reserve(sites.size());
  for (SiteId idx : sites) {
    BatchOp op;
    op.op = BatchOpKind::kRead;
    op.item = ns_item(idx);
    req.ops.push_back(std::move(op));
  }
  send_request(
      at, std::move(req), cfg_.lock_timeout + cfg_.rpc_timeout,
      [this, at, sites = std::move(sites), k = std::move(k)](
          Code code, const Payload* payload) {
        if (decided_) return;
        if (code != Code::kOk) {
          if (code == Code::kTimeout) suspect(at);
          k(false);
          return;
        }
        const auto& resp = std::get<BatchResp>(*payload);
        if (resp.code != Code::kOk) {
          k(false);
          return;
        }
        for (size_t j = 0; j < sites.size(); ++j) {
          const BatchOpResult& r = resp.results[j];
          record_read(at, ns_item(sites[j]), r.version);
          view_.set(sites[j], static_cast<SessionNum>(r.value), r.version);
        }
        if (resp.vote_yes) {
          count_yes_vote(participants_.at(at), resp.version_counters);
        }
        k(true);
      });
}

BatchReq CoordinatorBase::batch_header(SessionNum expected) const {
  BatchReq req;
  req.txn = txn_;
  req.kind = kind_;
  req.coordinator = self_;
  req.expected_session = expected;
  return req;
}

void CoordinatorBase::send_writes_seq(std::vector<PlannedWrite> writes,
                                      std::function<void(bool, Code)> k) {
  last_write_timeouts_.clear();
  auto st = std::make_shared<WriteSeqState>();
  for (auto& pw : writes) {
    // A run of consecutive writes to one destination shares a BatchReq
    // (same envelope-level session stamp required). Non-adjacent writes to
    // the same site stay separate: collapsing them would reorder the
    // caller's canonical send order.
    WriteGroup* back = st->groups.empty() ? nullptr : &st->groups.back();
    if (back == nullptr || back->to != pw.to ||
        back->req.expected_session != pw.expected_session) {
      st->groups.push_back(
          WriteGroup{pw.to, batch_header(pw.expected_session)});
      back = &st->groups.back();
    }
    back->req.ops.push_back(std::move(pw.op));
  }
  st->k = std::move(k);
  write_seq_step(std::move(st), 0);
}

CoordinatorBase::PlannedWrite CoordinatorBase::ns_write(SiteId to,
                                                       SiteId entry,
                                                       Value value) {
  PlannedWrite w;
  w.to = to;
  w.op.op = BatchOpKind::kWrite;
  w.op.item = ns_item(entry);
  w.op.value = value;
  return w;
}

void CoordinatorBase::write_seq_step(std::shared_ptr<WriteSeqState> st,
                                     size_t i) {
  if (i >= st->groups.size()) {
    st->k(true, Code::kOk);
    return;
  }
  const SiteId to = st->groups[i].to;
  BatchReq req = std::move(st->groups[i].req);
  send_request(
      to, std::move(req), cfg_.lock_timeout + cfg_.rpc_timeout,
      [this, to, i, st = std::move(st)](Code code,
                                        const Payload* payload) mutable {
        if (decided_) return;
        Code rc = code;
        if (code == Code::kOk && payload != nullptr) {
          rc = std::get<BatchResp>(*payload).code; // first failing op's code
        }
        if (rc != Code::kOk) {
          if (rc == Code::kTimeout) {
            suspect(to);
            last_write_timeouts_.push_back(to);
          }
          st->k(false, rc);
          return;
        }
        write_seq_step(std::move(st), i + 1);
      });
}

void CoordinatorBase::run_commit(std::function<void(bool)> k) {
  assert(participants_.count(self_) == 1);
  commit_k_ = std::move(k);
  const bool staged = std::any_of(
      participants_.begin(), participants_.end(),
      [](const auto& p) { return p.second.hold == Hold::kStaged; });
  assert(!staged || participants_.at(self_).hold != Hold::kReads);
  if (!staged) {
    decided_ = true;
    if (recorder_) recorder_->commit(txn_, sched_.now());
  }
  // Released sites know no outcome, so the prepare lists only the sites
  // that will learn it.
  PrepareReq req;
  req.txn = txn_;
  req.coordinator = self_;
  CommitReq release;
  release.txn = txn_;
  release.late_batches = late_batches_;
  for (auto it = participants_.begin(); it != participants_.end();) {
    if (staged && it->second.hold != Hold::kReads) {
      req.participants.push_back(it->first);
      if (!it->second.voted) ++votes_pending_;
      ++it;
    } else {
      // Nothing to learn and nothing to ack, except at this site, whose
      // ack reports the read-only commit.
      if (it->first == self_) {
        send_commit(self_, release);
      } else {
        rpc_.send_oneway(it->first, release);
      }
      it = participants_.erase(it);
    }
  }
  if (!staged) return;
  if (votes_pending_ == 0) {
    decide(); // every prepared site voted with its last batch
    return;
  }
  for (const auto& [p, part] : participants_) {
    if (part.voted) continue;
    send_request(
        p, req, cfg_.rpc_timeout,
        [this, p](Code code, const Payload* payload) {
          if (decided_) return;
          const auto* resp = code == Code::kOk && payload != nullptr
                                 ? &std::get<PrepareResp>(*payload)
                                 : nullptr;
          if (resp != nullptr && resp->vote_yes) {
            count_yes_vote(participants_.at(p), resp->version_counters);
          } else {
            any_no_ = true;
            if (code == Code::kTimeout) {
              suspect(p);
              last_prepare_timeouts_.push_back(p);
            }
          }
          if (--votes_pending_ == 0) decide();
        });
  }
}

void CoordinatorBase::count_early_vote(SiteId site, const BatchResp& resp) {
  if (!resp.vote_yes) return;
  metrics_.inc(metrics_.id.txn_early_votes);
  count_yes_vote(participants_.at(site), resp.version_counters);
}

void CoordinatorBase::count_yes_vote(Participant& p,
                                     const VoteCounters& counters) {
  p.voted = true;
  if (!counters.empty()) p.logged_prepare = true;
  for (const auto& [item, ctr] : counters) {
    auto& slot = max_counters_[item];
    if (ctr > slot) slot = ctr;
  }
}

void CoordinatorBase::decide() {
  decided_ = true;
  if (any_no_) {
    metrics_.inc(metrics_.id.txn_2pc_vote_abort);
    send_aborts();
    if (recorder_) recorder_->abort(txn_);
    auto cb = std::move(commit_k_);
    if (cb) cb(false);
    retire_later();
    return;
  }
  // Commit: assign final version counters, log the decision durably
  // (presumed abort), then tell every prepared site.
  CommitReq creq;
  creq.txn = txn_;
  creq.late_batches = late_batches_;
  for (const auto& [item, ctr] : max_counters_) {
    creq.new_counters.emplace_back(item, ctr + 1);
  }
  OutcomeRec decision{true, creq.new_counters, {}};
  for (const auto& [site, part] : participants_) {
    if (part.logged_prepare) decision.unacked.push_back(site);
  }
  stable_.record_outcome(txn_, std::move(decision));
  if (recorder_) recorder_->commit(txn_, sched_.now());
  for (const auto& entry : participants_) {
    send_commit(entry.first, creq);
  }
}

void CoordinatorBase::send_commit(SiteId q, const CommitReq& req) {
  ++acks_pending_;
  send_request(q, req, cfg_.rpc_timeout,
               [this, q](Code code, const Payload* payload) {
                 // A positive ack means the participant durably applied
                 // the outcome; erase it from the decision record's
                 // unacked set. The record is forgotten when the set
                 // empties. Missing acks (crash, timeout) keep the record
                 // answerable for the eventual OutcomeQuery/OutcomeAck.
                 if (code == Code::kOk && payload != nullptr &&
                     std::get<AckResp>(*payload).code == Code::kOk) {
                   stable_.ack_outcome(txn_, q);
                 }
                 if (q == self_) {
                   // Local apply done: the caller may proceed.
                   auto cb = std::move(commit_k_);
                   if (cb) cb(true);
                 }
                 if (--acks_pending_ == 0) retire_later();
               });
}

void CoordinatorBase::send_aborts() {
  for (const auto& entry : participants_) {
    send_request(entry.first, AbortReq{txn_}, cfg_.rpc_timeout,
                 [](Code, const Payload*) {});
  }
}

void CoordinatorBase::abort_txn(Code reason) {
  if (decided_) return;
  decided_ = true;
  if (recorder_) recorder_->abort(txn_);
  send_aborts();
  report_aborted(reason);
  retire_later();
}

void CoordinatorBase::report_aborted(Code reason) {
  metrics_.inc(metrics_.id.txn_abort[static_cast<size_t>(reason)]);
  // b = TxnKind so trace consumers (time series) can single out user txns.
  trace(TraceKind::kTxnAbort, static_cast<int64_t>(reason),
        static_cast<int64_t>(kind_));
  if (done_) {
    TxnResult res;
    res.txn = txn_;
    res.committed = false;
    res.reason = reason;
    done_(res);
  }
}

void CoordinatorBase::report_committed(std::vector<Value> reads) {
  metrics_.inc(metrics_.id.txn_committed);
  if (kind_ == TxnKind::kUser) {
    metrics_.hist(metrics_.id.h_commit_latency_us)
        .add(static_cast<double>(sched_.now() - started_));
  }
  trace(TraceKind::kTxnCommit, 0, static_cast<int64_t>(kind_));
  if (done_) {
    TxnResult res;
    res.txn = txn_;
    res.committed = true;
    res.reads = std::move(reads);
    done_(res);
  }
}

// ---------------------------------------------------------------------------
// UserTxnCoordinator

UserTxnCoordinator::UserTxnCoordinator(TxnId txn, const CoordinatorEnv& env,
                                       TxnSpec spec)
    : CoordinatorBase(txn, TxnKind::kUser, env), spec_(std::move(spec)) {}

std::vector<SiteId> UserTxnCoordinator::host_set() const {
  if (!cfg_.footprint_ns) return all_sites();
  std::vector<SiteId> hosts;
  for (const LogicalOp& op : spec_.ops) {
    const auto sites = cat_.sites_of(op.item);
    hosts.insert(hosts.end(), sites.begin(), sites.end());
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return hosts;
}

void UserTxnCoordinator::start() {
  trace_begin(0, static_cast<int64_t>(kind_));
  // Overall deadline: a transaction stuck behind a parked read or a silent
  // participant aborts rather than lingering forever.
  schedule(cfg_.txn_timeout, [this]() {
    if (!decided_) abort_txn(Code::kTimeout);
  });
  // "Each user transaction implicitly reads the local copy of the nominal
  // session vector prior to any other operations" (Section 3.2). The TM
  // knows its own site's actual session number (shared variable, S. 3.1).
  // With footprint_ns, "the nominal session vector" shrinks to the entries
  // this transaction can consult at all: the sites hosting its read/write
  // set. Every read candidate, write target and missed-site record is
  // drawn from those sites, so freezing anything more is dead weight.
  auto resume = [this](bool ok) {
    if (decided_) return;
    if (!ok) {
      abort_txn(Code::kAborted);
      return;
    }
    run_batched_ops();
  };
  // The snapshot's site votes with the read: it is prepared whenever the
  // transaction writes, and usually gets no batch of its own.
  read_ns_entries(self_, host_set(), state_.session, std::move(resume),
                  /*vote=*/true);
}

void UserTxnCoordinator::finish_ops() {
  run_commit([this](bool committed) {
    if (committed) {
      if (!fell_back_) metrics_.inc(metrics_.id.txn_parallel_commits);
      report_committed(std::move(read_values_));
    } else {
      report_aborted(Code::kAborted);
    }
  });
}

// ---------------------------------------------------------------------------
// Whole-transaction batching. Reads target their first candidate, writes
// target every nominally-up copy; everything bound for one site rides a
// single BatchReq. All batches first go out at once, no-wait; if a site is
// busy, an ordered chain takes over from the lowest busy site, and there a
// site's locks are requested only once every earlier site holds its own,
// so concurrent writers of one item acquire its copies' X-locks in one
// global order and cannot deadlock across sites.

void UserTxnCoordinator::run_batched_ops() {
  auto st = std::make_shared<BatchRunState>();
  size_t n_reads = 0;
  auto batch_for = [&](SiteId to) -> SiteBatch& {
    for (auto& b : st->batches) {
      if (b.to == to) return b;
    }
    SiteBatch& b = st->batches.emplace_back();
    b.to = to;
    b.req = batch_header(view_.session(to));
    return b;
  };
  for (size_t i = 0; i < spec_.ops.size(); ++i) {
    const LogicalOp& op = spec_.ops[i];
    if (op.kind == OpKind::kRead) {
      const auto cands =
          read_candidates(cat_, cfg_.write_scheme, view_, op.item, self_);
      if (cands.empty()) {
        abort_txn(Code::kNoCopyAvailable);
        return;
      }
      // A read that precedes this transaction's own write of the item
      // cannot ride the batch (see BatchRunState::retries); it runs ahead
      // of dispatch through the same candidate ladder. A read AFTER such
      // a write stays in the batch: the DM's in-order serve hands it the
      // staged value exactly as sequential execution would.
      bool writes_before = false, writes_after = false;
      for (size_t j = 0; j < spec_.ops.size(); ++j) {
        if (spec_.ops[j].kind == OpKind::kWrite &&
            spec_.ops[j].item == op.item) {
          (j < i ? writes_before : writes_after) = true;
        }
      }
      if (writes_after && !writes_before) {
        st->retries.push_back(ReadRetry{op.item, n_reads++, 0});
        continue;
      }
      SiteBatch& b = batch_for(cands[0]);
      BatchOp bop;
      bop.op = BatchOpKind::kRead;
      bop.item = op.item;
      b.req.ops.push_back(std::move(bop));
      b.read_slot.push_back(n_reads++);
    } else {
      const WritePlan plan =
          write_plan(cat_, cfg_.write_scheme, view_, op.item);
      if (!plan.feasible) {
        metrics_.inc(metrics_.id.txn_write_infeasible);
        abort_txn(Code::kNoCopyAvailable);
        return;
      }
      for (SiteId target : plan.targets) { // ascending (catalog order)
        SiteBatch& b = batch_for(target);
        BatchOp bop;
        bop.op = BatchOpKind::kWrite;
        bop.item = op.item;
        bop.value = op.value;
        bop.missed_sites = plan.missed;
        bop.written_sites = plan.targets;
        b.req.ops.push_back(std::move(bop));
        b.read_slot.push_back(SIZE_MAX);
      }
    }
  }
  read_values_.assign(n_reads, 0);
  if (!st->retries.empty()) {
    retry_step(std::move(st)); // pre-write reads first; dispatch follows
    return;
  }
  dispatch_batches(std::move(st));
}

void UserTxnCoordinator::dispatch_batches(std::shared_ptr<BatchRunState> st) {
  st->dispatched = true;
  st->retries.clear();
  st->next_retry = 0;
  if (st->batches.empty()) {
    finish_ops();
    return;
  }
  std::sort(st->batches.begin(), st->batches.end(),
            [](const SiteBatch& a, const SiteBatch& b) { return a.to < b.to; });
  // Early votes: if anything is written, run_commit will prepare every
  // write target and this site (the NS snapshot's). Those are known now,
  // so their batches carry the set and each votes as its batch succeeds.
  SiteVec prepare;
  for (const SiteBatch& b : st->batches) {
    if (std::any_of(b.req.ops.begin(), b.req.ops.end(), [](const BatchOp& op) {
          return op.op == BatchOpKind::kWrite;
        })) {
      prepare.push_back(b.to);
    }
  }
  auto listed = [&prepare](SiteId s) {
    return std::find(prepare.begin(), prepare.end(), s) != prepare.end();
  };
  if (!prepare.empty() && !listed(self_)) {
    prepare.push_back(self_);
    std::sort(prepare.begin(), prepare.end());
  }
  for (SiteBatch& b : st->batches) {
    if (listed(b.to)) b.req.prepare = prepare;
  }
  DDBS_TRACE << "txn " << txn_ << " batched " << spec_.ops.size()
             << " ops over " << st->batches.size() << " sites";
  // The parallel round: a no-wait batch never waits on a lock, so its
  // budget is one round trip.
  for (size_t i = 0; i < st->batches.size(); ++i) {
    BatchReq req = st->batches[i].req;
    req.dispatch = Dispatch::kNoWait;
    send_request(st->batches[i].to, std::move(req), cfg_.rpc_timeout,
                 [this, st, i](Code code, const Payload* payload) {
                   on_round_reply(st, i, code, payload);
                 });
  }
}

// Round answers are taken in site order: site i counts once every lower
// site has answered without being busy. The lowest busy site starts the
// chain; answers from above it are only given back.
void UserTxnCoordinator::on_round_reply(
    const std::shared_ptr<BatchRunState>& st, size_t i, Code code,
    const Payload* payload) {
  if (decided_) return;
  const BatchResp* resp = code == Code::kOk && payload != nullptr
                              ? &std::get<BatchResp>(*payload)
                              : nullptr;
  SiteBatch& b = st->batches[i];
  b.answered = true;
  // A batch whose answer timed out may still reach its site, even after
  // the commit.
  if (code == Code::kTimeout) late_batches_ = true;
  if (i > st->chain_from) {
    retract(b.to, resp);
    return;
  }
  if (i != st->frontier) {
    b.round_code = code;
    if (resp != nullptr) b.round_resp = *resp;
    return;
  }
  if (!take_round_reply(st, i, code, resp)) return;
  for (++st->frontier; st->frontier < st->batches.size() &&
                       st->batches[st->frontier].answered;
       ++st->frontier) {
    const SiteBatch& f = st->batches[st->frontier];
    if (!take_round_reply(st, st->frontier, f.round_code,
                          f.round_code == Code::kOk ? &f.round_resp
                                                    : nullptr)) {
      return;
    }
  }
  if (st->frontier == st->batches.size()) retry_step(st);
}

bool UserTxnCoordinator::take_round_reply(
    const std::shared_ptr<BatchRunState>& st, size_t i, Code code,
    const BatchResp* resp) {
  if (resp == nullptr || resp->code != Code::kBusy) {
    // A timeout here is not reported to the failure detector: every
    // transaction that touches a crashed site hits it at once in the
    // round, and each report would have its site verify and declare the
    // crash itself (a type-2 per reporter). The ring watchers find it.
    return consume_batch_resp(*st, i, code, resp, /*report_timeouts=*/false);
  }
  // Site i is the lowest busy one. Grants below it stay, every grant above
  // it is given back, and the chain runs from it up: a transaction waits
  // for a lock only in the chain, holding (or retracting) locks at lower
  // sites only, so no wait-for cycle can form.
  metrics_.inc(metrics_.id.txn_parallel_fallbacks);
  metrics_.inc(resp->busy_queued ? metrics_.id.txn_parallel_fallbacks_queued
                                 : metrics_.id.txn_parallel_fallbacks_held);
  fell_back_ = true;
  st->chain_from = i;
  for (size_t j = i + 1; j < st->batches.size(); ++j) {
    const SiteBatch& b = st->batches[j];
    if (b.answered) {
      retract(b.to, b.round_code == Code::kOk ? &b.round_resp : nullptr);
    }
  }
  for (size_t j = i; j < st->batches.size(); ++j) {
    st->batches[j].rpc_id = expect_reply(
        [this, st, j](Code code, const Payload* payload) {
          on_hop_reply(st, j, code, payload);
        });
  }
  st->unresolved = st->batches.size() - i;
  launch_hop(*st, i);
  return false;
}

void UserTxnCoordinator::retract(SiteId to, const BatchResp* resp) {
  // A busy site holds nothing. A silent one may (its answer was lost), and
  // a retract that finds nothing is dropped.
  if (resp != nullptr && resp->code == Code::kBusy) return;
  metrics_.inc(metrics_.id.txn_retracts);
  rpc_.send_oneway(to, RetractReq{txn_});
}

void UserTxnCoordinator::launch_hop(BatchRunState& st, size_t i) {
  const SiteBatch& b = st.batches[i];
  BatchReq req = b.req;
  req.dispatch = Dispatch::kChained;
  req.chain.reserve(st.batches.size() - i - 1);
  for (size_t j = st.batches.size() - 1; j > i; --j) {
    const SiteBatch& h = st.batches[j];
    if (h.resolved) continue;
    req.chain.push_back(ChainHop{h.to, h.rpc_id, h.req.expected_session,
                                 h.req.ops, h.req.prepare});
  }
  rpc_.arm_timeout(b.rpc_id, cfg_.lock_timeout + cfg_.rpc_timeout);
  send_registered(b.rpc_id, b.to, std::move(req));
}

void UserTxnCoordinator::on_hop_reply(const std::shared_ptr<BatchRunState>& st,
                                      size_t i, Code code,
                                      const Payload* payload) {
  if (decided_) return;
  st->batches[i].resolved = true;
  --st->unresolved;
  const BatchResp* resp = code == Code::kOk && payload != nullptr
                              ? &std::get<BatchResp>(*payload)
                              : nullptr;
  if (!consume_batch_resp(*st, i, code, resp)) return;
  const size_t next = i + 1;
  if (next < st->batches.size() && !st->batches[next].resolved) {
    if (code == Code::kTimeout) {
      // A read-only hop went silent (its reads are queued for the
      // fallback ladder). It may never have forwarded, so the chain
      // restarts at the next hop under that hop's own reply id. If the
      // forward did arrive, later hops may see their batch twice: while
      // the context lives, the second run restages the same writes and
      // answers an id that is already gone; once it has ended, the DM
      // refuses the batch (late_batches_).
      metrics_.inc(metrics_.id.txn_chain_relaunches);
      late_batches_ = true;
      launch_hop(*st, next);
    } else {
      rpc_.arm_timeout(st->batches[next].rpc_id,
                       cfg_.lock_timeout + cfg_.rpc_timeout);
    }
  }
  if (st->unresolved == 0) retry_step(st);
}

// Fold one site's batch response (null when the RPC failed with `code`)
// into the run. Returns false when the transaction aborted (a write failed
// -- WRITE is a conjunction over every nominally-up copy, Section 2).
// Failed reads queue for the fallback ladder instead: the *logical* read
// is a disjunction over candidates. DataManager::forward_chain passes the
// chain on exactly when this does not abort, so the two must agree on
// which read failures are retried.
bool UserTxnCoordinator::consume_batch_resp(BatchRunState& st, size_t i,
                                            Code code, const BatchResp* resp,
                                            bool report_timeouts) {
  const SiteBatch& b = st.batches[i];
  const SiteId to = b.to;
  // The site was reported already, or is not to be.
  bool suspected = !report_timeouts;
  if (code == Code::kTimeout && !suspected) {
    suspect(to); // whole-RPC loss: every op below fails with kTimeout
    suspected = true;
  }
  for (size_t j = 0; j < b.req.ops.size(); ++j) {
    const BatchOp& bop = b.req.ops[j];
    const Code rc = resp != nullptr ? resp->results[j].code : code;
    if (bop.op == BatchOpKind::kWrite) {
      if (rc != Code::kOk) {
        if (rc == Code::kTimeout && !suspected) suspect(to);
        abort_txn(rc);
        return false;
      }
      continue;
    }
    const size_t slot = b.read_slot[j];
    switch (rc) {
      case Code::kOk:
        record_read(to, bop.item, resp->results[j].version);
        read_values_[slot] = resp->results[j].value;
        break;
      case Code::kUnreadable:
        // Replay as a one-read batch from candidate 0 (the same site):
        // multi-op batches never park, but the lone kMayPark read does
        // under kBlock, and under kRedirect the ladder walks on from there.
        st.retries.push_back(ReadRetry{bop.item, slot, 0});
        break;
      case Code::kTimeout:
        if (!suspected) {
          suspect(to);
          suspected = true;
        }
        metrics_.inc(metrics_.id.txn_read_failover);
        st.retries.push_back(ReadRetry{bop.item, slot, 1});
        break;
      case Code::kSessionMismatch:
      case Code::kSiteNotOperational:
        // Our frozen view is stale for this site; READ is a disjunction,
        // so try the next copy.
        metrics_.inc(metrics_.id.txn_read_stale_view);
        st.retries.push_back(ReadRetry{bop.item, slot, 1});
        break;
      default:
        abort_txn(rc);
        return false;
    }
  }
  if (resp != nullptr) count_early_vote(to, *resp);
  return true;
}

void UserTxnCoordinator::retry_step(std::shared_ptr<BatchRunState> st) {
  if (decided_) return;
  if (st->next_retry >= st->retries.size()) {
    if (!st->dispatched) {
      dispatch_batches(std::move(st));
      return;
    }
    // A round batch still unanswered (above the chain's start) may yet
    // reach its site, even after the commit.
    for (const SiteBatch& b : st->batches) {
      if (!b.answered) late_batches_ = true;
    }
    finish_ops();
    return;
  }
  const ReadRetry& r = st->retries[st->next_retry];
  read_cands_ =
      read_candidates(cat_, cfg_.write_scheme, view_, r.item, self_);
  retry_read(std::move(st), r.cand_start);
}

void UserTxnCoordinator::retry_read(std::shared_ptr<BatchRunState> st,
                                    size_t candidate_idx) {
  if (decided_) return;
  if (candidate_idx >= read_cands_.size()) {
    abort_txn(Code::kNoCopyAvailable);
    return;
  }
  const ReadRetry& r = st->retries[st->next_retry];
  const SiteId target = read_cands_[candidate_idx];
  BatchReq req = batch_header(view_.session(target));
  BatchOp op;
  op.item = r.item;
  op.read_mode = ReadMode::kMayPark;
  req.ops.push_back(std::move(op));
  send_request(
      target, std::move(req), cfg_.lock_timeout + cfg_.rpc_timeout,
      [this, st = std::move(st), candidate_idx,
       target](Code code, const Payload* payload) mutable {
        if (decided_) return;
        Code rc = code;
        const BatchOpResult* res = nullptr;
        if (code == Code::kOk && payload != nullptr) {
          res = &std::get<BatchResp>(*payload).results[0];
          rc = res->code;
        }
        switch (rc) {
          case Code::kOk: {
            const ReadRetry& r = st->retries[st->next_retry];
            record_read(target, r.item, res->version);
            read_values_[r.slot] = res->value;
            ++st->next_retry;
            retry_step(std::move(st));
            return;
          }
          case Code::kUnreadable:
            // "may read some other copy instead" (Section 3.2).
            metrics_.inc(metrics_.id.txn_read_redirect);
            retry_read(std::move(st), candidate_idx + 1);
            return;
          case Code::kTimeout:
            suspect(target);
            metrics_.inc(metrics_.id.txn_read_failover);
            retry_read(std::move(st), candidate_idx + 1);
            return;
          case Code::kSessionMismatch:
          case Code::kSiteNotOperational:
            metrics_.inc(metrics_.id.txn_read_stale_view);
            retry_read(std::move(st), candidate_idx + 1);
            return;
          default:
            abort_txn(rc);
            return;
        }
      });
}

} // namespace ddbs
