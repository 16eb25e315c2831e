#include "recovery/recovery_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "recovery/failure_detector.h"

namespace ddbs {

namespace {
constexpr SimTime kRetryBackoff = 30'000; // between type-1 attempts
// Copier retry policy. A copier may fail transiently (conflict aborts) or
// because every source copy is unreachable ("totally failed", Section 3.2).
// Neither case may ever abandon the item: an unreadable copy must
// eventually be refreshed, so instead of a hard attempt cap the retry
// delay escalates -- doubling every kEscalateEvery failed attempts, capped
// at kMaxBackoffShift doublings -- and keeps going while the site is up.
constexpr int kEscalateEvery = 5;
constexpr int kMaxBackoffShift = 4;
} // namespace

SimTime RecoveryManager::copier_retry_delay(int attempts) const {
  int shift = attempts / kEscalateEvery;
  if (shift > kMaxBackoffShift) shift = kMaxBackoffShift;
  return (8 * env_.cfg->detector_interval) << shift;
}

SimTime RecoveryManager::type1_retry_delay(int attempt) const {
  // Watchdog self-validation: the historical fixed backoff, which
  // phase-locks against a concurrent type-2 on the same NS copies.
  if (env_.cfg->planted_stall) return kRetryBackoff;
  // Escalate AND de-phase. A fixed short backoff phase-locks the type-1
  // with a concurrent type-2 declaration of this very site: both write
  // the same NS copies, both retry on the same cadence after aborting
  // each other on lock conflicts, and neither ever commits. The detector
  // side already jitters; this side escalates (so a losing type-1 yields
  // the NS locks for progressively longer) and adds a deterministic
  // per-site, per-attempt skew so two recovering sites do not collide
  // with each other either.
  int shift = attempt / 4;
  if (shift > kMaxBackoffShift) shift = kMaxBackoffShift;
  const SimTime base = kRetryBackoff << shift;
  uint64_t h = static_cast<uint64_t>(env_.self) * 0x9e3779b97f4a7c15ull +
               static_cast<uint64_t>(attempt) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  return base + static_cast<SimTime>(h % static_cast<uint64_t>(base));
}

RecoveryManager::RecoveryManager(const CoordinatorEnv& env, DataManager& dm,
                                 TransactionManager& tm)
    : env_(env), dm_(dm), tm_(tm) {}

void RecoveryManager::on_crash() {
  ++epoch_;
  Tracer::close(env_.tracer, span_, TraceKind::kRecoveryStarted, env_.self);
  span_ = 0;
  copier_queue_.clear();
  copier_queued_.clear();
  copier_inflight_.clear();
  copier_attempts_.clear();
  delayed_retries_ = 0;
  ms_ = Milestones{};
}

void RecoveryManager::begin_recovery() {
  ++epoch_;
  ms_ = Milestones{};
  ms_.started = env_.sched->now();
  env_.metrics->inc(env_.metrics->id.rm_recoveries_started);
  // Close a leftover from a crash-free restart, then open this episode.
  Tracer::close(env_.tracer, span_, TraceKind::kRecoveryStarted, env_.self);
  span_ = Tracer::open(env_.tracer, TraceKind::kRecoveryStarted, env_.self);
  resolve_in_doubt(); // background; does not gate the procedure
  if (env_.cfg->recovery_scheme == RecoveryScheme::kSpooler) {
    spooler_prefetch();
    return;
  }
  // Step 2 (mark-all only): purely local marking before the control txn;
  // the other strategies collect their marks inside the control txn.
  // Items whose only copy lives here cannot have missed updates and are
  // skipped (they would otherwise strand as "totally failed").
  if (env_.cfg->outdated_strategy == OutdatedStrategy::kMarkAll ||
      env_.cfg->outdated_strategy == OutdatedStrategy::kMarkAllVersionCmp) {
    std::vector<ItemId> to_mark;
    for (ItemId x : env_.cat->items_at(env_.self)) {
      if (env_.cat->replica_count(x) > 1) to_mark.push_back(x);
    }
    // PLANTED BUG (explorer self-validation only): leave the highest
    // hosted item unmarked, so a copy that missed updates while this site
    // was down stays readable and stale -- the exact failure the mark-all
    // step exists to prevent.
    if (env_.cfg->planted_bug == PlantedBug::kSkipMark && !to_mark.empty()) {
      to_mark.pop_back();
    }
    dm_.mark_items(to_mark);
  }
  attempt_up(1);
}

// ---------------------------------------------------------------------------
// transaction resolution (the paper's "first problem", assumed solved --
// we solve it with cooperative termination against coordinator/participants)

void RecoveryManager::resolve_in_doubt() {
  for (const WalRecord& rec : dm_.in_doubt()) {
    resolve_one(rec);
  }
}

void RecoveryManager::resolve_one(const WalRecord& rec) {
  const SiteId coord = txn_coordinator_site(rec.txn);
  // Ask the coordinator first; it answers from its durable decision log or
  // by presumed abort. If unreachable, retry later (participants would be
  // asked too, but the coordinator answer is always definitive).
  const uint64_t epoch = epoch_;
  env_.metrics->inc(env_.metrics->id.rm_indoubt_queries);
  env_.rpc->send_request(
      coord, OutcomeQuery{rec.txn}, env_.cfg->rpc_timeout,
      [this, rec, epoch](Code code, const Payload* payload) {
        if (epoch != epoch_) return;
        if (code == Code::kOk && payload != nullptr) {
          const auto& resp = std::get<OutcomeResp>(*payload);
          if (resp.outcome == Outcome::kCommitted) {
            dm_.resolve_in_doubt(rec, true, resp.new_counters);
            return;
          }
          if (resp.outcome == Outcome::kAborted) {
            dm_.resolve_in_doubt(rec, false, {});
            return;
          }
        }
        // Coordinator silent or unsure: retry after a while.
        env_.sched->after(5 * env_.cfg->rpc_timeout, [this, rec, epoch]() {
          if (epoch != epoch_) return;
          resolve_one(rec);
        });
      });
}

// ---------------------------------------------------------------------------
// steps 3 & 4

void RecoveryManager::attempt_up(int attempt) {
  if (attempt > env_.cfg->control_retry_limit) {
    // Never abandon. A site that stops retrying is stranded in
    // kRecovering forever -- Site::recover() refuses a non-down site, so
    // nothing can ever revive it, and transient NS-lock contention (a
    // type-2 declaring this very site down, racing our type-1) turns
    // into permanent unavailability. Instead: cool down long enough for
    // the competing declaration to win its locks and commit, then
    // restart the attempt cycle against the now-quiet NS copies.
    env_.metrics->inc(env_.metrics->id.rm_gave_up);
    if (env_.cfg->planted_stall) {
      // Historical behavior: stop retrying. The site is now stranded in
      // kRecovering forever -- the stall the watchdog must catch.
      DDBS_WARN << "site " << env_.self << " type-1 cycle exhausted after "
                << attempt << " attempts; giving up (planted stall)";
      return;
    }
    DDBS_WARN << "site " << env_.self << " type-1 cycle exhausted after "
              << attempt << " attempts; cooling down and restarting";
    const uint64_t epoch = epoch_;
    env_.sched->after(16 * env_.cfg->detector_interval +
                          type1_retry_delay(attempt),
                      [this, epoch]() {
                        if (epoch != epoch_) return;
                        attempt_up(1);
                      });
    return;
  }
  ++ms_.type1_attempts;
  const uint64_t epoch = epoch_;
  // The control transaction's span nests under the recovery episode.
  SpanScope scope(env_.tracer, span_);
  tm_.run_control_up([this, attempt, epoch](const ControlUpResult& res) {
    if (epoch != epoch_) return;
    if (res.ok) {
      become_up(res.session);
      return;
    }
    if (!res.suspected_down.empty()) {
      // Step 4: another site died mid-recovery; exclude it, then retry.
      exclude_then_retry(res.suspected_down, attempt);
      return;
    }
    // Conflict with another control transaction, or no operational site
    // yet: back off (escalating + skewed) and retry.
    env_.sched->after(type1_retry_delay(attempt) *
                          (res.no_operational_site ? 4 : 1),
                      [this, attempt, epoch]() {
                        if (epoch != epoch_) return;
                        attempt_up(attempt + 1);
                      });
  });
}

void RecoveryManager::exclude_then_retry(std::vector<SiteId> dead,
                                         int attempt) {
  const uint64_t epoch = epoch_;
  // A timeout seen by the control transaction may be lock contention, not
  // death; a type-2 initiator must be SURE its claim is true (Section
  // 3.3), so ping-verify every suspect before declaring it.
  FailureDetector::verify_dead(
      env_, std::move(dead),
      [this, attempt, epoch](std::vector<SiteId> confirmed) {
        if (epoch != epoch_) return;
        if (confirmed.empty()) {
          // False suspicion (contention): just retry the type-1 later.
          env_.metrics->inc(env_.metrics->id.rm_false_suspicion);
          env_.sched->after(type1_retry_delay(attempt),
                            [this, attempt, epoch]() {
            if (epoch != epoch_) return;
            attempt_up(attempt + 1);
          });
          return;
        }
        // The coordinator reads the recovering site's stale NS copy
        // bypass-locked; targets that are themselves dead surface as
        // additional suspects and widen the next round.
        SpanScope scope(env_.tracer, span_);
        tm_.run_control_down(
            confirmed,
            [this, confirmed, attempt,
             epoch](const ControlDownResult& res) {
              if (epoch != epoch_) return;
              if (!res.ok && !res.additional_suspects.empty() &&
                  attempt <= env_.cfg->control_retry_limit) {
                std::vector<SiteId> wider = confirmed;
                wider.insert(wider.end(), res.additional_suspects.begin(),
                             res.additional_suspects.end());
                exclude_then_retry(std::move(wider), attempt);
                return;
              }
              env_.sched->after(type1_retry_delay(attempt),
                                [this, attempt, epoch]() {
                                  if (epoch != epoch_) return;
                                  attempt_up(attempt + 1);
                                });
            });
      });
}

void RecoveryManager::become_up(SessionNum session) {
  ms_.nominally_up = env_.sched->now();
  const size_t marked = dm_.kv().unreadable_count();
  env_.state->mode = SiteMode::kUp;
  env_.state->session = session;
  env_.metrics->inc(env_.metrics->id.rm_recovered);
  Tracer::emit(env_.tracer, TraceKind::kNominallyUp, env_.self, 0,
               static_cast<int64_t>(session), static_cast<int64_t>(marked));
  DDBS_INFO << "site " << env_.self << " operational, session " << session
            << ", " << marked << " copies to refresh";
  if (on_operational_) on_operational_(session);
  // Eager mode refreshes every marked copy now, on-demand mode when a read
  // hits it (on_demand_copier). Under the spooler only a cold start marks.
  if (env_.cfg->copier_mode == CopierMode::kEager) {
    for (ItemId item : dm_.kv().unreadable_items()) {
      enqueue_copier(item, /*front=*/false);
    }
  }
  maybe_fully_current();
  pump_copiers();
}

// ---------------------------------------------------------------------------
// spooler baseline: fetch + replay BEFORE claiming nominally up

void RecoveryManager::spooler_prefetch() {
  // Probe for live sites, bulk-fetch their spools for us, apply after a
  // modeled replay delay, then run the type-1 control transaction (which
  // picks up only the delta records under lock: each site's serve token
  // tells it which records this prefetch already installed).
  const uint64_t epoch = epoch_;
  auto remaining = std::make_shared<size_t>(
      static_cast<size_t>(env_.cfg->n_sites) - 1);
  auto merged = std::make_shared<std::map<ItemId, SpoolRecord>>();
  auto tokens = std::make_shared<std::vector<uint64_t>>(
      static_cast<size_t>(env_.cfg->n_sites), 0);
  if (*remaining == 0) {
    attempt_up(1);
    return;
  }
  for (SiteId s = 0; s < env_.cfg->n_sites; ++s) {
    if (s == env_.self) continue;
    env_.rpc->send_request(
        s, SpoolFetchReq{env_.self}, env_.cfg->rpc_timeout,
        [this, epoch, s, remaining, merged, tokens](Code code,
                                                   const Payload* payload) {
          if (epoch != epoch_) return;
          if (code == Code::kOk && payload != nullptr) {
            const auto& resp = std::get<SpoolFetchResp>(*payload);
            (*tokens)[static_cast<size_t>(s)] = resp.token;
            for (const SpoolRecord& r : resp.records) {
              auto it = merged->find(r.item);
              if (it == merged->end() || it->second.version < r.version) {
                (*merged)[r.item] = r;
              }
            }
          }
          if (--*remaining > 0) return;
          std::vector<SpoolRecord> recs;
          recs.reserve(merged->size());
          for (const auto& [item, r] : *merged) recs.push_back(r);
          // Replay cost: the recovering site must process every missed
          // update before resuming (this is the latency the paper's
          // approach avoids).
          const SimTime replay_cost =
              static_cast<SimTime>(recs.size()) * env_.cfg->local_op_cost;
          env_.metrics->inc(env_.metrics->id.rm_spool_prefetched,
                            static_cast<int64_t>(recs.size()));
          env_.sched->after(replay_cost, [this, epoch, tokens,
                                           recs = std::move(recs)]() {
            if (epoch != epoch_) return;
            dm_.install_prefetched_spool(recs, std::move(*tokens));
            attempt_up(1);
          });
        });
  }
}

// ---------------------------------------------------------------------------
// copier scheduling (Section 3.2: eager "one by one" or on a demand basis)

void RecoveryManager::on_demand_copier(ItemId item) {
  if (env_.state->mode != SiteMode::kUp) return;
  enqueue_copier(item, /*front=*/true);
  pump_copiers();
}

void RecoveryManager::enqueue_copier(ItemId item, bool front) {
  if (copier_inflight_.count(item) || copier_queued_.count(item)) return;
  copier_queued_.insert(item);
  if (front) {
    copier_queue_.push_front(item);
  } else {
    copier_queue_.push_back(item);
  }
}

void RecoveryManager::pump_copiers() {
  const uint64_t epoch = epoch_;
  while (!copier_queue_.empty() &&
         copier_inflight_.size() <
             static_cast<size_t>(env_.cfg->copier_concurrency)) {
    const ItemId item = copier_queue_.front();
    copier_queue_.pop_front();
    copier_queued_.erase(item);
    const Copy* c = dm_.kv().find(item);
    if (c == nullptr || !c->unreadable) continue; // refreshed meanwhile
    copier_inflight_.insert(item);
    SpanScope scope(env_.tracer, span_);
    tm_.run_copier(item, [this, item, epoch](const TxnResult& res) {
      if (epoch != epoch_) return;
      copier_inflight_.erase(item);
      if (res.committed) {
        // Forget the failure history: a later on-demand copier for this
        // item starts fresh instead of inheriting a stale backoff count.
        copier_attempts_.erase(item);
      } else {
        const int attempts = ++copier_attempts_[item];
        if (res.reason == Code::kTotallyFailed) {
          env_.metrics->inc(env_.metrics->id.rm_totally_failed);
          // "Totally failed" is transient when the source sites are merely
          // down: retry after they had a chance to come back. (A permanent
          // resolution protocol is out of the paper's scope.) The delay
          // escalates but the retry NEVER stops while this site is up --
          // an unreadable copy must eventually be refreshed, however long
          // its only source stays dark.
          if (attempts % kEscalateEvery == 0) {
            env_.metrics->inc(env_.metrics->id.rm_copier_starved);
            Tracer::emit(env_.tracer, TraceKind::kCopierStarved, env_.self,
                         0, item, copier_retry_delay(attempts));
          }
          schedule_copier_retry(item, copier_retry_delay(attempts));
        } else if (attempts % kEscalateEvery != 0) {
          // Conflict/deadlock/lock-timeout abort: try again right away.
          enqueue_copier(item, /*front=*/false);
        } else {
          // Something (e.g. an in-doubt transaction awaiting termination)
          // has blocked this copy for several rounds: back off, then keep
          // trying -- an unreadable copy must eventually be refreshed.
          env_.metrics->inc(env_.metrics->id.rm_copier_backoff);
          schedule_copier_retry(item, copier_retry_delay(attempts));
        }
      }
      maybe_fully_current();
      pump_copiers();
    });
  }
  maybe_fully_current();
}

void RecoveryManager::schedule_copier_retry(ItemId item, SimTime delay) {
  const uint64_t epoch = epoch_;
  ++delayed_retries_;
  env_.sched->after(delay, [this, item, epoch]() {
    if (epoch != epoch_) return;
    --delayed_retries_;
    const Copy* c2 = dm_.kv().find(item);
    if (c2 != nullptr && c2->unreadable &&
        env_.state->mode == SiteMode::kUp) {
      enqueue_copier(item, /*front=*/false);
      pump_copiers();
    } else {
      // The copy was refreshed while this retry waited (a user write
      // installed a current value, or an on-demand copier won the race).
      // This retry may have been the last outstanding refresh work, so the
      // fully-current milestone must still be checked.
      maybe_fully_current();
    }
  });
}

void RecoveryManager::maybe_fully_current() {
  if (ms_.fully_current != kNoTime) return;
  if (ms_.nominally_up == kNoTime) return;
  if (!copier_queue_.empty() || !copier_inflight_.empty()) return;
  if (dm_.kv().unreadable_count() != 0) return; // on-demand leftovers
  ms_.fully_current = env_.sched->now();
  env_.metrics->inc(env_.metrics->id.rm_fully_current);
  Tracer::emit(env_.tracer, TraceKind::kFullyCurrent, env_.self);
  Tracer::close(env_.tracer, span_, TraceKind::kRecoveryStarted, env_.self);
  span_ = 0;
}

} // namespace ddbs
