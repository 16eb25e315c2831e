// The site recovery procedure (paper Section 3.4), orchestrated per site:
//
//   1. on power-up the TM and DM run with as[k] = 0 (control transactions
//      only); in-doubt transactions from the WAL are resolved cooperatively
//      in the background (transaction resolution, assumed-correct layer);
//   2. out-of-date copies are identified: mark-all marks every local copy
//      immediately; fail-lock / missing-list collection happens *inside*
//      the type-1 control transaction (see control_txn.h);
//   3. a type-1 control transaction claims the site nominally up;
//   4. if it fails because another site died, a type-2 control transaction
//      excludes the dead site and step 3 is retried -- recovery completes
//      as long as one operational site exists.
//
// On commit the site loads the new session number and is fully operational;
// copier transactions then refresh unreadable copies concurrently with user
// transactions (eager) or on first touch (on-demand).
//
// In spooler mode (baseline) the site instead fetches and replays its
// spooled updates *before* step 3, paying replay time up front.
#pragma once

#include <deque>
#include <set>

#include "txn/data_manager.h"
#include "txn/transaction_manager.h"

namespace ddbs {

class RecoveryManager {
 public:
  // What the procedure and the watchdog read about the current recovery.
  // The per-recovery record for reports is the trace-folded
  // RecoveryEpisode (recovery/episode.h).
  struct Milestones {
    SimTime started = kNoTime;       // process power-up
    SimTime nominally_up = kNoTime;  // type-1 committed, as[k] loaded
    SimTime fully_current = kNoTime; // last unreadable copy refreshed
    int type1_attempts = 0;
  };

  RecoveryManager(const CoordinatorEnv& env, DataManager& dm,
                  TransactionManager& tm);

  // Site lifecycle (driven by core::Site).
  void begin_recovery();
  void on_crash();

  // DM hook: a read touched an unreadable copy -- prioritize its copier.
  void on_demand_copier(ItemId item);

  void set_on_operational(std::function<void(SessionNum)> f) {
    on_operational_ = std::move(f);
  }

  const Milestones& milestones() const { return ms_; }
  bool refresh_idle() const {
    return copier_queue_.empty() && copier_inflight_.empty() &&
           delayed_retries_ == 0;
  }
  // Failed-attempt count for one item (0 when clean). Tests use this to
  // check that a committed copier wipes the item's backoff history.
  int copier_attempts_for(ItemId item) const {
    auto it = copier_attempts_.find(item);
    return it == copier_attempts_.end() ? 0 : it->second;
  }
  // Retry delay after `attempts` consecutive failures (escalating, capped).
  SimTime copier_retry_delay(int attempts) const;
  // Type-1 retry delay: escalating, capped, with a deterministic per-site
  // per-attempt skew that de-phases it from concurrent declarations.
  SimTime type1_retry_delay(int attempt) const;

 private:
  void resolve_in_doubt();
  void resolve_one(const WalRecord& rec);
  void attempt_up(int attempt);
  void exclude_then_retry(std::vector<SiteId> dead, int attempt);
  void become_up(SessionNum session);
  void spooler_prefetch();
  void enqueue_copier(ItemId item, bool front);
  void pump_copiers();
  void schedule_copier_retry(ItemId item, SimTime delay);
  void maybe_fully_current();

  CoordinatorEnv env_;
  DataManager& dm_;
  TransactionManager& tm_;
  std::function<void(SessionNum)> on_operational_;

  Milestones ms_;
  std::deque<ItemId> copier_queue_;
  std::set<ItemId> copier_queued_;
  std::set<ItemId> copier_inflight_;
  std::map<ItemId, int> copier_attempts_;
  size_t delayed_retries_ = 0; // totally-failed items awaiting re-probe
  uint64_t epoch_ = 0; // bumped on crash; guards stale callbacks
  // Causal span covering the whole recovery episode (reboot to fully
  // current); control and copier transactions launched by this manager
  // nest under it.
  SpanId span_ = 0;
};

} // namespace ddbs
