#include "recovery/control_txn.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "recovery/failure_detector.h"

namespace ddbs {

// ---------------------------------------------------------------------------
// Type 1: "site self_ is nominally up"

ControlUpCoordinator::ControlUpCoordinator(TxnId txn,
                                           const CoordinatorEnv& env,
                                           DataManager& local_dm,
                                           UpDoneFn done)
    : CoordinatorBase(txn, TxnKind::kControlUp, env),
      env_(env),
      dm_(local_dm),
      up_done_(std::move(done)) {}

void ControlUpCoordinator::fail(Code reason) {
  if (decided_) return;
  metrics_.inc(metrics_.id.control_up_fail[static_cast<size_t>(reason)]);
  ControlUpResult res;
  res.ok = false;
  res.suspected_down = suspected_;
  res.no_operational_site = reason == Code::kNoCopyAvailable;
  auto done = std::move(up_done_);
  abort_txn(reason);
  if (done) done(res);
}

void ControlUpCoordinator::start() {
  metrics_.inc(metrics_.id.control_up_attempts);
  trace_begin(metrics_.get(metrics_.id.control_up_attempts));
  schedule(cfg_.txn_timeout, [this]() {
    if (!decided_) fail(Code::kTimeout);
  });
  pick_sponsor();
}

void ControlUpCoordinator::pick_sponsor() {
  // Probe every other site; the lowest-id operational responder sponsors
  // the NS read. (Pings are hints only -- the authoritative view is the
  // locked NS read that follows.)
  ping_candidates_.clear();
  size_t pending = static_cast<size_t>(cfg_.n_sites) - 1;
  if (pending == 0) {
    bootstrap_cold_start(); // single-site cluster
    return;
  }
  auto remaining = std::make_shared<size_t>(pending);
  auto alive = std::make_shared<std::vector<SiteId>>();
  for (SiteId s = 0; s < cfg_.n_sites; ++s) {
    if (s == self_) continue;
    send_request(
        s, Ping{}, cfg_.rpc_timeout,
        [this, s, remaining, alive](Code code, const Payload* payload) {
          if (decided_) return;
          if (code == Code::kOk && payload != nullptr) {
            alive->push_back(s);
            if (std::get<Pong>(*payload).operational) {
              ping_candidates_.push_back(s);
            }
          }
          if (--*remaining > 0) return;
          if (ping_candidates_.empty()) {
            // "A failed site can recover as long as there is at least one
            // operational site" -- none right now. TOTAL failure is
            // outside the paper's model; the lowest-id alive site
            // re-founds the cluster, everyone else retries and finds it.
            const bool lowest_alive =
                std::all_of(alive->begin(), alive->end(),
                            [this](SiteId a) { return a > self_; });
            if (!lowest_alive) {
              fail(Code::kNoCopyAvailable);
              return;
            }
            // One lost ping or pong makes a live site look silent, and an
            // operational one would then run beside a re-founded cluster
            // with forked NS copies. Every silent site must prove dead
            // first; if any answers, retry instead.
            std::vector<SiteId> silent;
            for (SiteId q = 0; q < cfg_.n_sites; ++q) {
              if (q != self_ && std::find(alive->begin(), alive->end(), q) ==
                                    alive->end()) {
                silent.push_back(q);
              }
            }
            const size_t n_silent = silent.size();
            FailureDetector::verify_dead(
                env_, std::move(silent),
                [this, n_silent, life = std::weak_ptr<char>(life_)](
                    std::vector<SiteId> dead) {
                  if (life.expired() || decided_) return;
                  if (dead.size() == n_silent) {
                    bootstrap_cold_start();
                  } else {
                    fail(Code::kNoCopyAvailable);
                  }
                });
            return;
          }
          std::sort(ping_candidates_.begin(), ping_candidates_.end());
          sponsor_ = ping_candidates_.front();
          read_ns_vector(sponsor_, 0, [this](bool ok) {
            if (decided_) return;
            if (!ok) {
              suspected_.push_back(sponsor_);
              fail(Code::kTimeout);
              return;
            }
            after_view();
          });
        });
  }
}

void ControlUpCoordinator::bootstrap_cold_start() {
  metrics_.inc(metrics_.id.control_up_cold_start);
  // Conservative marking: whatever identification strategy is configured,
  // its volatile bookkeeping did not survive a total failure. Items whose
  // only copy lives here cannot have missed anything and stay readable.
  std::vector<ItemId> to_mark;
  for (ItemId x : cat_.items_at(self_)) {
    if (cat_.replica_count(x) > 1) to_mark.push_back(x);
  }
  dm_.mark_items(to_mark);

  new_session_ = stable_.next_session_number();
  // One local control transaction claims every other site nominally down
  // and this site up: type-2 over everyone else fused with type-1 for
  // self. Plain writes (not copier refreshes): these are authoritative
  // claims about the new world, and they must supersede whatever stale
  // values the local NS copies still hold.
  std::vector<PlannedWrite> writes;
  for (SiteId m = 0; m < cfg_.n_sites; ++m) {
    PlannedWrite w =
        ns_write(self_, m, m == self_ ? static_cast<Value>(new_session_) : 0);
    w.op.written_sites = {self_};
    writes.push_back(std::move(w));
  }
  send_writes_seq(std::move(writes), [this](bool ok, Code code) {
    if (decided_) return;
    if (!ok) {
      fail(code);
      return;
    }
    run_commit([this](bool committed) {
      ControlUpResult res;
      res.ok = committed;
      res.session = new_session_;
      if (committed) {
        metrics_.inc(metrics_.id.control_up_committed);
        trace(TraceKind::kControlUpCommit, static_cast<int64_t>(new_session_));
      } else {
        res.suspected_down = suspected_;
      }
      if (up_done_) up_done_(res);
    });
  });
}

void ControlUpCoordinator::after_view() {
  operational_.clear();
  others_down_ = false;
  for (SiteId s = 0; s < cfg_.n_sites; ++s) {
    if (s == self_) continue;
    if (view_.session(s) != 0) {
      operational_.push_back(s);
    } else {
      others_down_ = true;
    }
  }
  if (operational_.empty()) {
    // The sponsor answered pings but the serialized view says nobody is
    // nominally up -- it must itself be mid-recovery; retry later.
    fail(Code::kNoCopyAvailable);
    return;
  }
  if (!cfg_.keeps_status_tables()) {
    stage_and_write();
    return;
  }
  collect_status();
}

void ControlUpCoordinator::collect_status() {
  // One X-locked take per operational site: it reads the site's entries
  // for self_ and stages their removal at commit. The fail-lock set goes
  // too when no other site is nominally down in the frozen view.
  auto remaining = std::make_shared<size_t>(operational_.size());
  auto failed = std::make_shared<bool>(false);
  for (SiteId s : operational_) {
    StatusTakeReq req;
    req.txn = txn_;
    req.coordinator = self_;
    req.recovering_site = self_;
    req.spool_served = dm_.prefetched_spool_token(s);
    req.clear_fail_locks = !others_down_;
    send_request(
        s, req, cfg_.lock_timeout + cfg_.rpc_timeout,
        [this, s, remaining, failed](Code code, const Payload* payload) {
          if (decided_) return;
          Code rc = code;
          const StatusTakeResp* resp = nullptr;
          if (code == Code::kOk && payload != nullptr) {
            resp = &std::get<StatusTakeResp>(*payload);
            rc = resp->code;
          }
          if (rc != Code::kOk) {
            if (rc == Code::kTimeout) {
              suspect(s);
              suspected_.push_back(s);
            }
            *failed = true;
          } else {
            collected_.insert(collected_.end(), resp->entries.begin(),
                              resp->entries.end());
            spool_collected_.insert(spool_collected_.end(),
                                    resp->spool.begin(), resp->spool.end());
            metrics_.inc(metrics_.id.control_up_spool_collected,
                         static_cast<int64_t>(resp->spool.size()));
          }
          if (--*remaining > 0) return;
          if (*failed) {
            fail(Code::kTimeout);
            return;
          }
          stage_and_write();
        });
  }
}

void ControlUpCoordinator::stage_and_write() {
  // Derive what to mark and what to rebuild from the collected entries.
  std::vector<ItemId> to_mark;
  std::vector<StatusEntry> rebuild;
  std::vector<SpoolRecord> replay;
  {
    std::set<ItemId> mark_set;
    std::set<std::pair<ItemId, SiteId>> rebuild_set;
    for (const StatusEntry& e : collected_) {
      if (e.site == self_) {
        mark_set.insert(e.item);
      } else if (e.site == kInvalidSite) {
        // fail-lock entry: item-granular, covers every down site; kept
        // only while some site stays down, as at the other sites
        if (cat_.has_copy(self_, e.item)) mark_set.insert(e.item);
        if (others_down_) rebuild_set.insert({e.item, kInvalidSite});
      } else {
        rebuild_set.insert({e.item, e.site});
      }
    }
    to_mark.assign(mark_set.begin(), mark_set.end());
    for (const auto& [item, site] : rebuild_set) {
      rebuild.push_back(StatusEntry{item, site});
    }
    // Spooler mode: keep the newest record per item.
    std::map<ItemId, SpoolRecord> newest;
    for (const SpoolRecord& r : spool_collected_) {
      auto it = newest.find(r.item);
      if (it == newest.end() || it->second.version < r.version) {
        newest[r.item] = r;
      }
    }
    replay.reserve(newest.size());
    for (const auto& [item, r] : newest) replay.push_back(r);
  }
  dm_.stage_recovery_actions(txn_, std::move(to_mark), std::move(rebuild),
                             std::move(replay));

  // Allocate the new session number from stable storage (Section 3.1).
  new_session_ = stable_.next_session_number();

  // Writes: ns_j[self] = s at every operational site and locally, plus the
  // copier-style refresh of the local copies of everyone else's entry.
  // Remote writes go in ascending site order (canonical lock order), the
  // local one last.
  std::vector<PlannedWrite> writes;
  std::vector<SiteId> written_sites = operational_;
  written_sites.push_back(self_);
  std::sort(written_sites.begin(), written_sites.end());
  std::vector<SiteId> targets = operational_;
  targets.push_back(self_);
  for (SiteId j : targets) {
    PlannedWrite w = ns_write(j, self_, static_cast<Value>(new_session_));
    w.op.written_sites = written_sites;
    writes.push_back(std::move(w));
  }
  for (SiteId m = 0; m < cfg_.n_sites; ++m) {
    if (m == self_) continue;
    PlannedWrite w = ns_write(self_, m, static_cast<Value>(view_.session(m)));
    w.op.is_copier_write = true; // refresh, not an authoritative claim
    w.op.copier_version = view_.version(m);
    writes.push_back(std::move(w));
  }

  send_writes_seq(std::move(writes), [this](bool ok, Code code) {
    if (decided_) return;
    if (!ok) {
      for (SiteId s : last_write_timeouts_) suspected_.push_back(s);
      fail(code);
      return;
    }
    run_commit([this](bool committed) {
      for (SiteId s : last_prepare_timeouts_) suspected_.push_back(s);
      if (!committed) {
        metrics_.inc(metrics_.id.control_up_2pc_abort);
        ControlUpResult res;
        res.ok = false;
        res.suspected_down = suspected_;
        if (up_done_) up_done_(res);
        return;
      }
      metrics_.inc(metrics_.id.control_up_committed);
      trace(TraceKind::kControlUpCommit, static_cast<int64_t>(new_session_));
      ControlUpResult res;
      res.ok = true;
      res.session = new_session_;
      if (up_done_) up_done_(res);
    });
  });
}

// ---------------------------------------------------------------------------
// Type 2: "sites D are nominally down"

ControlDownCoordinator::ControlDownCoordinator(TxnId txn,
                                               const CoordinatorEnv& env,
                                               std::vector<SiteId> down,
                                               DownDoneFn done)
    : CoordinatorBase(txn, TxnKind::kControlDown, env),
      down_(std::move(down)),
      down_done_(std::move(done)) {
  // Canonical order: concurrent declarations of overlapping sets acquire
  // their NS X-locks identically and serialize instead of deadlocking.
  std::sort(down_.begin(), down_.end());
  down_.erase(std::unique(down_.begin(), down_.end()), down_.end());
}

void ControlDownCoordinator::fail(Code reason) {
  if (decided_) return;
  metrics_.inc(metrics_.id.control_down_fail[static_cast<size_t>(reason)]);
  ControlDownResult res;
  res.ok = false;
  res.additional_suspects = suspected_;
  auto done = std::move(down_done_);
  abort_txn(reason);
  if (done) done(res);
}

void ControlDownCoordinator::start() {
  metrics_.inc(metrics_.id.control_down_attempts);
  // One event per declared site (a = site, b = batch size) so per-site
  // consumers can attribute the round to each excluded site; the first
  // opens the span.
  const auto batch = static_cast<int64_t>(down_.size());
  for (SiteId d : down_) {
    if (d == down_.front()) {
      trace_begin(d, batch);
    } else {
      trace(TraceKind::kControlDownStart, d, batch);
    }
  }
  schedule(cfg_.txn_timeout, [this]() {
    if (!decided_) fail(Code::kTimeout);
  });
  read_ns_vector(
      self_, 0,
      [this](bool ok) {
        if (decided_) return;
        if (!ok) {
          fail(Code::kAborted);
          return;
        }
        write_zeroes();
      },
      /*skip=*/down_);
}

void ControlDownCoordinator::write_zeroes() {
  // Targets: every nominally-up site that is not being declared down.
  // The initiator's own copy is included when it is operational (a
  // recovering initiator's NS copy is rebuilt later by its type-1).
  std::vector<SiteId> targets;
  for (SiteId j = 0; j < cfg_.n_sites; ++j) {
    if (std::binary_search(down_.begin(), down_.end(), j)) continue;
    if (j == self_) {
      if (state_.mode == SiteMode::kUp) targets.push_back(j);
      continue;
    }
    if (view_.session(j) != 0) targets.push_back(j);
  }
  if (targets.empty()) {
    // Nothing to update anywhere; vacuously done.
    ControlDownResult res;
    res.ok = true;
    if (down_done_) down_done_(res);
    retire_later();
    return;
  }
  // Ascending (site, entry) order: concurrent declarations by different
  // sites acquire the NS X-locks in the same global order and serialize
  // instead of deadlocking across sites.
  std::vector<PlannedWrite> writes;
  for (SiteId j : targets) {
    for (SiteId d : down_) {
      PlannedWrite w = ns_write(j, d, 0);
      w.op.written_sites = targets;
      writes.push_back(std::move(w));
    }
  }
  send_writes_seq(std::move(writes), [this](bool ok, Code code) {
    if (decided_) return;
    if (!ok) {
      for (SiteId s : last_write_timeouts_) suspected_.push_back(s);
      fail(code);
      return;
    }
    run_commit([this](bool committed) {
      for (SiteId s : last_prepare_timeouts_) suspected_.push_back(s);
      ControlDownResult res;
      res.ok = committed;
      res.additional_suspects = suspected_;
      if (committed) {
        metrics_.inc(metrics_.id.control_down_committed);
        for (SiteId d : down_) {
          trace(TraceKind::kControlDownCommit, d,
                static_cast<int64_t>(down_.size()));
        }
        // Best-effort notice to the declared sites: a LIVE recipient was
        // falsely declared (fail-stop violated) and reacts by restarting
        // and re-integrating; a dead recipient never sees it.
        for (SiteId d : down_) {
          rpc_.send_oneway(d, DeclaredDown{});
        }
      }
      if (down_done_) down_done_(res);
    });
  });
}

} // namespace ddbs
