#include "recovery/failure_detector.h"

#include "common/logging.h"
#include <algorithm>
#include <sstream>

#include "storage/kv_store.h"

namespace ddbs {

namespace {
constexpr int kMissesToDeclare = 2;
// A declaration additionally requires the suspect to have been silent --
// no pong on ANY of our pings -- for this many detector intervals. On a
// lossy transport a burst of consecutive timeouts is cheap (at 25% loss a
// 3-ping chain fails ~8% of the time), but a live site keeps answering
// *some* periodic pings, so prolonged total silence separates death from
// loss far more reliably than any fixed-length chain.
constexpr SimTime kSilenceToDeclare = 6;
} // namespace

FailureDetector::FailureDetector(const CoordinatorEnv& env,
                                 TransactionManager& tm)
    : env_(env),
      tm_(tm),
      rng_(0x9d5f00d + static_cast<uint64_t>(env.self) * 7919) {}

void FailureDetector::metrics_inc_reconcile() {
  env_.metrics->inc(env_.metrics->id.fd_reconcile_restarts);
}

SimTime FailureDetector::jittered_interval() {
  // Desynchronize the fleet: without jitter every site's detector fires in
  // lockstep and their type-2 declarations collide forever.
  const SimTime base = env_.cfg->detector_interval;
  return base + rng_.uniform(0, base / 2);
}

void FailureDetector::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  misses_.clear();
  declaring_.clear();
  for (const auto& [s, span] : verifying_)
    Tracer::close(env_.tracer, span, TraceKind::kDetectorVerify, env_.self);
  verifying_.clear();
  last_pong_.clear();
  window_.clear();
  walk_ring(); // every window member's silence clock starts now
  declare_inflight_ = false;
  const uint64_t epoch = epoch_;
  env_.sched->after(jittered_interval(), [this, epoch]() {
    if (epoch != epoch_ || !running_) return;
    tick();
  });
}

void FailureDetector::stop() {
  running_ = false;
  ++epoch_;
}

bool FailureDetector::nominally_up(SiteId s) const {
  const Copy* c = env_.stable->kv().find(ns_item(s));
  return c != nullptr && c->value != 0;
}

bool FailureDetector::in_window(SiteId s) const {
  return std::any_of(window_.begin(), window_.end(),
                     [s](const WindowSlot& w) { return w.site == s; });
}

void FailureDetector::unwatch(SiteId s) {
  misses_.erase(s);
  last_pong_.erase(s);
}

void FailureDetector::walk_ring() {
  // Walk forward from ourselves until kRingSuccessors nominally-up sites
  // are found, reading one NS entry per step: O(k + gap), not O(n). The
  // reads are hints only; the declaration itself is a locked control
  // transaction.
  const int n = env_.cfg->n_sites;
  next_window_.clear();
  int up = 0;
  for (SiteId s = (env_.self + 1) % n; s != env_.self && up < kRingSuccessors;
       s = (s + 1) % n) {
    const bool is_up = nominally_up(s);
    next_window_.push_back({s, is_up});
    up += is_up ? 1 : 0;
  }
  // Ascending site order, so a window holding every other site pings in
  // the same order as a full scan.
  std::sort(next_window_.begin(), next_window_.end(),
            [](const WindowSlot& a, const WindowSlot& b) {
              return a.site < b.site;
            });
  // A site that enters starts its silence clock on entry; one that leaves
  // drops its misses (declare() would otherwise batch it as a stale
  // suspect) and, unless a verify chain still owns it, its clock.
  const SimTime now = env_.sched->now();
  auto old = window_.begin();
  auto cur = next_window_.begin();
  while (old != window_.end() || cur != next_window_.end()) {
    if (cur == next_window_.end() ||
        (old != window_.end() && old->site < cur->site)) {
      misses_.erase(old->site);
      if (!verifying_.count(old->site)) last_pong_.erase(old->site);
      ++old;
    } else if (old == window_.end() || cur->site < old->site) {
      last_pong_.emplace(cur->site, now);
      ++cur;
    } else {
      ++old;
      ++cur;
    }
  }
  window_.swap(next_window_);
}

void FailureDetector::tick() {
  const uint64_t epoch = epoch_;
  ++tick_count_;
  walk_ring();
  for (const WindowSlot& w : window_) {
    const SiteId s = w.site;
    if (!w.up) {
      // Reconciliation probe (every 4th tick): a nominally-down site that
      // answers "operational" was falsely declared -- tell it to restart
      // and re-integrate through normal recovery (Section 6's
      // one-directional integration, and the heal path after the
      // fail-stop assumption was violated).
      if (env_.cfg->reconcile_probes && tick_count_ % 4 == 0) {
        env_.rpc->send_request(
            s, Ping{}, env_.cfg->rpc_timeout,
            [this, s, epoch](Code code, const Payload* payload) {
              if (epoch != epoch_ || !running_) return;
              // Re-read NS: the site's type-1 may have re-integrated it
              // (and refreshed our copy) while the ping was in flight.
              if (code == Code::kOk && payload != nullptr &&
                  std::get<Pong>(*payload).operational && !nominally_up(s)) {
                metrics_inc_reconcile();
                env_.rpc->send_oneway(s, DeclaredDown{});
              }
            });
      }
      // While a site is nominally down we stop pinging it, so keep its
      // proof-of-life fresh artificially: when it re-integrates it starts
      // with a clean silence clock instead of an ancient last pong.
      last_pong_[s] = env_.sched->now();
      continue;
    }
    if (declaring_.count(s)) continue;
    env_.rpc->send_request(
        s, Ping{}, env_.cfg->rpc_timeout,
        [this, s, epoch](Code code, const Payload*) {
          if (epoch != epoch_ || !running_) return;
          if (!in_window(s)) return; // left the window meanwhile
          if (code == Code::kOk) {
            misses_[s] = 0;
            last_pong_[s] = env_.sched->now();
            return;
          }
          // Two missed periodic pings arouse suspicion; certainty (the
          // paper's precondition for a type-2) takes a burst of
          // consecutive timeouts -- on a lossy transport two lost pings
          // do not prove death.
          if (++misses_[s] >= kMissesToDeclare) begin_verify(s, 3);
        });
  }
  env_.sched->after(jittered_interval(), [this, epoch]() {
    if (epoch != epoch_ || !running_) return;
    tick();
  });
}

void FailureDetector::verify_dead(const CoordinatorEnv& env,
                                  std::vector<SiteId> candidates,
                                  std::function<void(std::vector<SiteId>)> k) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.empty()) {
    k({});
    return;
  }
  struct State {
    size_t remaining = 0;
    std::vector<SiteId> dead;
    std::function<void(std::vector<SiteId>)> k;
  };
  auto st = std::make_shared<State>();
  st->remaining = candidates.size();
  st->k = std::move(k);
  // A candidate is confirmed dead only after `kPingBurst` CONSECUTIVE
  // unanswered pings: a single timeout can be message loss.
  constexpr int kPingBurst = 3;
  struct Prober {
    static void probe(const CoordinatorEnv& env, SiteId s, int left,
                      std::shared_ptr<State> st) {
      env.rpc->send_request(
          s, Ping{}, env.cfg->rpc_timeout,
          [env, s, left, st](Code code, const Payload*) {
            if (code == Code::kOk) {
              if (--st->remaining == 0) st->k(std::move(st->dead));
              return;
            }
            if (left > 1) {
              probe(env, s, left - 1, st);  // consecutive-timeout chain
              return;
            }
            st->dead.push_back(s);
            if (--st->remaining == 0) st->k(std::move(st->dead));
          });
    }
  };
  for (SiteId s : candidates) {
    Prober::probe(env, s, kPingBurst, st);
  }
}

void FailureDetector::suspect(SiteId s) {
  if (!running_ || s == env_.self) return;
  if (declaring_.count(s)) return;
  if (!nominally_up(s)) return; // already nominally down
  begin_verify(s, 3);
}

void FailureDetector::begin_verify(SiteId s, int attempts) {
  // One chain per suspect at a time; further hints while it runs are
  // folded into it (they would reach the same verdict from the same
  // pings anyway).
  if (verifying_.count(s)) return;
  env_.metrics->inc(env_.metrics->id.fd_verify_chains);
  const SpanId span = Tracer::open(env_.tracer, TraceKind::kDetectorVerify,
                                   env_.self, 0, s);
  verifying_.emplace(s, span);
  // The chain's pings (and anything they lead to, e.g. the type-2 control
  // transaction of a declaration) nest under the chain's span.
  SpanScope scope(env_.tracer, span);
  verify(s, attempts);
}

void FailureDetector::resolve_verify(SiteId s) {
  auto it = verifying_.find(s);
  if (it == verifying_.end()) return;
  Tracer::close(env_.tracer, it->second, TraceKind::kDetectorVerify,
                env_.self);
  verifying_.erase(it);
}

void FailureDetector::verify(SiteId s, int attempts_left) {
  const uint64_t epoch = epoch_;
  env_.rpc->send_request(
      s, Ping{}, env_.cfg->rpc_timeout,
      [this, s, attempts_left, epoch](Code code, const Payload*) {
        if (epoch != epoch_ || !running_) return;
        const SimTime now = env_.sched->now();
        if (code == Code::kOk) {
          resolve_verify(s); // chain resolved: alive after all
          if (!in_window(s)) {
            unwatch(s);
            return;
          }
          misses_[s] = 0;
          last_pong_[s] = now;
          return;
        }
        if (attempts_left > 1) {
          verify(s, attempts_left - 1);
          return;
        }
        // A suspect outside the window has no silence clock until its
        // first burst has failed: only then does our watch of it begin.
        const SimTime last_alive = last_pong_.emplace(s, now).first->second;
        const bool silent =
            now - last_alive >= kSilenceToDeclare * env_.cfg->detector_interval;
        const bool watched = in_window(s);
        if (!watched && !silent) {
          // No periodic ping watches this site, so the chain keeps pinging
          // it once per detector interval (this ping went out rpc_timeout
          // ago) until it answers or the silence bound is reached.
          const SimTime gap = std::max<SimTime>(
              0, env_.cfg->detector_interval - env_.cfg->rpc_timeout);
          env_.sched->after(gap, [this, s, epoch]() {
            if (epoch != epoch_ || !running_) return;
            continue_verify(s);
          });
          return;
        }
        resolve_verify(s); // chain resolved
        if (!watched) unwatch(s);
        if (!silent) {
          // The site answered a ping recently: alive, the chain's timeouts
          // were loss. Not *sure* => no type-2 yet. Leave the accumulated
          // misses so the next timed-out periodic ping restarts the chain;
          // a genuinely dead site re-reaches this point silent and stale.
          return;
        }
        declare(s);
      });
}

void FailureDetector::continue_verify(SiteId s) {
  const auto chain = verifying_.find(s);
  if (chain == verifying_.end()) return;
  if (declaring_.count(s) || !nominally_up(s)) {
    // Declared meanwhile (by its ring predecessor, most likely).
    resolve_verify(s);
    if (!in_window(s)) unwatch(s);
    return;
  }
  SpanScope scope(env_.tracer, chain->second);
  verify(s, 1);
}

void FailureDetector::declare(SiteId s) {
  if (declaring_.count(s) || declare_inflight_) return;
  // Batch every other site that has already accumulated misses: with two
  // dead sites a single-site declaration would keep timing out on the
  // other one (it is still in the local NS view and thus a write target).
  std::vector<SiteId> down{s};
  for (const auto& [other, misses] : misses_) {
    if (other != s && misses >= kMissesToDeclare && !declaring_.count(other)) {
      down.push_back(other);
    }
  }
  run_declare(std::move(down), /*attempt=*/1);
}

void FailureDetector::run_declare(std::vector<SiteId> down, int attempt) {
  declare_inflight_ = true;
  for (SiteId d : down) {
    declaring_.insert(d);
    misses_[d] = 0;
  }
  env_.metrics->inc(env_.metrics->id.fd_declared_down);
  // One event per declared site (a = site, b = batch size) so per-site
  // consumers (episode tracker) see every member of a batched declaration.
  for (SiteId d : down) {
    Tracer::emit(env_.tracer, TraceKind::kDetectorDeclare, env_.self, 0, d,
                 static_cast<int64_t>(down.size()));
  }
  if (log_level() <= LogLevel::kInfo) {
    std::ostringstream os;
    os << "site " << env_.self << " declares down:";
    for (SiteId d : down) os << " " << d;
    log_line(LogLevel::kInfo, os.str());
  }
  const uint64_t epoch = epoch_;
  tm_.run_control_down(
      down,
      [this, down, attempt, epoch](const ControlDownResult& res) {
        if (epoch != epoch_ || !running_) return;
        if (res.ok) {
          declare_inflight_ = false;
          for (SiteId d : down) declaring_.erase(d);
          return;
        }
        // A participant of the declaration may itself be dead: ping-verify
        // the new suspects (a timeout on a locked write is ambiguous),
        // widen the set with the confirmed ones and retry right away
        // (recovery-procedure step 4, detector side).
        if (!res.additional_suspects.empty() &&
            attempt <= env_.cfg->n_sites) {
          verify_dead(
              env_, res.additional_suspects,
              [this, down, attempt, epoch](std::vector<SiteId> confirmed) {
                if (epoch != epoch_ || !running_) return;
                if (confirmed.empty()) {
                  env_.sched->after(jittered_interval(),
                                    [this, down, epoch]() {
                                      if (epoch != epoch_ || !running_) return;
                                      declare_inflight_ = false;
                                      for (SiteId d : down) declaring_.erase(d);
                                    });
                  return;
                }
                std::vector<SiteId> wider = down;
                for (SiteId d : confirmed) {
                  if (std::find(wider.begin(), wider.end(), d) ==
                      wider.end()) {
                    wider.push_back(d);
                  }
                }
                run_declare(std::move(wider), attempt + 1);
              });
          return;
        }
        // Conflicting declaration (another site beat us, or a lock clash):
        // back off with jitter before allowing a re-declaration; if someone
        // else's type-2 committed meanwhile, the local NS peek in tick()
        // skips these sites entirely.
        env_.sched->after(jittered_interval(), [this, down, epoch]() {
          if (epoch != epoch_ || !running_) return;
          declare_inflight_ = false;
          for (SiteId d : down) declaring_.erase(d);
        });
      });
}

} // namespace ddbs
