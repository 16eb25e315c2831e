// Timeout-based failure detector. The paper requires that a type-2 control
// transaction is initiated only when the initiator "is sure that the sites
// being claimed down are actually down", which is satisfiable because site
// failures are the only failures (fail-stop, no partitions): a site whose
// transport times out repeatedly is dead.
//
// Which site watches which is left open by the paper. Each site watches a
// ring window: walking the ring forward from itself over its local NS
// view, the sites passed until kRingSuccessors nominally-up ones are found.
// Periodic pings go to the window's up members, reconciliation probes to
// its nominally-down members, so the fleet sends O(n * k) probes per
// interval instead of O(n^2). When a watched site is declared down the
// walk passes it and the window extends to the next up site, so every up
// site keeps a live up predecessor watching it. Coordinator RPC timeouts
// still reach any site through suspect().
//
// A Pong with operational=false (site alive but recovering) is NOT grounds
// for declaration -- the site's own type-1 control transaction will fix the
// nominal state.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "txn/transaction_manager.h"

namespace ddbs {

class FailureDetector {
 public:
  // Nominally-up ring successors each site pings. For n_sites <= k + 1 the
  // window is every other site.
  static constexpr int kRingSuccessors = 3;

  FailureDetector(const CoordinatorEnv& env, TransactionManager& tm);

  void start(); // site became operational
  void stop();  // site crashed / left operational state

  // External hint from a coordinator whose request to `s` timed out:
  // verify immediately instead of waiting for the next tick. A suspect
  // outside the window has no periodic pings, so once its first burst
  // fails its chain keeps pinging once per detector interval until it
  // answers or has been silent long enough to declare.
  void suspect(SiteId s);

  // Ping every candidate once and call k with the subset that did not
  // answer. Timeouts on data/lock traffic are ambiguous (lock waits look
  // like death), but pings are served outside the lock manager, so in the
  // fail-stop model an unanswered ping IS death. Every type-2 initiation
  // funnels its suspects through this check -- the paper requires the
  // initiator to be *sure* the claimed sites are down (Section 3.3).
  static void verify_dead(const CoordinatorEnv& env,
                          std::vector<SiteId> candidates,
                          std::function<void(std::vector<SiteId>)> k);

 private:
  struct WindowSlot {
    SiteId site;
    bool up; // nominally up in the local NS view at the last walk
  };

  void tick();
  // Re-walk the ring and start/drop per-site state for sites that entered
  // or left the window.
  void walk_ring();
  bool in_window(SiteId s) const;
  bool nominally_up(SiteId s) const;
  // Forget the miss count and silence clock of a site nothing watches.
  void unwatch(SiteId s);
  // Start a verify chain for `s` unless one is already in flight.
  void begin_verify(SiteId s, int attempts);
  // Close the chain's span and drop the in-flight guard.
  void resolve_verify(SiteId s);
  void verify(SiteId s, int attempts_left);
  // One more ping of an out-of-window suspect's chain, unless the site
  // was declared down meanwhile.
  void continue_verify(SiteId s);
  void declare(SiteId s);
  void run_declare(std::vector<SiteId> down, int attempt);

  SimTime jittered_interval();
  void metrics_inc_reconcile();

  CoordinatorEnv env_;
  TransactionManager& tm_;
  bool running_ = false;
  uint64_t epoch_ = 0;
  // The ring window, ascending by site id (the order pings go out in).
  std::vector<WindowSlot> window_;
  std::vector<WindowSlot> next_window_; // reused by walk_ring()
  std::map<SiteId, int> misses_;
  std::set<SiteId> declaring_;
  // Sites with a verify chain in flight, mapped to the chain's causal
  // span (0 when tracing is off). Without this guard every further
  // missed ping past the threshold (and every coordinator suspect() hint)
  // spawned an additional chain toward declare(), multiplying ping
  // traffic and racing the declaration. Cleared when the chain resolves
  // (alive or declared) and on start().
  std::map<SiteId, SpanId> verifying_;
  // Silence clock of each watched site (window member or verify chain):
  // the last time it answered any of our pings, or when we started
  // watching it. A chain that ends in three timeouts still refuses to
  // declare unless the site has also been silent for a multiple of the
  // detector interval: the paper requires the initiator to be *sure*, and
  // on a lossy transport a recent pong is proof of life while prolonged
  // total silence is death.
  std::map<SiteId, SimTime> last_pong_;
  // At most one type-2 in flight per initiator: concurrent declarations
  // from one site deadlock with each other on the NS locks; suspects that
  // accumulate meanwhile are batched into the next declaration.
  bool declare_inflight_ = false;
  uint64_t tick_count_ = 0;
  Rng rng_;
};

} // namespace ddbs
