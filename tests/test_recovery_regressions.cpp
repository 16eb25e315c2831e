// Regression tests for the copier-starvation and failure-detector fixes.
//
// (1) Copier starvation: an unreadable copy whose ONLY possible source
//     stays down used to be retried a bounded number of times and then
//     abandoned -- the copy stayed unreadable forever even after the
//     source returned. The retry now never gives up: it backs off with an
//     escalating (capped) delay and counts rm.copier_starved, and the copy
//     is refreshed whenever a source finally reappears, however long the
//     outage lasted.
// (2) A committed copier erases the item's accumulated failure count, so a
//     later on-demand copier starts from the base retry delay instead of
//     inheriting a stale maximum backoff.
// (3) The failure detector keeps at most one verify chain in flight per
//     suspect, and its proof-of-life silence gate stops false declarations
//     of healthy sites (the restart-storm feedback loop).
// (4) Each detector probes only its ring window, so idle probe traffic per
//     site does not grow with the cluster, and the window extends past
//     declared sites so a failure with no live watcher is still detected.
// (5) A copier judges its target copy alone: counters of different sites
//     do not compare once a write has numbered from a stale copy.
// (6) A reconciliation probe whose "operational" pong arrives after the
//     probed site re-integrated (its type-1 refreshed the prober's NS copy)
//     does not restart it.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "replication/session.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

// An item all of whose copies live AWAY from `except` (so crashing those
// resident sites leaves no readable source anywhere).
ItemId find_item_avoiding(const Cluster& cluster, SiteId except) {
  for (ItemId x = 0; x < cluster.config().n_items; ++x) {
    bool hits = false;
    for (SiteId s : cluster.catalog().sites_of(x)) {
      if (s == except) hits = true;
    }
    if (!hits) return x;
  }
  return -1;
}

TEST(CopierStarvation, RefreshesAfterSourceDownManyRetryWindows) {
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 12;
  cfg.replication_degree = 2;
  // Mark-all: the recovering site marks every local copy, so the test does
  // not depend on which updates were missed.
  cfg.outdated_strategy = OutdatedStrategy::kMarkAll;
  Cluster cluster(cfg, 71);
  cluster.bootstrap();

  // An item resident only on sites != 0 (with 3 sites, degree 2, that
  // means exactly {1, 2}).
  const ItemId item = find_item_avoiding(cluster, 0);
  ASSERT_NE(item, -1);
  const auto residents = cluster.catalog().sites_of(item);
  ASSERT_EQ(residents.size(), 2u);

  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, item, 42}}).committed);
  cluster.settle();

  // Both resident sites crash; one recovers while the other stays dark.
  const SiteId recoverer = residents[0];
  const SiteId dark = residents[1];
  cluster.crash_site(recoverer);
  cluster.crash_site(dark);
  cluster.run_until(cluster.now() + 500'000);
  cluster.recover_site(recoverer);

  // Keep the only source down for far more than 25 base retry windows
  // (base delay = 8 x detector_interval = 400 ms here; 12 s ~ 30 windows).
  // The old code capped retries and abandoned the item inside this span.
  const SimTime base_delay = 8 * cfg.detector_interval;
  cluster.run_until(cluster.now() + 30 * base_delay);

  // Still starving: the copy is unreadable, the copier has kept trying
  // (escalation fired), and nothing has been abandoned.
  const Copy* mid = cluster.site(recoverer).stable().kv().find(item);
  ASSERT_NE(mid, nullptr);
  EXPECT_TRUE(mid->unreadable);
  EXPECT_GE(cluster.metrics().get("rm.copier_starved"), 1);
  EXPECT_GT(cluster.site(recoverer).rm().copier_attempts_for(item), 5);
  EXPECT_FALSE(cluster.site(recoverer).rm().refresh_idle());

  // The source returns; the starved copier must now succeed.
  cluster.recover_site(dark);
  cluster.settle(300'000'000);

  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  EXPECT_EQ(cluster.site(recoverer).stable().kv().unreadable_count(), 0u);
  EXPECT_EQ(cluster.site(dark).stable().kv().unreadable_count(), 0u);
  const Copy* after = cluster.site(recoverer).stable().kv().find(item);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value, 42);
  // Success wiped the failure history (regression 2).
  EXPECT_EQ(cluster.site(recoverer).rm().copier_attempts_for(item), 0);
}

TEST(CopierStarvation, RetryDelayEscalatesAndCaps) {
  Config cfg;
  Cluster cluster(cfg, 72);
  const RecoveryManager& rm = cluster.site(0).rm();
  const SimTime base = 8 * cfg.detector_interval;
  EXPECT_EQ(rm.copier_retry_delay(1), base);
  EXPECT_EQ(rm.copier_retry_delay(4), base);
  EXPECT_EQ(rm.copier_retry_delay(5), base * 2);
  EXPECT_EQ(rm.copier_retry_delay(10), base * 4);
  EXPECT_EQ(rm.copier_retry_delay(20), base * 16);
  // Capped: arbitrarily many failures never push the delay further.
  EXPECT_EQ(rm.copier_retry_delay(1'000), base * 16);
}

TEST(CopierStarvation, CommittedCopierErasesAttemptCount) {
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 12;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 73);
  cluster.bootstrap();
  const ItemId item = find_item_avoiding(cluster, 0);
  ASSERT_NE(item, -1);
  const auto residents = cluster.catalog().sites_of(item);
  const SiteId holder = residents[0];
  const SiteId source = residents[1];
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, item, 9}}).committed);
  cluster.settle();

  // Source dark, local copy marked by hand: the on-demand copier fails and
  // accumulates attempts.
  cluster.crash_site(source);
  cluster.run_until(cluster.now() + 500'000);
  cluster.site(holder).stable().kv().mark_unreadable(item);
  cluster.site(holder).rm().on_demand_copier(item);
  cluster.run_until(cluster.now() + 2'000'000);
  EXPECT_GT(cluster.site(holder).rm().copier_attempts_for(item), 0);

  // Source returns: the copier commits and must forget the history.
  cluster.recover_site(source);
  cluster.settle(300'000'000);
  EXPECT_EQ(cluster.site(holder).rm().copier_attempts_for(item), 0);
  const Copy* c = cluster.site(holder).stable().kv().find(item);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->unreadable);
  EXPECT_EQ(c->value, 9);
}

TEST(FailureDetector, OneVerifyChainInFlightPerSuspect) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 20;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 74);
  cluster.bootstrap();
  cluster.crash_site(3);
  // Plenty of detector ticks: without the in-flight guard every tick past
  // the miss threshold stacked another chain per observer (hundreds over
  // this window); with it, chains restart only after the previous one
  // resolves, and stop entirely once the site is declared nominally down.
  cluster.run_until(cluster.now() + 10'000'000);
  const int64_t chains = cluster.metrics().get("fd.verify_chains");
  EXPECT_GE(chains, 1);
  EXPECT_LE(chains, 60);
  EXPECT_GE(cluster.metrics().get("fd.declared_down"), 1);
}

// Failure injection under machine-generated schedules (the adversarial
// explorer delta-debugs action lists, so any subset of a valid schedule
// reaches the cluster): out-of-range sites are rejected, a crash aimed at
// an already-down site is a no-op rather than a double power-off, and a
// recover aimed at an up or mid-recovery site is equally inert.
TEST(FailureInjection, CrashAndRecoverAreBoundsCheckedAndIdempotent) {
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 12;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 91);
  cluster.bootstrap();

  EXPECT_FALSE(cluster.crash_site(-1));
  EXPECT_FALSE(cluster.crash_site(3));
  EXPECT_FALSE(cluster.recover_site(-1));
  EXPECT_FALSE(cluster.recover_site(3));
  EXPECT_FALSE(cluster.recover_site(0)); // up: nothing to power on

  EXPECT_TRUE(cluster.crash_site(1));
  EXPECT_FALSE(cluster.crash_site(1)); // already down: no-op

  // Regression: a *scheduled* crash landing on an already-crashed site
  // (two injectors aiming at the same target) must be absorbed silently;
  // in release builds this used to reach Site::crash() in the wrong mode.
  cluster.crash_site_at(cluster.now() + 10'000, 1);
  cluster.crash_site_at(cluster.now() + 20'000, 1);
  cluster.run_until(cluster.now() + 100'000);
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kDown);

  EXPECT_TRUE(cluster.recover_site(1));
  EXPECT_FALSE(cluster.recover_site(1)); // mid-recovery: no-op
  cluster.settle();
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  // The session advanced exactly once across the whole barrage.
  EXPECT_EQ(cluster.site(1).state().session, 2u);
}

// Soak-surfaced liveness regression: a recovering site's type-1 control
// transaction and a concurrent type-2 declaration OF THAT SITE write the
// same NS copies. With a fixed 30 ms type-1 retry backoff the two
// phase-locked -- each aborting the other on NS lock conflicts -- until
// the type-1 exhausted control_retry_limit and gave up permanently,
// stranding the site in kRecovering forever (Site::recover() refuses a
// non-down site, so nothing could ever revive it). This exact
// crash/recover cadence under spooler recovery reproduced the stranding
// deterministically at round 2 (victim site 2).
Config livelock_config() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 100;
  cfg.replication_degree = 3;
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  return cfg;
}

void run_livelock_rounds(Cluster& cluster, uint64_t seed = 42) {
  for (int round = 0; round < 3; ++round) {
    RunnerParams params;
    params.clients_per_site = 6;
    params.duration = 5'000'000;
    const SiteId victim = static_cast<SiteId>(round % 4);
    params.schedule.push_back(
        FailureEvent{200'000, FailureEvent::What::kCrash, victim});
    params.schedule.push_back(
        FailureEvent{1'200'000, FailureEvent::What::kRecover, victim});
    Runner runner(cluster, params,
                  seed + static_cast<uint64_t>(round) * 0x9e3779b9);
    runner.run();
    cluster.run_until(cluster.now() + 4 * cluster.config().detector_interval);
    cluster.settle();
  }
}

TEST(RecoveryLiveness, Type1DeclarationLivelockResolves) {
  Cluster cluster(livelock_config(), 42);
  cluster.bootstrap();
  run_livelock_rounds(cluster);
  // Before the fix: site 2 stuck kRecovering, session 0, rm.gave_up = 1,
  // and every later settle() hit its time bound (~125 s of sim time per
  // round). After: each round ends with the whole cluster up.
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
    EXPECT_GT(cluster.site(s).state().session, 0u) << "site " << s;
  }
  EXPECT_EQ(cluster.metrics().get("rm.recovered"), 3);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  // The escalating backoff resolves the collision inside one attempt
  // cycle; the round boundary is reached on schedule, not via give-up.
  EXPECT_LT(cluster.now(), 30'000'000);
}

TEST(RecoveryLiveness, ExhaustedType1CycleRestartsAfterCooldown) {
  // Squeeze the retry limit so the lock collision exhausts the type-1
  // cycle immediately: the old code would strand the site at the first
  // gave-up; the cool-down restart must bring it up anyway.
  Config cfg = livelock_config();
  cfg.control_retry_limit = 1;
  // Seed 43: the lock collision still exhausts the one-attempt cycle under
  // the current message cadence (late OutcomeAck traffic shifted phases
  // enough that seed 42 no longer collides).
  Cluster cluster(cfg, 43);
  cluster.bootstrap();
  run_livelock_rounds(cluster, 43);
  EXPECT_GE(cluster.metrics().get("rm.gave_up"), 1);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
  }
  EXPECT_EQ(cluster.metrics().get("rm.recovered"), 3);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(FailureDetector, NoFalseDeclarationsOnHealthyCluster) {
  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, 75);
  cluster.bootstrap();
  // Light write traffic while the detectors tick for 20 simulated seconds.
  for (int i = 0; i < 20; ++i) {
    cluster.run_txn(static_cast<SiteId>(i % 5),
                    {{OpKind::kWrite, i % cfg.n_items, i}});
    cluster.run_until(cluster.now() + 1'000'000);
  }
  EXPECT_EQ(cluster.metrics().get("fd.declared_down"), 0);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

// Probe messages per site over one idle simulated second.
double idle_messages_per_site(int n_sites) {
  Config cfg;
  cfg.n_sites = n_sites;
  cfg.n_items = 4 * n_sites;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, 76);
  cluster.bootstrap();
  const uint64_t before = cluster.network().messages_sent();
  cluster.run_until(cluster.now() + 1'000'000);
  return static_cast<double>(cluster.network().messages_sent() - before) /
         n_sites;
}

TEST(FailureDetector, IdleProbeTrafficIsLinearInSites) {
  const double small = idle_messages_per_site(16);
  const double large = idle_messages_per_site(64);
  EXPECT_NEAR(large, small, 0.1 * small);
  // At most a ping and a pong per window member per tick, and ticks are at
  // least one detector interval apart.
  const double max_ticks = 1'000'000.0 / Config{}.detector_interval;
  EXPECT_LE(large, 2 * FailureDetector::kRingSuccessors * max_ticks);
  EXPECT_GT(large, 0.0);
}

bool ns_down_everywhere(Cluster& cluster, const std::vector<SiteId>& down) {
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    if (cluster.site(s).state().mode != SiteMode::kUp) continue;
    const SessionVector ns =
        peek_ns_vector(cluster.site(s).stable().kv(), cluster.n_sites());
    for (SiteId d : down) {
      if (ns[static_cast<size_t>(d)] != 0) return false;
    }
  }
  return true;
}

TEST(FailureDetector, RingShiftsPastAWholeDeadWindow) {
  Config cfg;
  cfg.n_sites = 10;
  cfg.n_items = 60;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, 77);
  cluster.bootstrap();
  // Sites 1-3 are site 0's whole window.
  for (SiteId s : {1, 2, 3}) cluster.crash_site(s);
  cluster.run_until(cluster.now() + 3'000'000);
  ASSERT_TRUE(ns_down_everywhere(cluster, {1, 2, 3}));
  // Site 4's three ring predecessors are dead, so only a window that walks
  // past them -- site 0's -- watches it now.
  cluster.crash_site(4);
  cluster.run_until(cluster.now() + 3'000'000);
  EXPECT_TRUE(ns_down_everywhere(cluster, {1, 2, 3, 4}));

  for (SiteId s : {1, 2, 3, 4}) cluster.recover_site(s);
  cluster.settle();
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    EXPECT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  EXPECT_EQ(cluster.metrics().get("site.false_declaration_restart"), 0);
}

TEST(FailureDetector, NoFalseDeclarationsOnLossyRing) {
  // The silence gate with ring windows: a window member that enters late,
  // or a suspect outside every window, must not be declared on a burst of
  // lost pings.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Config cfg;
    cfg.n_sites = 12;
    cfg.n_items = 120;
    cfg.replication_degree = 3;
    cfg.msg_loss_prob = 0.05;
    Cluster cluster(cfg, seed);
    cluster.bootstrap();
    RunnerParams rp;
    rp.clients_per_site = 2;
    rp.duration = 10'000'000;
    Runner runner(cluster, rp, seed);
    runner.run();
    EXPECT_EQ(cluster.metrics().get("fd.declared_down"), 0) << "seed " << seed;
  }
}

// Every current copy of x crashes; the one recovering site writes x, which
// numbers the write from its own stale counter, below the down copies'.
// When they recover, their copiers must install that write: a comparison
// of counters across sites would keep their stale values.
void run_counter_regress(PlantedBug bug, bool expect_converged) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 8;
  cfg.replication_degree = 3;
  cfg.planted_bug = bug;
  Cluster cluster(cfg, 31);
  cluster.bootstrap();
  const ItemId x = 0;
  const auto hosts = cluster.catalog().sites_of(x);
  ASSERT_EQ(hosts.size(), 3u);
  const SiteId a = hosts[0], b = hosts[1], c = hosts[2];
  SiteId d = 0;
  while (d == a || d == b || d == c) ++d;
  cluster.crash_site(c);
  cluster.run_until(cluster.now() + 800'000);
  for (Value v = 1; v <= 3; ++v) {
    ASSERT_TRUE(cluster.run_txn(d, {{OpKind::kWrite, x, v}}).committed);
  }
  const uint64_t down_counter =
      cluster.site(a).stable().kv().find(x)->version.counter;
  ASSERT_GE(down_counter, 2u);
  // a and b go down before c is back: c's marked copy finds no source.
  cluster.crash_site(a);
  cluster.crash_site(b);
  cluster.run_until(cluster.now() + 800'000);
  cluster.recover_site(c);
  cluster.run_until(cluster.now() + 800'000);
  ASSERT_EQ(cluster.site(c).state().mode, SiteMode::kUp);
  const auto res = cluster.run_txn(c, {{OpKind::kWrite, x, 42}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  ASSERT_LT(cluster.site(c).stable().kv().find(x)->version.counter,
            down_counter);
  cluster.recover_site(a);
  cluster.recover_site(b);
  cluster.settle();
  std::string why;
  EXPECT_EQ(cluster.replicas_converged(&why), expect_converged) << why;
  if (expect_converged) {
    for (SiteId s : hosts) {
      EXPECT_EQ(cluster.site(s).stable().kv().find(x)->value, 42)
          << "site " << s;
    }
  }
}

TEST(FailureDetector, LateProbePongDoesNotRestartAReintegratedSite) {
  // Site 2 crashes and is declared down; then every link into it gets
  // slow (18 ms) while its answers stay fast (1 ms). A probe sent just
  // before site 2's type-1 commits reaches it once it is operational, and
  // the pong comes back after the type-1's CommitReq refreshed the
  // prober's NS copy. The prober must re-read NS and stay quiet. Probes
  // run every 4th tick; a 20 ms detector interval makes such a crossing
  // likely on every seed.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Config cfg;
    cfg.n_sites = 4;
    cfg.n_items = 40;
    cfg.replication_degree = 3;
    cfg.reconcile_probes = true;
    cfg.detector_interval = 20'000;
    cfg.net_latency_min = cfg.net_latency_max = 1'000;
    Cluster cluster(cfg, seed);
    cluster.bootstrap();
    ASSERT_TRUE(cluster.crash_site(2));
    cluster.run_until(cluster.now() + 600'000);
    ASSERT_GE(cluster.metrics().get("fd.declared_down"), 1) << seed;
    for (SiteId p : {0, 1, 3}) {
      cluster.network().latency().set_pair(p, 2, 18'000, 18'000);
    }
    ASSERT_TRUE(cluster.recover_site(2));
    cluster.run_until(cluster.now() + 3'000'000);
    EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp) << seed;
    EXPECT_EQ(cluster.metrics().get("fd.reconcile_restarts"), 0) << seed;
    EXPECT_EQ(cluster.metrics().get("site.crashes"), 1) << seed;
  }
}

TEST(CopierVersions, WriteWhileEveryCurrentCopyIsDownReachesThemAll) {
  run_counter_regress(PlantedBug::kNone, /*expect_converged=*/true);
}

TEST(CopierVersions, PlantedCounterCompareLeavesTheStaleCopies) {
  run_counter_regress(PlantedBug::kCopierCounterCompare,
                      /*expect_converged=*/false);
}

} // namespace
} // namespace ddbs
