// Resilience to multiple failures (paper Section 1: "resilient to multiple
// site failures, even if a site crashes while another site is recovering.
// A failed site can recover as long as there is at least one operational
// site in the system.").
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "verify/one_sr_checker.h"

namespace ddbs {
namespace {

Config cfg5() {
  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  return cfg;
}

TEST(MultiFailure, SiteCrashesWhileAnotherRecovers) {
  Cluster cluster(cfg5(), 31);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 2, 5}}).committed);
  // Recover site 1 and kill site 3 while the type-1 txn is in flight.
  cluster.recover_site(1);
  cluster.crash_site_at(cluster.now() + 2'000, 3);
  cluster.settle();
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  // Step 4 may or may not have needed a type-2 round depending on timing,
  // but recovery must complete and the view must show site 3 down.
  const SessionVector v = peek_ns_vector(cluster.site(1).stable().kv(), 5);
  EXPECT_EQ(v[3], 0u);
  EXPECT_NE(v[1], 0u);
}

TEST(MultiFailure, TwoSitesDownSimultaneously) {
  Cluster cluster(cfg5(), 33);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 600'000);
  // Writes still proceed where a copy survives.
  int committed = 0;
  for (ItemId x = 0; x < 30; ++x) {
    committed += cluster.run_txn(0, {{OpKind::kWrite, x, 7}}).committed;
  }
  EXPECT_EQ(committed, 30); // degree 3 over 5 sites, 2 down => 1+ copy up
  cluster.recover_site(1);
  cluster.settle();
  cluster.recover_site(2);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(MultiFailure, ConcurrentRecoveries) {
  Cluster cluster(cfg5(), 35);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 600'000);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 3, 9}}).committed);
  // Both recover at once; their type-1 transactions race.
  cluster.recover_site(1);
  cluster.recover_site(2);
  cluster.settle();
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  const auto rep = check_one_sr_graph(cluster.history().view());
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(MultiFailure, RecoveryWithSingleSurvivor) {
  Config cfg = cfg5();
  Cluster cluster(cfg, 37);
  cluster.bootstrap();
  for (SiteId s = 1; s < 5; ++s) cluster.crash_site(s);
  cluster.run_until(cluster.now() + 1'000'000);
  // Only site 0 remains; one site comes back and must be able to recover
  // through the single operational sponsor.
  cluster.recover_site(3);
  cluster.settle();
  EXPECT_EQ(cluster.site(3).state().mode, SiteMode::kUp);
  const SessionVector v = peek_ns_vector(cluster.site(0).stable().kv(), 5);
  EXPECT_NE(v[3], 0u);
}

TEST(MultiFailure, RecoveringSiteCrashesAgain) {
  Cluster cluster(cfg5(), 39);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 4, 11}}).committed);
  cluster.recover_site(2);
  // Kill it again almost immediately (likely mid-procedure), then bring it
  // back for good.
  cluster.crash_site_at(cluster.now() + 1'000, 2);
  cluster.run_until(cluster.now() + 800'000);
  cluster.recover_site(2);
  cluster.settle();
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  auto res = cluster.run_txn(2, {{OpKind::kRead, 4, 0}});
  ASSERT_TRUE(res.committed);
  EXPECT_EQ(res.reads[0], 11);
}

TEST(MultiFailure, RollingRestartOfEverySite) {
  Cluster cluster(cfg5(), 41);
  cluster.bootstrap();
  for (SiteId s = 0; s < 5; ++s) {
    cluster.crash_site(s);
    cluster.run_until(cluster.now() + 400'000);
    const SiteId writer = (s + 1) % 5;
    ASSERT_TRUE(
        cluster.run_txn(writer, {{OpKind::kWrite, s, 100 + s}}).committed);
    cluster.recover_site(s);
    cluster.settle();
    ASSERT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  for (ItemId x = 0; x < 5; ++x) {
    auto res = cluster.run_txn(static_cast<SiteId>(x), {{OpKind::kRead, x, 0}});
    ASSERT_TRUE(res.committed);
    EXPECT_EQ(res.reads[0], 100 + x);
  }
  const auto rep = check_one_sr_graph(cluster.history().view());
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(MultiFailure, TotallyFailedItemDetected) {
  // Degree 2 over 3 sites: crash BOTH resident sites of some item, recover
  // one of them; its copier finds no readable source.
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 12;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 43);
  cluster.bootstrap();
  // Find an item resident at sites {a, b} with a third site up.
  ItemId victim_item = -1;
  SiteId a = -1, b = -1;
  for (ItemId x = 0; x < cfg.n_items; ++x) {
    auto sites = cluster.catalog().sites_of(x);
    if (sites.size() == 2) {
      victim_item = x;
      a = sites[0];
      b = sites[1];
      break;
    }
  }
  ASSERT_NE(victim_item, -1);
  // Write it first so both copies exist with data, then crash both hosts.
  SiteId other = 0;
  while (other == a || other == b) ++other;
  ASSERT_TRUE(
      cluster.run_txn(a, {{OpKind::kWrite, victim_item, 5}}).committed);
  cluster.crash_site(a);
  cluster.run_until(cluster.now() + 400'000);
  cluster.crash_site(b);
  cluster.run_until(cluster.now() + 400'000);
  cluster.recover_site(a);
  cluster.settle();
  ASSERT_EQ(cluster.site(a).state().mode, SiteMode::kUp);
  // Mark-all marked the item; with its peer still down the copier cannot
  // find a readable source.
  EXPECT_GE(cluster.metrics().get("rm.totally_failed"), 1);
  // Bring the peer back: now the pair can converge again (its own copy is
  // the one with data).
  cluster.recover_site(b);
  cluster.settle();
  EXPECT_EQ(cluster.site(b).state().mode, SiteMode::kUp);
}

TEST(MultiFailure, SourceSiteCrashesDuringRefreshWindow) {
  // A recovering site is mid-refresh when one of its copier SOURCE sites
  // dies: in-flight copiers abort, the survivors' copies serve the rest,
  // and the refresh still completes.
  Config cfg = cfg5();
  cfg.n_items = 120;
  cfg.copier_concurrency = 2; // stretch the refresh window
  Cluster cluster(cfg, 45);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  for (int64_t i = 0; i < 100; ++i) {
    auto r = cluster.run_txn(0, {{OpKind::kWrite, i % 120, 60 + i}});
    ASSERT_TRUE(r.committed);
  }
  cluster.recover_site(2);
  // Kill a likely source mid-window (degree 3 leaves another copy).
  cluster.crash_site_at(cluster.now() + 60'000, 0);
  cluster.settle(300'000'000);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  EXPECT_EQ(cluster.site(2).stable().kv().unreadable_count(), 0u);
  cluster.recover_site(0);
  cluster.settle(300'000'000);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  const auto rep = check_one_sr_graph(cluster.history().view());
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(MultiFailure, RecoveringSiteIsValidCopierSourceLater) {
  // Two staggered recoveries: the first-recovered site becomes a copier
  // source for the second even though both were down together.
  Cluster cluster(cfg5(), 46);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 600'000);
  for (ItemId x = 0; x < 30; ++x) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 500 + x}}).committed);
  }
  cluster.recover_site(1);
  cluster.settle();
  ASSERT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  // Now kill the ORIGINAL copy holders, leaving site 1's refreshed copies
  // as the only readable sources for site 2's recovery.
  cluster.crash_site(0);
  cluster.crash_site(3);
  cluster.run_until(cluster.now() + 600'000);
  cluster.recover_site(2);
  cluster.settle(300'000'000);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  // Items with surviving copies must serve the latest values through 2.
  int readable = 0, correct = 0;
  for (ItemId x = 0; x < 30; ++x) {
    auto r = cluster.run_txn(2, {{OpKind::kRead, x, 0}});
    if (r.committed) {
      ++readable;
      correct += r.reads[0] == 500 + x;
    }
  }
  EXPECT_GT(readable, 0);
  EXPECT_EQ(readable, correct) << "a readable item served a stale value";
}

} // namespace
} // namespace ddbs
