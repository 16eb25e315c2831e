// Total-cluster-failure cold start: the case the paper excludes ("a failed
// site can recover as long as there is at least one operational site").
// The lowest-id alive site re-founds the cluster; everyone else then
// recovers normally through it; conservative marking + the all-marked
// resolution protocol restore the data.
#include <gtest/gtest.h>

#include "core/cluster.h"

namespace ddbs {
namespace {

TEST(ColdStart, LowestAliveSiteRefoundsTheCluster) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 20;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 21);
  cluster.bootstrap();
  for (ItemId x = 0; x < 20; ++x) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 700 + x}}).committed);
  }
  cluster.settle();
  // Everybody dies.
  for (SiteId s = 0; s < 4; ++s) cluster.crash_site(s);
  cluster.run_until(cluster.now() + 200'000);
  // Sites 2 and 3 come back first; site 2 (lowest alive) must bootstrap.
  cluster.recover_site(2);
  cluster.recover_site(3);
  cluster.settle(240'000'000);
  EXPECT_GE(cluster.metrics().get("control_up.cold_start"), 1);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  EXPECT_EQ(cluster.site(3).state().mode, SiteMode::kUp);
  // The stragglers rejoin through the re-founded cluster.
  cluster.recover_site(0);
  cluster.recover_site(1);
  cluster.settle(240'000'000);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
    EXPECT_EQ(cluster.site(s).stable().kv().unreadable_count(), 0u)
        << "site " << s;
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  // No committed data was lost across the total failure.
  for (ItemId x = 0; x < 20; ++x) {
    auto r = cluster.run_txn(static_cast<SiteId>(x % 4), {{OpKind::kRead, x, 0}});
    ASSERT_TRUE(r.committed) << "item " << x;
    EXPECT_EQ(r.reads[0], 700 + x) << "item " << x;
  }
}

TEST(ColdStart, HigherIdSiteDefersToLowerAliveSite) {
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 10;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 22);
  cluster.bootstrap();
  for (SiteId s = 0; s < 3; ++s) cluster.crash_site(s);
  cluster.run_until(cluster.now() + 200'000);
  // Both 1 and 2 recover concurrently; only ONE cold start may found the
  // cluster (site 1, the lowest alive).
  cluster.recover_site(1);
  cluster.recover_site(2);
  cluster.settle(240'000'000);
  EXPECT_EQ(cluster.metrics().get("control_up.cold_start"), 1);
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  const SessionVector v = peek_ns_vector(cluster.site(1).stable().kv(), 3);
  EXPECT_EQ(v[0], 0u); // site 0 still down
  EXPECT_NE(v[1], 0u);
  EXPECT_NE(v[2], 0u);
}

TEST(ColdStart, SingleSiteClusterRecovers) {
  Config cfg;
  cfg.n_sites = 1;
  cfg.n_items = 5;
  cfg.replication_degree = 1;
  Cluster cluster(cfg, 23);
  cluster.bootstrap();
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 2, 9}}).committed);
  cluster.crash_site(0);
  cluster.run_until(cluster.now() + 100'000);
  cluster.recover_site(0);
  cluster.settle();
  EXPECT_EQ(cluster.site(0).state().mode, SiteMode::kUp);
  auto r = cluster.run_txn(0, {{OpKind::kRead, 2, 0}});
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.reads[0], 9);
}

TEST(ColdStart, DataOnlyAtStragglerWaitsForIt) {
  // Items whose every resident copy lives at still-down sites must stay
  // unreadable (conservative) until one of their hosts returns.
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 20;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 24);
  cluster.bootstrap();
  // Find an item resident only at sites {2,3}.
  ItemId item = -1;
  for (ItemId x = 0; x < 20; ++x) {
    const auto sites = cluster.catalog().sites_of(x);
    if (sites.size() == 2 && sites[0] == 2 && sites[1] == 3) {
      item = x;
      break;
    }
  }
  if (item == -1) GTEST_SKIP() << "placement seed gave no {2,3} item";
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, item, 42}}).committed);
  cluster.settle();
  for (SiteId s = 0; s < 4; ++s) cluster.crash_site(s);
  cluster.run_until(cluster.now() + 200'000);
  // Only sites 0 and 1 return: they host no copy of `item`, so it is
  // simply unavailable (reads fail), not corrupted.
  cluster.recover_site(0);
  cluster.recover_site(1);
  cluster.settle(240'000'000);
  auto r = cluster.run_txn(0, {{OpKind::kRead, item, 0}});
  EXPECT_FALSE(r.committed);
  // The hosts come back; the value survives.
  cluster.recover_site(2);
  cluster.recover_site(3);
  cluster.settle(240'000'000);
  auto r2 = cluster.run_txn(0, {{OpKind::kRead, item, 0}});
  ASSERT_TRUE(r2.committed) << to_string(r2.reason);
  EXPECT_EQ(r2.reads[0], 42);
}

// The spooler baseline marks copies only at a cold start, and copiers
// refresh them exactly as under session vectors: all at once in eager
// mode, or when a read hits one in on-demand mode.
TEST(ColdStart, SpoolerRefreshesTheColdStartMarks) {
  for (CopierMode mode : {CopierMode::kEager, CopierMode::kOnDemand}) {
    SCOPED_TRACE(mode == CopierMode::kEager ? "eager" : "on-demand");
    Config cfg;
    cfg.n_sites = 4;
    cfg.n_items = 20;
    cfg.replication_degree = 2;
    cfg.recovery_scheme = RecoveryScheme::kSpooler;
    cfg.copier_mode = mode;
    Cluster cluster(cfg, 25);
    cluster.bootstrap();
    for (ItemId x = 0; x < 20; ++x) {
      ASSERT_TRUE(
          cluster.run_txn(0, {{OpKind::kWrite, x, 800 + x}}).committed);
    }
    cluster.settle();
    for (SiteId s = 0; s < 4; ++s) cluster.crash_site(s);
    cluster.run_until(cluster.now() + 200'000);
    for (SiteId s = 0; s < 4; ++s) cluster.recover_site(s);
    cluster.settle(240'000'000);
    ASSERT_EQ(cluster.metrics().get("control_up.cold_start"), 1);
    ASSERT_GT(cluster.metrics().get("dm.mark_all_items"), 0);
    if (mode == CopierMode::kEager) {
      for (SiteId s = 0; s < 4; ++s) {
        EXPECT_EQ(cluster.site(s).stable().kv().unreadable_count(), 0u)
            << "site " << s << " before any read";
      }
    }
    // Every site reads every item it hosts (its local copy first).
    for (ItemId x = 0; x < 20; ++x) {
      for (SiteId s : cluster.catalog().sites_of(x)) {
        auto r = cluster.run_txn(s, {{OpKind::kRead, x, 0}});
        ASSERT_TRUE(r.committed) << "item " << x << " at " << s;
        EXPECT_EQ(r.reads[0], 800 + x) << "item " << x << " at " << s;
      }
    }
    cluster.settle();
    for (SiteId s = 0; s < 4; ++s) {
      EXPECT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
      EXPECT_EQ(cluster.site(s).stable().kv().unreadable_count(), 0u)
          << "site " << s;
    }
    std::string why;
    EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  }
}

} // namespace
} // namespace ddbs
