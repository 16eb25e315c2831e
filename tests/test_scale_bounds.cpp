// Boundary cluster shapes: the protocol must not hide small-n or large-n
// assumptions (NS vectors, detector fan-out, catalog placement).
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

TEST(ScaleBounds, TwoSiteCluster) {
  Config cfg;
  cfg.n_sites = 2;
  cfg.n_items = 10;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 91);
  cluster.bootstrap();
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 1, 5}}).committed);
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 500'000);
  // Writes survive on the single remaining copy.
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 1, 6}}).committed);
  cluster.recover_site(1);
  cluster.settle();
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  auto r = cluster.run_txn(1, {{OpKind::kRead, 1, 0}});
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.reads[0], 6);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(ScaleBounds, TwelveSiteClusterUnderChurn) {
  Config cfg;
  cfg.n_sites = 12;
  cfg.n_items = 120;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, 92);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 1;
  rp.think_time = 6'000;
  rp.duration = 2'500'000;
  rp.workload.ops_per_txn = 2;
  rp.schedule = {{400'000, FailureEvent::What::kCrash, 5},
                 {600'000, FailureEvent::What::kCrash, 9},
                 {1'400'000, FailureEvent::What::kRecover, 5},
                 {1'700'000, FailureEvent::What::kRecover, 9}};
  Runner runner(cluster, rp, 92);
  const RunnerStats stats = runner.run();
  EXPECT_GT(stats.committed, 100);
  cluster.settle(240'000'000);
  for (SiteId s = 0; s < 12; ++s) {
    EXPECT_EQ(cluster.site(s).state().mode, SiteMode::kUp) << "site " << s;
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(ScaleBounds, FullReplicationEverywhere) {
  Config cfg;
  cfg.n_sites = 6;
  cfg.n_items = 30;
  cfg.replication_degree = 6; // every item everywhere
  Cluster cluster(cfg, 93);
  cluster.bootstrap();
  for (ItemId x = 0; x < 30; ++x) {
    ASSERT_TRUE(cluster.run_txn(static_cast<SiteId>(x % 6),
                                {{OpKind::kWrite, x, x}})
                    .committed);
  }
  cluster.crash_site(3);
  cluster.run_until(cluster.now() + 500'000);
  // Reads succeed from every surviving site even with one replica dark.
  for (SiteId s = 0; s < 6; ++s) {
    if (s == 3) continue;
    auto r = cluster.run_txn(s, {{OpKind::kRead, 7, 0}});
    EXPECT_TRUE(r.committed) << "site " << s;
  }
  cluster.recover_site(3);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(ScaleBounds, ManyItemsRecoveryThroughput) {
  // A big database behind a single recovery: copier concurrency bounds
  // in-flight refreshes, and the refresh completes.
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 1'000;
  cfg.replication_degree = 2;
  cfg.copier_concurrency = 8;
  Cluster cluster(cfg, 94);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 500'000);
  for (int64_t i = 0; i < 300; ++i) {
    auto r = cluster.run_txn(0, {{OpKind::kWrite, i * 3 % 1000, i}});
    ASSERT_TRUE(r.committed);
  }
  cluster.recover_site(2);
  cluster.settle(600'000'000);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  EXPECT_EQ(cluster.site(2).stable().kv().unreadable_count(), 0u);
  EXPECT_NE(cluster.episodes().latest(2).fully_current_at, kNoTime);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

} // namespace
} // namespace ddbs
