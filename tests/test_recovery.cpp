// Recovery-procedure behaviour: milestones, session numbers, the four
// out-of-date identification strategies, copier modes and read policies.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "verify/one_sr_checker.h"

namespace ddbs {
namespace {

Config base_cfg() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 40;
  cfg.replication_degree = 3;
  return cfg;
}

// Crash site `victim`, apply `writes` updates to distinct items, recover,
// settle; returns the cluster for inspection.
std::unique_ptr<Cluster> outage_scenario(Config cfg, SiteId victim,
                                         int64_t writes, uint64_t seed) {
  auto cluster = std::make_unique<Cluster>(cfg, seed);
  cluster->bootstrap();
  cluster->crash_site(victim);
  cluster->run_until(cluster->now() + 400'000); // let detectors declare
  for (int64_t i = 0; i < writes; ++i) {
    const SiteId origin = victim == 0 ? 1 : 0;
    auto res = cluster->run_txn(
        origin, {{OpKind::kWrite, i % cfg.n_items, 1000 + i}});
    EXPECT_TRUE(res.committed) << to_string(res.reason);
  }
  cluster->recover_site(victim);
  cluster->settle();
  return cluster;
}

TEST(Recovery, MilestonesRecorded) {
  auto cluster = outage_scenario(base_cfg(), 2, 10, 5);
  const RecoveryEpisode ep = cluster->episodes().latest(2);
  EXPECT_EQ(ep.site, 2);
  EXPECT_NE(ep.reboot_at, kNoTime);
  EXPECT_NE(ep.nominally_up_at, kNoTime);
  EXPECT_NE(ep.fully_current_at, kNoTime);
  EXPECT_LE(ep.reboot_at, ep.nominally_up_at);
  EXPECT_LE(ep.nominally_up_at, ep.fully_current_at);
  EXPECT_GE(ep.type1_attempts, 1);
  EXPECT_TRUE(ep.complete);
}

TEST(Recovery, SessionNumberAdvancesEachIncarnation) {
  Config cfg = base_cfg();
  Cluster cluster(cfg, 6);
  cluster.bootstrap();
  EXPECT_EQ(cluster.site(1).state().session, 1u);
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  cluster.recover_site(1);
  cluster.settle();
  const SessionNum s2 = cluster.site(1).state().session;
  EXPECT_GT(s2, 1u);
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  cluster.recover_site(1);
  cluster.settle();
  EXPECT_GT(cluster.site(1).state().session, s2);
}

TEST(Recovery, NominalVectorConsistentAfterRecovery) {
  auto cluster = outage_scenario(base_cfg(), 1, 5, 7);
  const SessionNum s = cluster->site(1).state().session;
  for (SiteId i = 0; i < 4; ++i) {
    const SessionVector v =
        peek_ns_vector(cluster->site(i).stable().kv(), 4);
    EXPECT_EQ(v[1], s) << "site " << i << " has stale NS[1]";
  }
}

// gtest names each instantiation after the raw bytes of its parameter, so the
// struct carries no implicit padding: padding would hold whatever the
// allocator left there and the test names would change from run to run.
struct StrategyCase {
  StrategyCase(OutdatedStrategy s, const char* n) : strategy(s), name(n) {}
  OutdatedStrategy strategy;
  uint8_t zero_pad[7] = {};
  const char* name;
};
static_assert(sizeof(StrategyCase) == 8 + sizeof(const char*));

class StrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyTest, ConvergesAndServesLatestValues) {
  Config cfg = base_cfg();
  cfg.outdated_strategy = GetParam().strategy;
  auto cluster = outage_scenario(cfg, 2, 15, 11);
  EXPECT_EQ(cluster->site(2).state().mode, SiteMode::kUp);
  std::string why;
  EXPECT_TRUE(cluster->replicas_converged(&why)) << why;
  // Read every updated item at the recovered site.
  for (ItemId x = 0; x < 15; ++x) {
    auto res = cluster->run_txn(2, {{OpKind::kRead, x, 0}});
    ASSERT_TRUE(res.committed);
    EXPECT_EQ(res.reads[0], 1000 + x) << "item " << x;
  }
}

TEST_P(StrategyTest, HistoryIsOneSerializable) {
  Config cfg = base_cfg();
  cfg.outdated_strategy = GetParam().strategy;
  auto cluster = outage_scenario(cfg, 1, 8, 13);
  const History& h = cluster->history().view();
  const auto cg = check_conflict_graph(h);
  EXPECT_TRUE(cg.ok) << cg.detail;
  const auto one = check_one_sr_graph(h);
  EXPECT_TRUE(one.ok) << one.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(StrategyCase{OutdatedStrategy::kMarkAll, "mark_all"},
                      StrategyCase{OutdatedStrategy::kMarkAllVersionCmp,
                                   "mark_all_vcmp"},
                      StrategyCase{OutdatedStrategy::kFailLock, "fail_lock"},
                      StrategyCase{OutdatedStrategy::kMissingList,
                                   "missing_list"}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.name;
    });

TEST(Recovery, PreciseStrategiesMarkFewerCopies) {
  // Update only 5 items during the outage. Mark-all must mark everything
  // hosted at the victim; the missing list marks at most the copies that
  // actually missed updates.
  Config mark_all = base_cfg();
  mark_all.outdated_strategy = OutdatedStrategy::kMarkAll;
  auto c1 = outage_scenario(mark_all, 3, 5, 17);
  const int64_t marked_all = c1->episodes().latest(3).marked_unreadable;

  Config ml = base_cfg();
  ml.outdated_strategy = OutdatedStrategy::kMissingList;
  auto c2 = outage_scenario(ml, 3, 5, 17);
  const int64_t marked_ml = c2->episodes().latest(3).marked_unreadable;

  EXPECT_LE(marked_ml, 5);
  EXPECT_GT(marked_all, marked_ml);
  EXPECT_EQ(marked_all,
            static_cast<int64_t>(c1->catalog().items_at(3).size()));
}

TEST(Recovery, VersionCompareAvoidsPayloadsForCurrentCopies) {
  Config cfg = base_cfg();
  cfg.outdated_strategy = OutdatedStrategy::kMarkAllVersionCmp;
  auto cluster = outage_scenario(cfg, 3, 5, 19);
  const int64_t copied = cluster->metrics().get("copier.payload_copies");
  const int64_t avoided =
      cluster->metrics().get("copier.payload_avoided_vcmp");
  // Only ~5 items changed; most marked copies were already current.
  EXPECT_GT(avoided, 0);
  EXPECT_LE(copied, 6);
}

TEST(Recovery, OnDemandCopierRefreshesOnRead) {
  Config cfg = base_cfg();
  cfg.copier_mode = CopierMode::kOnDemand;
  cfg.unreadable_policy = UnreadablePolicy::kBlock;
  Cluster cluster(cfg, 21);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 3, 33}}).committed);
  cluster.recover_site(2);
  cluster.settle();
  ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  // No eager refresh: unreadable copies remain until touched.
  const size_t before = cluster.site(2).stable().kv().unreadable_count();
  EXPECT_GT(before, 0u);
  // Reading through site 2 triggers the copier and returns the value.
  auto res = cluster.run_txn(2, {{OpKind::kRead, 3, 0}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_EQ(res.reads[0], 33);
  cluster.settle();
  const Copy* c = cluster.site(2).stable().kv().find(3);
  if (c != nullptr) {
    EXPECT_FALSE(c->unreadable);
  }
}

TEST(Recovery, RedirectPolicyServesReadsElsewhereDuringRefresh) {
  Config cfg = base_cfg();
  cfg.copier_mode = CopierMode::kOnDemand;
  cfg.unreadable_policy = UnreadablePolicy::kRedirect;
  Cluster cluster(cfg, 23);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 3, 44}}).committed);
  cluster.recover_site(2);
  cluster.settle();
  auto res = cluster.run_txn(2, {{OpKind::kRead, 3, 0}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_EQ(res.reads[0], 44);
  EXPECT_GE(cluster.metrics().get("txn.read_redirect") +
                cluster.metrics().get("dm.read_hit_unreadable"),
            1);
}

TEST(Recovery, WriteAllAvailableClearsMarkWithoutCopier) {
  Config cfg = base_cfg();
  cfg.copier_mode = CopierMode::kOnDemand; // nothing refreshes eagerly
  Cluster cluster(cfg, 25);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  cluster.recover_site(2);
  cluster.settle();
  ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  // Pick an item hosted at site 2 that is currently marked.
  ItemId marked = -1;
  for (ItemId x : cluster.site(2).stable().kv().unreadable_items()) {
    if (is_data_item(x)) {
      marked = x;
      break;
    }
  }
  ASSERT_NE(marked, -1);
  // A write-all-available (site 2 is up again) renovates the copy.
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, marked, 88}}).committed);
  cluster.settle(); // let the remote commit applies land
  const Copy* c = cluster.site(2).stable().kv().find(marked);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->unreadable);
  EXPECT_EQ(c->value, 88);
}

TEST(Recovery, SingleCopyItemsAreNotMarked) {
  Config cfg = base_cfg();
  cfg.replication_degree = 1; // every item has exactly one copy
  Cluster cluster(cfg, 27);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  cluster.recover_site(1);
  cluster.settle();
  ASSERT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
  // Nobody can have updated a single-copy item while its site was down
  // (ROWAA fails with zero targets), so nothing should be marked and the
  // values must still be readable locally.
  EXPECT_EQ(cluster.site(1).stable().kv().unreadable_count(), 0u);
  EXPECT_EQ(cluster.metrics().get("rm.totally_failed"), 0);
}

} // namespace
} // namespace ddbs
