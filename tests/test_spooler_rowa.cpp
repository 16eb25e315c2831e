// The two baselines the paper positions itself against: strict ROWA
// (availability strawman, Section 2) and spooled-redo recovery (Section 1,
// first approach).
#include <gtest/gtest.h>

#include "core/cluster.h"

namespace ddbs {
namespace {

Config cfg4() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  return cfg;
}

TEST(StrictRowa, WritesFailWhileAnyCopyIsDown) {
  Config cfg = cfg4();
  cfg.write_scheme = WriteScheme::kRowaStrict;
  Cluster cluster(cfg, 51);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  int write_ok = 0, read_ok = 0;
  for (ItemId x = 0; x < 30; ++x) {
    write_ok += cluster.run_txn(0, {{OpKind::kWrite, x, 1}}).committed;
    read_ok += cluster.run_txn(0, {{OpKind::kRead, x, 0}}).committed;
  }
  // Items with a copy at site 1 cannot be written under strict ROWA...
  size_t items_at_1 = 0;
  for (ItemId x = 0; x < 30; ++x) {
    items_at_1 += cluster.catalog().has_copy(1, x) ? 1 : 0;
  }
  EXPECT_EQ(write_ok, 30 - static_cast<int>(items_at_1));
  // ...but reads are one-copy and survive.
  EXPECT_EQ(read_ok, 30);
}

TEST(StrictRowa, RowaaWritesSucceedOnSameScenario) {
  Config cfg = cfg4(); // default ROWAA
  Cluster cluster(cfg, 51);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  int write_ok = 0;
  for (ItemId x = 0; x < 30; ++x) {
    write_ok += cluster.run_txn(0, {{OpKind::kWrite, x, 1}}).committed;
  }
  EXPECT_EQ(write_ok, 30);
}

TEST(Spooler, MissedUpdatesReplayedBeforeOperational) {
  Config cfg = cfg4();
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  Cluster cluster(cfg, 53);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  for (ItemId x = 0; x < 10; ++x) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 200 + x}}).committed);
  }
  // Spool records exist at the writing sites.
  int64_t spooled = 0;
  for (SiteId s = 0; s < 4; ++s) {
    if (s == 2) continue;
    spooled += static_cast<int64_t>(
        cluster.site(s).stable().spool().records_count_for(2));
  }
  EXPECT_GT(spooled, 0);
  cluster.recover_site(2);
  cluster.settle();
  ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  // No unreadable marks in spooler mode; data must already be current.
  EXPECT_EQ(cluster.site(2).stable().kv().unreadable_count(), 0u);
  EXPECT_GT(cluster.metrics().get("rm.spool_prefetched"), 0);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
  for (ItemId x = 0; x < 10; ++x) {
    auto res = cluster.run_txn(2, {{OpKind::kRead, x, 0}});
    ASSERT_TRUE(res.committed);
    EXPECT_EQ(res.reads[0], 200 + x);
  }
  // Spools were trimmed by the control transaction.
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(s).stable().spool().records_count_for(2), 0u);
  }
}

// The prefetch installs every spooled record before the type-1, so the
// type-1 must not ship them again: with no writes in between it collects
// nothing.
TEST(Spooler, QuietRecoveryShipsNoRecordsInTheType1) {
  Config cfg = cfg4();
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  Cluster cluster(cfg, 53);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  for (ItemId x = 0; x < 10; ++x) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 300 + x}}).committed);
  }
  cluster.settle(); // every participant has applied (and spooled) them
  cluster.recover_site(2);
  cluster.settle();
  ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  EXPECT_GT(cluster.metrics().get("rm.spool_prefetched"), 0);
  EXPECT_EQ(cluster.metrics().get("control_up.spool_collected"), 0);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

// A write that lands after the prefetch served the spool but before the
// type-1 reads it is the one record the type-1 ships -- once from each
// site that spooled it.
TEST(Spooler, WriteBetweenPrefetchAndType1IsTheOnlyRecordShipped) {
  Config cfg = cfg4();
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  cfg.local_op_cost = 20'000; // 200 ms of modeled replay for 10 records
  Cluster cluster(cfg, 53);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  for (ItemId x = 0; x < 10; ++x) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 300 + x}}).committed);
  }
  cluster.settle(); // every participant has applied (and spooled) them
  ItemId late = 0;
  while (!cluster.catalog().has_copy(2, late)) ++late;
  cluster.recover_site(2);
  for (int i = 0; i < 1000 && cluster.metrics().get("rm.spool_prefetched") == 0;
       ++i) {
    cluster.run_until(cluster.now() + 1'000);
  }
  ASSERT_GT(cluster.metrics().get("rm.spool_prefetched"), 0);
  ASSERT_NE(cluster.site(2).state().mode, SiteMode::kUp);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, late, 999}}).committed);
  ASSERT_NE(cluster.site(2).state().mode, SiteMode::kUp); // still replaying
  cluster.settle();
  ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  EXPECT_EQ(cluster.metrics().get("control_up.spool_collected"),
            static_cast<int64_t>(cluster.catalog().replica_count(late)) - 1);
  EXPECT_EQ(cluster.site(2).stable().kv().find(late)->value, 999);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(Spooler, TimeToOperationalGrowsWithSpoolSize) {
  auto run_case = [](int64_t writes) -> SimTime {
    Config cfg = cfg4();
    cfg.n_items = 200;
    cfg.recovery_scheme = RecoveryScheme::kSpooler;
    Cluster cluster(cfg, 55);
    cluster.bootstrap();
    cluster.crash_site(2);
    cluster.run_until(cluster.now() + 400'000);
    for (int64_t i = 0; i < writes; ++i) {
      auto r = cluster.run_txn(0, {{OpKind::kWrite, i % 200, i}});
      EXPECT_TRUE(r.committed);
    }
    const SimTime t0 = cluster.now();
    cluster.recover_site(2);
    cluster.settle();
    EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
    return cluster.episodes().latest(2).nominally_up_at - t0;
  };
  const SimTime small = run_case(5);
  const SimTime large = run_case(150);
  EXPECT_GT(large, small);
}

TEST(Spooler, SessionVectorIsOperationalSoonerThanSpooler) {
  auto time_to_up = [](RecoveryScheme scheme) -> SimTime {
    Config cfg = cfg4();
    cfg.n_items = 150;
    cfg.recovery_scheme = scheme;
    Cluster cluster(cfg, 57);
    cluster.bootstrap();
    cluster.crash_site(2);
    cluster.run_until(cluster.now() + 400'000);
    for (int64_t i = 0; i < 120; ++i) {
      EXPECT_TRUE(
          cluster.run_txn(0, {{OpKind::kWrite, i % 150, i}}).committed);
    }
    const SimTime t0 = cluster.now();
    cluster.recover_site(2);
    cluster.settle();
    EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
    return cluster.episodes().latest(2).nominally_up_at - t0;
  };
  const SimTime spooler = time_to_up(RecoveryScheme::kSpooler);
  const SimTime session = time_to_up(RecoveryScheme::kSessionVector);
  // The paper's headline: the session-vector site resumes operation as
  // soon as the control transaction commits; the spooler replays first.
  EXPECT_LT(session, spooler);
}

} // namespace
} // namespace ddbs
