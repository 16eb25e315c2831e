#include <gtest/gtest.h>

#include "core/cluster.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

Config cfg4() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  return cfg;
}

TEST(Runner, CollectsThroughputAndLatency) {
  Cluster cluster(cfg4(), 65);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 2;
  rp.think_time = 3'000;
  rp.duration = 1'000'000;
  rp.workload.ops_per_txn = 2;
  Runner runner(cluster, rp, 65);
  const RunnerStats stats = runner.run();
  EXPECT_GT(stats.committed, 50);
  EXPECT_EQ(stats.submitted, stats.committed + stats.aborted);
  EXPECT_GT(stats.commit_latency_us.count(), 0u);
  EXPECT_GT(stats.commit_latency_us.mean(), 0.0);
  // Per-bucket availability now comes from the cluster's time-series
  // recorder (default 250 ms buckets; the 1 s run spans at least four).
  const TimeSeriesData series = cluster.timeseries().data();
  EXPECT_GE(series.commits.size(), 4u);
  EXPECT_GT(stats.commit_ratio(), 0.9);
}

TEST(Runner, FailureScheduleExecutes) {
  Cluster cluster(cfg4(), 67);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 1;
  rp.duration = 2'000'000;
  rp.schedule = {{300'000, FailureEvent::What::kCrash, 2},
                 {1'200'000, FailureEvent::What::kRecover, 2}};
  Runner runner(cluster, rp, 67);
  const RunnerStats stats = runner.run();
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(cluster.metrics().get("site.crashes"), 1);
  EXPECT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
}

TEST(WorkloadGen, ItemsDistinctAndReadsFirst) {
  Config cfg = cfg4();
  WorkloadParams wp;
  wp.ops_per_txn = 5;
  wp.read_fraction = 0.5;
  WorkloadGen gen(cfg, wp, 9);
  for (int t = 0; t < 50; ++t) {
    const auto ops = gen.next();
    EXPECT_LE(ops.size(), 5u);
    std::set<ItemId> seen;
    bool saw_write = false;
    for (const auto& op : ops) {
      EXPECT_TRUE(seen.insert(op.item).second) << "duplicate item";
      if (op.kind == OpKind::kWrite) saw_write = true;
      if (saw_write) {
        EXPECT_EQ(op.kind, OpKind::kWrite) << "read after write";
      }
    }
  }
}

TEST(WorkloadGen, TransferShape) {
  Config cfg = cfg4();
  WorkloadGen gen(cfg, WorkloadParams{}, 10);
  const auto ops = gen.next_transfer();
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, OpKind::kRead);
  EXPECT_EQ(ops[1].kind, OpKind::kRead);
  EXPECT_EQ(ops[2].kind, OpKind::kWrite);
  EXPECT_EQ(ops[3].kind, OpKind::kWrite);
  EXPECT_EQ(ops[0].item, ops[2].item);
  EXPECT_EQ(ops[1].item, ops[3].item);
  EXPECT_NE(ops[0].item, ops[1].item);
}

} // namespace
} // namespace ddbs
