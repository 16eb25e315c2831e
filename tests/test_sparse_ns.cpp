// Footprint-proportional session protocol (Config::footprint_ns):
// differential coverage against the dense full-vector protocol, plus the
// O(host-set) accounting regression that keeps the sparse path honest.
//
// The sparse protocol is deliberately NOT byte-identical to the dense
// one -- reading fewer NS entries removes simulation events and shifts
// every downstream timestamp -- so the differential contract here is
// semantic, not textual: on the same (config, schedule, seed) the two
// protocols must reach the same oracle verdict. A clean run must stay
// clean (which includes the replica-convergence and NS-agreement oracles
// at quiescence), under crash/reboot, partition and drop-burst nemesis
// schedules, on both cluster backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "explore/explorer.h"
#include "explore/schedule.h"

namespace ddbs {
namespace {

ExploreOptions base_options() {
  ExploreOptions opts;
  opts.cfg.n_sites = 8;
  opts.cfg.n_items = 80;
  opts.cfg.replication_degree = 3;
  opts.horizon = 1'200'000;
  return opts;
}

// Run one schedule under sparse then dense NS and hold both to the same
// oracle verdict. On the unmutated protocol that verdict must be clean;
// a violation in either mode fails with the offending report attached.
void expect_verdicts_agree(ExploreOptions opts, const Schedule& schedule,
                           uint64_t seed, const std::string& what) {
  opts.cfg.footprint_ns = true;
  const ExploreRunResult sparse = run_schedule(opts, schedule, seed);
  opts.cfg.footprint_ns = false;
  const ExploreRunResult dense = run_schedule(opts, schedule, seed);
  EXPECT_EQ(sparse.violated, dense.violated) << what;
  EXPECT_FALSE(sparse.violated) << what << "\n" << sparse.report;
  EXPECT_FALSE(dense.violated) << what << "\n" << dense.report;
  // Both runs did real work: a protocol change that silently stopped
  // transactions from committing would otherwise pass vacuously.
  EXPECT_GT(sparse.committed, 0) << what;
  EXPECT_GT(dense.committed, 0) << what;
}

TEST(SparseNs, DifferentialCrashRebootNemesis) {
  const ExploreOptions opts = base_options();
  ScheduleParams params;
  params.n_sites = opts.cfg.n_sites;
  params.horizon = opts.horizon;
  params.drop_bursts = false;
  params.latency_skew = false; // crash/reboot only
  for (uint64_t sched_seed = 1; sched_seed <= 4; ++sched_seed) {
    const Schedule schedule = generate_schedule(params, sched_seed);
    expect_verdicts_agree(opts, schedule, sched_seed,
                          "crash/reboot schedule " +
                              std::to_string(sched_seed));
  }
}

TEST(SparseNs, DifferentialPartitionNemesis) {
  const ExploreOptions opts = base_options();
  ScheduleParams params;
  params.n_sites = opts.cfg.n_sites;
  params.horizon = opts.horizon;
  params.partitions = true;
  for (uint64_t sched_seed = 1; sched_seed <= 4; ++sched_seed) {
    const Schedule schedule = generate_schedule(params, sched_seed);
    expect_verdicts_agree(opts, schedule, sched_seed,
                          "partition schedule " + std::to_string(sched_seed));
  }
}

TEST(SparseNs, DifferentialDropBurstNemesis) {
  ExploreOptions opts = base_options();
  opts.cfg.msg_loss_prob = 0.02; // background loss under the bursts
  // Hand-written schedule: two loss bursts bracketing a crash/reboot, so
  // retries and suspicion churn overlap the sparse session reads.
  const Schedule schedule = {
      {150'000, NemesisKind::kDropBurst, kInvalidSite, 300'000, 0.20, 1.0},
      {400'000, NemesisKind::kCrash, 2, 0, 0.0, 1.0},
      {700'000, NemesisKind::kReboot, 2, 0, 0.0, 1.0},
      {800'000, NemesisKind::kDropBurst, kInvalidSite, 200'000, 0.15, 1.0},
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    expect_verdicts_agree(opts, schedule, seed,
                          "drop-burst seed " + std::to_string(seed));
  }
}

// Under sparse NS the online verifier judges nemesis runs with partitions
// clean.
TEST(SparseNs, OnlineVerifierCleanUnderSparseNs) {
  ExploreOptions opts = base_options();
  opts.cfg.footprint_ns = true;
  ScheduleParams params;
  params.n_sites = opts.cfg.n_sites;
  params.horizon = opts.horizon;
  params.partitions = true;
  for (uint64_t sched_seed = 1; sched_seed <= 3; ++sched_seed) {
    const Schedule schedule = generate_schedule(params, sched_seed);
    const ExploreRunResult r = run_schedule(opts, schedule, sched_seed);
    EXPECT_FALSE(r.violated) << "schedule seed " << sched_seed << ": "
                             << r.report;
  }
}

// Same contract on the site-parallel backend: sparse vs dense verdicts
// agree, and the parallel execution replays byte-identically on its
// single-threaded DES twin (same shard map, site-ordered events) with
// sparse NS on.
TEST(SparseNs, ParallelBackendVerdictsAgreeAndMatchDesTwin) {
  ExploreOptions opts = base_options();
  opts.cfg.n_sites = 6;
  opts.cfg.n_items = 40;
  opts.cfg.n_threads = 3;
  const Schedule schedule = {
      {200'000, NemesisKind::kCrash, 1, 0, 0.0, 1.0},
      {600'000, NemesisKind::kReboot, 1, 0, 0.0, 1.0},
      {750'000, NemesisKind::kCrash, 4, 0, 0.0, 1.0},
  };
  expect_verdicts_agree(opts, schedule, /*seed=*/17, "parallel backend");

  opts.cfg.footprint_ns = true;
  const ExploreRunResult par = run_schedule(opts, schedule, 17);
  Config twin = opts.cfg;
  twin.workload_shards = twin.shard_count();
  twin.n_threads = 1;
  twin.site_ordered_events = true;
  opts.cfg = twin;
  const ExploreRunResult des = run_schedule(opts, schedule, 17);
  EXPECT_EQ(par.report, des.report);
  EXPECT_FALSE(par.violated) << par.report;
}

// ---------------------------------------------------- accounting bound

// The point of the whole exercise: at 128 sites / degree 3, a user
// transaction's session reads equal its host-set size (union of its
// items' replica sets) -- not n_sites. Submitted one at a time on an
// otherwise idle cluster, so the txn.ns_reads counter delta is exactly
// this transaction's reads.
TEST(SparseNs, NsReadsEqualHostSetSizeAt128Sites) {
  Config cfg;
  cfg.n_sites = 128;
  cfg.n_items = 10'000;
  cfg.replication_degree = 3;
  ASSERT_TRUE(cfg.footprint_ns); // protocol default
  Cluster cluster(cfg, 904);
  cluster.bootstrap();
  cluster.settle();

  Rng rng(31);
  for (int t = 0; t < 48; ++t) {
    std::vector<LogicalOp> ops;
    std::vector<SiteId> hosts;
    const int n_ops = static_cast<int>(rng.uniform(1, 5));
    for (int k = 0; k < n_ops; ++k) {
      LogicalOp op;
      op.kind = rng.uniform01() < 0.5 ? OpKind::kRead : OpKind::kWrite;
      op.item = static_cast<ItemId>(rng.uniform(0, cfg.n_items - 1));
      op.value = t;
      const auto sites = cluster.catalog().sites_of(op.item);
      hosts.insert(hosts.end(), sites.begin(), sites.end());
      ops.push_back(op);
    }
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
    ASSERT_LE(hosts.size(), static_cast<size_t>(n_ops) * 3);

    const SiteId origin =
        static_cast<SiteId>(rng.uniform(0, cfg.n_sites - 1));
    const int64_t before = cluster.metrics().get(
        cluster.metrics().id.txn_ns_reads);
    const TxnResult r = cluster.run_txn(origin, ops);
    EXPECT_TRUE(r.committed) << "txn " << t;
    const int64_t delta =
        cluster.metrics().get(cluster.metrics().id.txn_ns_reads) - before;
    EXPECT_EQ(delta, static_cast<int64_t>(hosts.size())) << "txn " << t;
  }
}

// Contrast run: with footprint_ns off the same submission costs a full
// n_sites-wide vector read, which is the regression this file guards
// against reintroducing by default.
TEST(SparseNs, DenseModeReadsFullVectorAt64Sites) {
  Config cfg;
  cfg.n_sites = 64;
  cfg.n_items = 2'000;
  cfg.replication_degree = 3;
  cfg.footprint_ns = false;
  Cluster cluster(cfg, 905);
  cluster.bootstrap();
  cluster.settle();

  const int64_t before =
      cluster.metrics().get(cluster.metrics().id.txn_ns_reads);
  const TxnResult r = cluster.run_txn(
      3, {{OpKind::kRead, 7, 0}, {OpKind::kWrite, 1'234, 9}});
  EXPECT_TRUE(r.committed);
  const int64_t delta =
      cluster.metrics().get(cluster.metrics().id.txn_ns_reads) - before;
  EXPECT_EQ(delta, cfg.n_sites);
}

} // namespace
} // namespace ddbs
