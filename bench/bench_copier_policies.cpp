// E5 / Table 5 -- copier scheduling and unreadable-read policy
// (paper Section 3.2): copiers "may be initiated by the recovery procedure
// one by one ... or on a demand basis"; a read that hits an unreadable copy
// "can either be blocked until the copier finishes, or may read some other
// copy instead. ... Such choices may influence the performance but not the
// correctness."
//
// Scenario: a site recovers with a stale prefix of the database while a
// read-heavy workload keeps running cluster-wide; measure user read latency
// during the refresh window, refresh completion time, and copier counts for
// each (mode x policy) combination.
#include <cstdio>
#include <string>

#include "common/report.h"
#include "core/cluster.h"
#include "workload/runner.h"
#include "workload/stats.h"

using namespace ddbs;

namespace {

struct Row {
  double p50 = 0;
  double p99 = 0;
  double commit_ratio = 0;
  int64_t copiers = 0;
  SimTime refresh = 0; // kNoTime-ish sentinel mapped to 0 when incomplete
  size_t leftover = 0; // unreadable copies at the end (on-demand)
};

Row run_case(CopierMode mode, UnreadablePolicy policy, uint64_t seed,
             RunReport& report) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 150;
  cfg.replication_degree = 3;
  cfg.copier_mode = mode;
  cfg.unreadable_policy = policy;
  Cluster cluster(cfg, seed);
  cluster.bootstrap();

  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);
  for (int64_t i = 0; i < 120; ++i) {
    auto r = cluster.run_txn(0, {{OpKind::kWrite, i % cfg.n_items, i}});
    if (!r.committed) --i;
  }
  const SimTime t0 = cluster.now();
  cluster.recover_site(2);

  RunnerParams rp;
  rp.clients_per_site = 2;
  rp.think_time = 3'000;
  rp.duration = 1'500'000; // the refresh window
  rp.workload.ops_per_txn = 2;
  rp.workload.read_fraction = 0.9;
  rp.workload.zipf_theta = 0.4;
  Runner runner(cluster, rp, seed * 3 + 1);
  const RunnerStats stats = runner.run();
  cluster.settle();

  const RecoveryEpisode ep = cluster.episodes().latest(2);
  Row row;
  row.p50 = stats.commit_latency_us.percentile(50);
  row.p99 = stats.commit_latency_us.percentile(99);
  row.commit_ratio = stats.commit_ratio();
  row.copiers = cluster.metrics().get("copier.started");
  row.refresh =
      ep.fully_current_at == kNoTime ? 0 : ep.fully_current_at - t0;
  row.leftover = cluster.site(2).stable().kv().unreadable_count();

  RunReport::Run& run = cluster.report_run(
      report,
      std::string(to_string(mode)) + "_" + std::string(to_string(policy)));
  run.scalars.emplace_back("p50_latency_us", row.p50);
  run.scalars.emplace_back("p99_latency_us", row.p99);
  run.scalars.emplace_back("commit_ratio", row.commit_ratio);
  run.scalars.emplace_back("copier_runs", static_cast<double>(row.copiers));
  run.scalars.emplace_back("refresh_time_us",
                           static_cast<double>(row.refresh));
  run.scalars.emplace_back("copies_left_marked",
                           static_cast<double>(row.leftover));
  cluster.add_perf_scalars(run);
  return row;
}

} // namespace

int main() {
  std::printf("E5: copier scheduling x unreadable-read policy, 4 sites,\n"
              "150 items, read-heavy workload through the refresh window.\n");
  RunReport report("copier_policies");
  TablePrinter table("Table 5: behaviour during the refresh window");
  table.set_header({"copier mode", "read policy", "p50 latency",
                    "p99 latency", "commit ratio", "copier runs",
                    "refresh done", "copies left marked"});
  for (CopierMode mode : {CopierMode::kEager, CopierMode::kOnDemand}) {
    for (UnreadablePolicy policy :
         {UnreadablePolicy::kBlock, UnreadablePolicy::kRedirect}) {
      const Row row = run_case(mode, policy, 500, report);
      table.add_row(
          {to_string(mode), to_string(policy), TablePrinter::ms(row.p50),
           TablePrinter::ms(row.p99), TablePrinter::pct(row.commit_ratio),
           TablePrinter::integer(row.copiers),
           row.refresh == 0 ? "(not finished)"
                            : TablePrinter::ms(static_cast<double>(row.refresh)),
           TablePrinter::integer(static_cast<int64_t>(row.leftover))});
    }
  }
  table.print();
  std::printf(
      "\nExpected shape: eager modes finish the refresh and keep tail\n"
      "latency low; on-demand leaves untouched copies marked (trading\n"
      "refresh completeness for zero background work); blocking inflates\n"
      "the read tail relative to redirecting.\n");
  report.write();
  return 0;
}
