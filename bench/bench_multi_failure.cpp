// E6 / Table 6 -- resilience to failures during recovery (paper Sections
// 1 and 3.4): "It is resilient to multiple site failures, even if a site
// crashes while another site is recovering. A failed site can recover as
// long as there is at least one operational site in the system"; step 4
// retries the type-1 control transaction after a type-2 excludes the
// newly-crashed site.
//
// Scenario: site 1 starts recovering; k additional sites crash while its
// type-1 is in flight. Measured from site 1's recovery episode: did
// recovery complete, its type-1 attempts, the type-2 rounds that set out
// to exclude site 1 itself, and the time to operational.
#include <cstdio>
#include <string>

#include "common/report.h"
#include "core/cluster.h"
#include "workload/stats.h"

using namespace ddbs;

namespace {

struct Row {
  bool recovered = false;
  int64_t type1_attempts = 0;
  int64_t type2_rounds = 0;
  SimTime to_operational = 0;
};

Row run_case(int extra_crashes, uint64_t seed, RunReport& report) {
  Config cfg;
  cfg.n_sites = 6;
  cfg.n_items = 60;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, seed);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 500'000);
  for (ItemId x = 0; x < 30; ++x) {
    auto r = cluster.run_txn(0, {{OpKind::kWrite, x, 5}});
    if (!r.committed) --x;
  }
  const SimTime t0 = cluster.now();
  cluster.recover_site(1);
  // Additional crashes staggered right into the recovery procedure.
  for (int k = 0; k < extra_crashes; ++k) {
    cluster.crash_site_at(t0 + 1'500 + k * 2'000,
                          static_cast<SiteId>(2 + k));
  }
  cluster.settle(120'000'000);
  const RecoveryEpisode ep = cluster.episodes().latest(1);
  Row row;
  row.recovered = cluster.site(1).state().mode == SiteMode::kUp;
  row.type1_attempts = ep.type1_attempts;
  row.type2_rounds = ep.type2_rounds;
  row.to_operational =
      ep.nominally_up_at == kNoTime ? 0 : ep.nominally_up_at - t0;

  RunReport::Run& run = cluster.report_run(
      report, "extra_crashes" + std::to_string(extra_crashes));
  run.scalars.emplace_back("extra_crashes",
                           static_cast<double>(extra_crashes));
  run.scalars.emplace_back("recovered", row.recovered ? 1.0 : 0.0);
  run.scalars.emplace_back("type1_attempts",
                           static_cast<double>(row.type1_attempts));
  run.scalars.emplace_back("type2_rounds",
                           static_cast<double>(row.type2_rounds));
  run.scalars.emplace_back("to_operational_us",
                           static_cast<double>(row.to_operational));
  cluster.add_perf_scalars(run);
  return row;
}

} // namespace

int main() {
  std::printf("E6: crashes during recovery, 6 sites, degree 3; site 1\n"
              "recovers while k extra sites die mid-procedure.\n");
  RunReport report("multi_failure");
  TablePrinter table("Table 6: recovery under interfering failures");
  table.set_header({"extra crashes", "recovered", "type-1 attempts",
                    "type-2 rounds on site 1", "time to operational"});
  for (int k : {0, 1, 2, 3}) {
    const Row row = run_case(k, 600 + static_cast<uint64_t>(k), report);
    table.add_row(
        {TablePrinter::integer(k), row.recovered ? "yes" : "NO",
         TablePrinter::integer(row.type1_attempts),
         TablePrinter::integer(row.type2_rounds),
         row.to_operational == 0
             ? "-"
             : TablePrinter::ms(static_cast<double>(row.to_operational))});
  }
  table.print();
  std::printf(
      "\nExpected shape: recovery completes in every row (at least one\n"
      "site stays up); each interfering crash costs extra type-1 attempts\n"
      "(each retry waits on a type-2 that excludes the newly-crashed site)\n"
      "and delays -- but never prevents -- the recovering site's return to\n"
      "operation.\n");
  report.write();
  return 0;
}
