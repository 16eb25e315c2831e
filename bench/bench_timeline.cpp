// F2 -- availability timeline around one crash + recovery: committed and
// aborted transactions per interval, plus the recovering site's count of
// still-unreadable copies. This is the figure-style view of the system
// behaviour the paper narrates in Sections 1 and 3.4.
#include <cstdio>

#include "common/report.h"
#include "core/cluster.h"
#include "workload/runner.h"
#include "workload/stats.h"

using namespace ddbs;

int main() {
  constexpr SimTime kBucket = 100'000;   // 100 ms
  constexpr SimTime kDuration = 5'000'000;
  constexpr SimTime kCrashAt = 1'000'000;
  constexpr SimTime kRecoverAt = 2'500'000;

  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 150;
  cfg.replication_degree = 3;
  cfg.outdated_strategy = OutdatedStrategy::kMissingList;
  cfg.timeseries_bucket = kBucket;
  Cluster cluster(cfg, 8080);
  cluster.bootstrap();

  RunnerParams rp;
  rp.clients_per_site = 2;
  rp.think_time = 4'000;
  rp.duration = kDuration;
  rp.workload.ops_per_txn = 3;
  rp.workload.read_fraction = 0.5;
  rp.schedule = {{kCrashAt, FailureEvent::What::kCrash, 2},
                 {kRecoverAt, FailureEvent::What::kRecover, 2}};
  Runner runner(cluster, rp, 8080);
  const RunnerStats stats = runner.run();

  // The per-bucket columns come straight from the cluster's time-series
  // recorder; the backlog column is the recovering site's missed-copy
  // backlog curve from its recovery episode (marked-unreadable copies not
  // yet refreshed by a copier), forward-filled per bucket.
  const TimeSeriesData series = cluster.timeseries().data();
  const size_t buckets = static_cast<size_t>(kDuration / kBucket);
  std::vector<double> backlog(buckets, 0.0);
  for (const RecoveryEpisode& e : cluster.episodes().episodes()) {
    if (e.site != 2) continue;
    for (const BacklogPoint& p : e.backlog) {
      const size_t from = static_cast<size_t>(p.at / kBucket);
      for (size_t b = from; b < buckets; ++b) {
        backlog[b] = static_cast<double>(p.remaining);
      }
    }
  }

  std::printf("F2: crash at t=%.1fs, recovery starts t=%.1fs; 10 clients,\n"
              "100ms buckets.\n",
              kCrashAt / 1e6, kRecoverAt / 1e6);
  SeriesPrinter fig("Figure 2: throughput and refresh progress over time",
                    {"t_seconds", "committed_per_100ms",
                     "aborted_per_100ms", "missed_copy_backlog_site2"});
  for (size_t b = 0; b < buckets; ++b) {
    const double committed = b < series.commits.size()
                                 ? static_cast<double>(series.commits[b])
                                 : 0.0;
    const double aborted = b < series.aborts.size()
                               ? static_cast<double>(series.aborts[b])
                               : 0.0;
    fig.add_point({static_cast<double>(b) * kBucket / 1e6, committed,
                   aborted, backlog[b]});
  }
  fig.print();

  const RecoveryEpisode ep = cluster.episodes().latest(2);
  std::printf("\nmilestones: crash=%.2fs, operational=%.2fs, "
              "fully current=%.2fs\n",
              kCrashAt / 1e6, ep.nominally_up_at / 1e6,
              ep.fully_current_at / 1e6);
  std::printf("totals: %lld committed, %lld aborted (%s)\n",
              static_cast<long long>(stats.committed),
              static_cast<long long>(stats.aborted),
              [&]() {
                std::string s;
                for (const auto& [k, v] : stats.abort_reasons) {
                  s += k + "=" + std::to_string(v) + " ";
                }
                return s;
              }()
                  .c_str());
  std::printf(
      "\nExpected shape: a short abort blip at the crash (in-flight\n"
      "transactions with stale views), full throughput while the site is\n"
      "down (ROWAA), a brief dip when the type-1 control transaction\n"
      "drains in-flight transactions, and the missed-copy backlog stepping\n"
      "down to zero as copiers drain -- all while user work continues.\n");

  RunReport report("timeline");
  RunReport::Run& run = cluster.report_run(report, "crash_recover_site2");
  run.scalars.emplace_back("committed", static_cast<double>(stats.committed));
  run.scalars.emplace_back("aborted", static_cast<double>(stats.aborted));
  run.scalars.emplace_back("crash_at_us", static_cast<double>(kCrashAt));
  run.scalars.emplace_back("recover_at_us", static_cast<double>(kRecoverAt));
  cluster.add_perf_scalars(run);
  report.write();
  return 0;
}
