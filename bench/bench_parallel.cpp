// Thread-scaling bench for the site-parallel backend: the same no-nemesis
// closed-loop workload runs on 1/2/4/8 threads at 8/32/128 sites, and the
// wall-clock committed-transaction rate is compared against the
// single-threaded DES baseline of the same cell. Writes BENCH_parallel.json
// (under $DDBS_REPORT_DIR when set) for the perf-CI comparison gate.
//
// The speedup column is only meaningful when the host actually has cores
// to scale onto: the report records host_cores, and EXPERIMENTS.md records
// a 4-core curve and explains how to read a single-core run (threads
// time-slice one core, so speedup pins near 1x and the barrier overhead
// shows up as a small regression).
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "common/report.h"
#include "core/runtime.h"
#include "workload/runner.h"
#include "workload/stats.h"

using namespace ddbs;

namespace {

struct Row {
  int sites = 0;
  int threads = 0;
  int64_t committed = 0;
  double wall_s = 0;
  double commits_per_wall_s = 0;
  double events_per_wall_s = 0;
  double speedup = 1.0; // vs the threads=1 run of the same cell
  RunReport::Run* run = nullptr;
};

Row run_case(int sites, int threads, uint64_t seed, RunReport& report) {
  Config cfg;
  cfg.n_sites = sites;
  cfg.n_items = 30 * sites; // constant per-site data
  cfg.replication_degree = 3;
  cfg.n_threads = threads;
  // Keep total wall time sane: larger clusters do more work per sim-us,
  // so shrink the simulated window as the cluster grows.
  const SimTime duration =
      sites <= 8 ? 1'500'000 : sites <= 32 ? 800'000 : 250'000;

  auto rt = make_runtime(cfg, seed);
  rt->bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 4;
  rp.think_time = 1'000;
  rp.duration = duration;
  rp.workload.ops_per_txn = 3;
  Runner runner(*rt, rp, seed);

  const auto t0 = std::chrono::steady_clock::now();
  const RunnerStats stats = runner.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Row row;
  row.sites = sites;
  row.threads = threads;
  row.committed = stats.committed;
  row.wall_s = wall;
  row.commits_per_wall_s =
      wall > 0 ? static_cast<double>(stats.committed) / wall : 0;
  row.events_per_wall_s =
      wall > 0 ? static_cast<double>(rt->events_executed()) / wall : 0;

  RunReport::Run& run = rt->report_run(
      report, "sites" + std::to_string(sites) + "_threads" +
                  std::to_string(threads));
  run.scalars.emplace_back("sites", static_cast<double>(sites));
  run.scalars.emplace_back("threads", static_cast<double>(threads));
  run.scalars.emplace_back("committed",
                           static_cast<double>(stats.committed));
  run.scalars.emplace_back("wall_s", wall);
  run.scalars.emplace_back("commits_per_wall_sec", row.commits_per_wall_s);
  run.scalars.emplace_back("events_per_wall_sec", row.events_per_wall_s);
  run.scalars.emplace_back(
      "host_cores",
      static_cast<double>(std::thread::hardware_concurrency()));
  rt->add_perf_scalars(run);
  row.run = &run;
  return row;
}

} // namespace

int main() {
  std::printf(
      "Parallel backend thread scaling: no-nemesis closed-loop workload,\n"
      "30 items/site x degree 3, 4 clients/site; wall-clock committed\n"
      "txn rate vs the single-threaded DES (host cores: %u).\n\n",
      std::thread::hardware_concurrency());

  RunReport report("parallel");
  TablePrinter t("thread scaling (commits/sec are wall-clock)");
  t.set_header({"sites", "threads", "committed", "wall s", "commits/s",
                "events/s", "speedup"});
  std::map<int, double> baseline; // sites -> threads=1 commits/s
  for (int sites : {8, 32, 128}) {
    for (int threads : {1, 2, 4, 8}) {
      Row row = run_case(sites, threads,
                         900 + static_cast<uint64_t>(sites), report);
      if (threads == 1) baseline[sites] = row.commits_per_wall_s;
      row.speedup = baseline[sites] > 0
                        ? row.commits_per_wall_s / baseline[sites]
                        : 1.0;
      row.run->scalars.emplace_back("speedup_vs_serial", row.speedup);
      t.add_row({TablePrinter::integer(row.sites),
                 TablePrinter::integer(row.threads),
                 TablePrinter::integer(row.committed),
                 TablePrinter::num(row.wall_s, 2),
                 TablePrinter::num(row.commits_per_wall_s, 0),
                 TablePrinter::num(row.events_per_wall_s, 0),
                 TablePrinter::num(row.speedup, 2)});
    }
  }
  t.print();
  std::printf(
      "\nExpected shape on a multi-core host: commits/s grows with\n"
      "threads until shards run out of per-window work (window = min\n"
      "cross-site latency), so only the large cells gain: 128 sites at\n"
      "one thread per core is the headline cell, and 8-32 sites lose to\n"
      "the epoch barrier at every thread count. On a single-core host\n"
      "every cell time-slices one CPU and speedup stays near 1x --\n"
      "compare across hosts, not within one.\n");
  report.write();
  return 0;
}
