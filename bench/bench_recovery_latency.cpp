// E2 / Table 2 + Figure 1 -- time to resume operation: the paper's
// session-vector recovery vs the spooled-redo baseline (Hammer & Shipman
// style, the paper's Section-1 "first approach").
//
// Paper claim: "The recovery procedure allows the recovering site to resume
// its normal operations as soon as possible" -- the site is operational the
// moment its type-1 control transaction commits, and the database refresh
// proceeds concurrently; the redo baseline must replay its whole spool
// first, so its time-to-operational grows with the outage's update volume.
#include <cstdio>
#include <string>

#include "common/report.h"
#include "core/cluster.h"
#include "workload/stats.h"

using namespace ddbs;

namespace {

struct Point {
  SimTime to_operational = 0;
  SimTime to_current = 0; // == to_operational for the spooler
  size_t work_items = 0;  // replayed records / refreshed copies
  size_t type1_records = 0; // spool records the type-1 collected
  SimTime reboot_replay = 0; // checkpoint read + redo replay (durable only)
  int64_t replay_records = 0;
};

Point run_case(RecoveryScheme scheme, StorageEngineKind engine,
               int64_t updates, uint64_t seed, RunReport& report) {
  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 400;
  cfg.replication_degree = 3;
  cfg.recovery_scheme = scheme;
  cfg.outdated_strategy = OutdatedStrategy::kMissingList;
  cfg.storage_engine = engine;
  Cluster cluster(cfg, seed);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 500'000);
  for (int64_t i = 0; i < updates; ++i) {
    auto r = cluster.run_txn(static_cast<SiteId>(i % 2 == 0 ? 0 : 1),
                             {{OpKind::kWrite, i % cfg.n_items, i}});
    if (!r.committed) --i; // retry: this bench needs exactly `updates`
  }
  const SimTime t0 = cluster.now();
  cluster.recover_site(2);
  cluster.settle();
  const RecoveryEpisode ep = cluster.episodes().latest(2);
  Point p;
  p.to_operational = ep.nominally_up_at - t0;
  p.to_current = (scheme == RecoveryScheme::kSpooler ? ep.nominally_up_at
                                                     : ep.fully_current_at) -
                 t0;
  p.work_items = static_cast<size_t>(
      scheme == RecoveryScheme::kSpooler
          ? cluster.metrics().get("rm.spool_prefetched")
          : ep.marked_unreadable);
  p.type1_records = static_cast<size_t>(
      cluster.metrics().get("control_up.spool_collected"));
  if (ep.reboot_at != kNoTime && ep.replay_done_at != kNoTime) {
    p.reboot_replay = ep.replay_done_at - ep.reboot_at;
    p.replay_records = ep.replay_records;
  }

  RunReport::Run& run = cluster.report_run(
      report, std::string(to_string(scheme)) + "_" + to_string(engine) +
                  "_u" + std::to_string(updates));
  run.scalars.emplace_back("updates_missed", static_cast<double>(updates));
  run.scalars.emplace_back("to_operational_us",
                           static_cast<double>(p.to_operational));
  run.scalars.emplace_back("to_current_us", static_cast<double>(p.to_current));
  run.scalars.emplace_back("work_items", static_cast<double>(p.work_items));
  run.scalars.emplace_back("type1_records",
                           static_cast<double>(p.type1_records));
  run.scalars.emplace_back("reboot_replay_us",
                           static_cast<double>(p.reboot_replay));
  run.scalars.emplace_back("replay_records",
                           static_cast<double>(p.replay_records));
  cluster.add_perf_scalars(run);
  return p;
}

} // namespace

int main() {
  std::printf("E2: recovery latency vs outage update volume, 5 sites,\n"
              "400 items, degree 3, missing-list identification.\n");
  RunReport report("recovery_latency");
  for (StorageEngineKind engine :
       {StorageEngineKind::kInMemory, StorageEngineKind::kDurable}) {
    TablePrinter table(
        std::string("Table 2: time to resume operation after recovery (") +
        to_string(engine) + " storage)");
    table.set_header({"updates missed", "scheme", "work items",
                      "type-1 records", "t operational", "t fully current",
                      "reboot replay"});
    SeriesPrinter fig(
        std::string("Figure 1: time-to-operational (us) vs missed updates, ") +
            to_string(engine) + " storage",
        {"updates", "session_vector_us", "spooler_us"});
    for (int64_t updates : {25, 100, 400, 1000, 2000}) {
      const Point sv = run_case(RecoveryScheme::kSessionVector, engine,
                                updates, 42, report);
      const Point sp =
          run_case(RecoveryScheme::kSpooler, engine, updates, 42, report);
      table.add_row(
          {TablePrinter::integer(updates), "session-vector",
           TablePrinter::integer(static_cast<int64_t>(sv.work_items)),
           TablePrinter::integer(static_cast<int64_t>(sv.type1_records)),
           TablePrinter::ms(static_cast<double>(sv.to_operational)),
           TablePrinter::ms(static_cast<double>(sv.to_current)),
           TablePrinter::ms(static_cast<double>(sv.reboot_replay))});
      table.add_row(
          {TablePrinter::integer(updates), "spooler-redo",
           TablePrinter::integer(static_cast<int64_t>(sp.work_items)),
           TablePrinter::integer(static_cast<int64_t>(sp.type1_records)),
           TablePrinter::ms(static_cast<double>(sp.to_operational)),
           TablePrinter::ms(static_cast<double>(sp.to_current)),
           TablePrinter::ms(static_cast<double>(sp.reboot_replay))});
      fig.add_point({static_cast<double>(updates),
                     static_cast<double>(sv.to_operational),
                     static_cast<double>(sp.to_operational)});
    }
    table.print();
    fig.print();
  }
  report.write();
  std::printf(
      "\nExpected shape: the session-vector site is operational after a\n"
      "near-constant control-transaction latency regardless of outage\n"
      "volume (the refresh runs concurrently afterwards); the spooler's\n"
      "time-to-operational grows with the number of missed updates.\n");
  return 0;
}
