// ddbs_sim -- scenario runner CLI.
//
// Drives a full cluster + workload + failure schedule from command-line
// flags and prints throughput, latency, abort breakdown, recovery
// milestones and (optionally) the serializability verdicts. Useful for
// exploring protocol variants without writing a bench.
//
// Examples:
//   ddbs_sim --sites=5 --items=200 --degree=3 --duration-ms=5000
//            --crash=2@1000 --recover=2@2500
//   ddbs_sim --strategy=missing-list --copier=on-demand --policy=redirect
//            --crash=1@500 --recover=1@2000 --verify
//   ddbs_sim --scheme=spooler --crash=3@800 --recover=3@3000
//   ddbs_sim --telemetry-out=tel.jsonl --watchdog --bundle-out=stall.json
//
// Exit codes: 0 clean, 1 divergence/verify failure (--verify or
// --online-verify), 2 usage, 4 watchdog
// stall (diagnostic bundle written when --bundle-out is given).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/runtime.h"
#include "verify/one_sr_checker.h"
#include "verify/online_verifier.h"
#include "workload/cli.h"
#include "workload/runner.h"
#include "workload/stats.h"

using namespace ddbs;

namespace {

struct Options {
  Config cfg;
  uint64_t seed = 1;
  RunnerParams rp;
  bool verify = false;
  bool dump_metrics = false;
  std::string report_out; // JSON run report path ("" = off)
  std::string spans_out;  // Chrome trace_event event-ring dump ("" = off)
  std::string telemetry_out; // live telemetry JSONL path ("-" = stdout)
  TelemetryOptions telemetry;
  // Partition-based fault injection: isolate one site from every other at
  // a given time, optionally healing later. kInvalidSite = off.
  SiteId isolate_site = kInvalidSite;
  SimTime isolate_at = 0;
  int64_t heal_ms = -1;
};

Options parse(int argc, char** argv) {
  Options o;
  o.rp.workload.ops_per_txn = 3;
  Cli cli(argv[0]);
  cli.add("run:",
          {{"seed", &o.seed, "simulation seed"},
           {"verify", &o.verify,
            "run the Section-4 serializability checkers (not with "
            "--online-verify)"},
           {"metrics", &o.dump_metrics, "dump the raw metric counters"},
           {"isolate",
            [&o](const std::string& v) {
              return parse_site_at(v, &o.isolate_site, &o.isolate_at);
            },
            "partition site S away from everyone at MS", "S@MS"},
           {"heal", &o.heal_ms,
            "dissolve the partition at N ms (-1 = never)"}});
  cli.add("output:",
          {{"report-out", &o.report_out, "JSON run report (EXPERIMENTS.md)"},
           {"spans-out", &o.spans_out,
            "event ring (causal spans) as Chrome trace_event JSON"},
           {"telemetry-out", &o.telemetry_out,
            "stream live telemetry JSONL (- = stdout)"},
           {"telemetry-interval-ms", &o.telemetry.interval, "tick period"},
           {"telemetry-host", &o.telemetry.include_host,
            "add host-side fields (breaks cross-backend identity)"},
           {"watchdog", &o.telemetry.watchdog,
            "abort with exit 4 when progress stalls"},
           {"watchdog-no-commit-ms", &o.telemetry.no_commit_budget,
            "no-commit budget"},
           {"watchdog-recovery-ms", &o.telemetry.recovery_phase_budget,
            "recovery-phase budget"},
           {"watchdog-retries", &o.telemetry.control_retry_budget,
            "type-1 retry budget"},
           {"bundle-out", &o.telemetry.bundle_path,
            "stall diagnostic bundle path"}});
  cli.add_scenario(&o.rp.clients_per_site, &o.rp.workload, &o.rp.duration,
                   &o.rp.schedule);
  cli.add_config(&o.cfg);
  cli.parse(argc, argv);
  // The online verifier streams the history away, so the post-hoc
  // checkers would have nothing to judge.
  if (o.verify && o.cfg.online_verify) {
    std::fprintf(stderr, "%s: --verify and --online-verify exclude each "
                 "other\n", argv[0]);
    cli.usage(2);
  }
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Config cfg = o.cfg;
  cfg.record_history = o.verify || cfg.online_verify;

  std::printf("ddbs_sim: %d sites, %lld items x%d, %s / %s / %s / %s, "
              "seed %llu, %d thread%s\n",
              cfg.n_sites, static_cast<long long>(cfg.n_items),
              cfg.effective_replication(), to_string(cfg.recovery_scheme),
              to_string(cfg.outdated_strategy), to_string(cfg.copier_mode),
              to_string(cfg.unreadable_policy),
              static_cast<unsigned long long>(o.seed), cfg.n_threads,
              cfg.n_threads == 1 ? "" : "s");

  std::unique_ptr<ClusterRuntime> rt = make_runtime(cfg, o.seed);
  ClusterRuntime& cluster = *rt;
  cluster.bootstrap();

  const TelemetryOptions& topts = o.telemetry;
  std::ofstream telemetry_file;
  std::unique_ptr<TelemetryStream> stream;
  if (!o.telemetry_out.empty() || topts.watchdog) {
    stream = std::make_unique<TelemetryStream>(cluster, topts);
    if (!o.telemetry_out.empty() && o.telemetry_out != "-") {
      telemetry_file.open(o.telemetry_out);
      if (!telemetry_file) {
        std::fprintf(stderr, "telemetry: cannot write %s\n",
                     o.telemetry_out.c_str());
        return 2;
      }
      stream->set_output(&telemetry_file);
    }
    stream->start();
  }

  if (o.isolate_site != kInvalidSite) {
    // One group holding everyone else; the isolated site falls out into
    // its own singleton group.
    const SiteId victim = o.isolate_site;
    cluster.schedule_global(o.isolate_at, [&cluster, victim]() {
      std::vector<SiteId> rest;
      for (SiteId s = 0; s < cluster.n_sites(); ++s) {
        if (s != victim) rest.push_back(s);
      }
      cluster.network().set_partition({rest});
    });
    if (o.heal_ms >= 0) {
      cluster.schedule_global(o.heal_ms * 1000, [&cluster]() {
        cluster.network().clear_partition();
      });
    }
  }

  RunnerParams rp = o.rp;
  if (stream) {
    TelemetryStream* sp = stream.get();
    rp.stop_check = [sp]() { return sp->stalled(); };
    rp.stop_poll = topts.interval;
  }
  Runner runner(cluster, rp, o.seed);
  const RunnerStats stats = runner.run();
  if (!stats.stopped_early) cluster.settle();

  if (stream) {
    stream->stop();
    if (o.telemetry_out == "-") std::fwrite(stream->jsonl().data(), 1,
                                            stream->jsonl().size(), stdout);
    if (stream->stalled()) {
      for (const StallEvent& e : stream->stalls()) {
        std::fprintf(stderr,
                     "ddbs_sim: watchdog STALL at t=%lld: %s (site %d, "
                     "value %lld)\n",
                     static_cast<long long>(e.at), e.reason.c_str(),
                     static_cast<int>(e.site),
                     static_cast<long long>(e.value));
      }
      if (topts.bundle_path.empty()) {
        std::fprintf(stderr,
                     "ddbs_sim: pass --bundle-out=PATH to keep the "
                     "diagnostic bundle\n");
      }
      return 4;
    }
  }

  TablePrinter t("results");
  t.set_header({"metric", "value"});
  t.add_row({"committed", TablePrinter::integer(stats.committed)});
  t.add_row({"aborted", TablePrinter::integer(stats.aborted)});
  t.add_row({"commit ratio", TablePrinter::pct(stats.commit_ratio())});
  t.add_row({"throughput",
             TablePrinter::num(stats.throughput_per_sec(rp.duration), 1) +
                 " txn/s"});
  t.add_row(
      {"p50 latency", TablePrinter::ms(stats.commit_latency_us.percentile(50))});
  t.add_row(
      {"p99 latency", TablePrinter::ms(stats.commit_latency_us.percentile(99))});
  for (const auto& [reason, n] : stats.abort_reasons) {
    t.add_row({"abort: " + reason, TablePrinter::integer(n)});
  }
  t.print();

  // One line per recovery episode, in the order the report lists them;
  // "-" marks a milestone the run did not reach.
  auto secs = [](SimTime t) {
    return t == kNoTime ? std::string("-")
                        : TablePrinter::num(t / 1e6, 2) + "s";
  };
  auto since = [](SimTime from, SimTime to) {
    return from == kNoTime || to == kNoTime
               ? std::string("-")
               : "+" + TablePrinter::num((to - from) / 1e3, 1) + "ms";
  };
  for (const RecoveryEpisode& ep : cluster.episodes().episodes()) {
    std::printf("site %d recovery: crashed %s, rebooted %s, operational %s, "
                "current %s, %lld marked, %lld copier commits, %lld type-1, "
                "%lld type-2%s\n",
                static_cast<int>(ep.site), secs(ep.crash_at).c_str(),
                secs(ep.reboot_at).c_str(),
                since(ep.reboot_at, ep.nominally_up_at).c_str(),
                since(ep.reboot_at, ep.fully_current_at).c_str(),
                static_cast<long long>(ep.marked_unreadable),
                static_cast<long long>(ep.copier_commits),
                static_cast<long long>(ep.type1_attempts),
                static_cast<long long>(ep.type2_rounds),
                ep.complete ? "" : " (incomplete)");
  }

  int rc = 0;
  if (OnlineVerifier* verifier = cluster.online_verifier()) {
    // Settle the way ddbs_sweep does: give the failure detector time to
    // declare an end-of-window crash (NS reflects it only once a type-2
    // commits), then judge the quiesced cluster.
    cluster.run_until(cluster.now() + 4 * cfg.detector_interval);
    cluster.settle();
    std::vector<Violation> found;
    if (auto v = verifier->checkpoint(cluster)) found.push_back(*v);
    for (Violation& v : verifier->quiescence(cluster)) found.push_back(v);
    std::printf("online verifier: %s (%llu commits seen)\n",
                found.empty() ? "clean" : "VIOLATED",
                static_cast<unsigned long long>(verifier->commits_seen()));
    for (const Violation& v : found) {
      std::printf("  violation: %s\n", to_string(v).c_str());
    }
    if (!found.empty()) rc = 1;
  }

  std::string why;
  const bool conv = cluster.replicas_converged(&why);
  std::printf("replicas converged: %s\n", conv ? "yes" : why.c_str());
  if (!conv) rc = 1;
  if (o.verify) {
    const History& h = cluster.history().view();
    const auto cg = check_conflict_graph(h);
    const auto one = check_one_sr_graph(h);
    std::printf("CG over DB+NS: %s; revised 1-STG over DB: %s "
                "(%zu committed txns)\n",
                cg.ok ? "acyclic" : cg.detail.c_str(),
                one.ok ? "acyclic (1-SR)" : one.detail.c_str(),
                h.txns.size());
    if (!cg.ok || !one.ok) rc = 1;
  }
  if (o.dump_metrics) {
    std::printf("metrics: %s\n", cluster.metrics().summary().c_str());
  }
  if (!o.report_out.empty()) {
    RunReport report("ddbs_sim");
    RunReport::Run& run = cluster.report_run(report, "cli");
    run.scalars.emplace_back("committed", stats.committed);
    run.scalars.emplace_back("aborted", stats.aborted);
    run.scalars.emplace_back("commit_ratio", stats.commit_ratio());
    run.scalars.emplace_back("throughput_txn_s",
                             stats.throughput_per_sec(rp.duration));
    run.scalars.emplace_back("p50_latency_us",
                             stats.commit_latency_us.percentile(50));
    run.scalars.emplace_back("p99_latency_us",
                             stats.commit_latency_us.percentile(99));
    if (!report.write(o.report_out)) rc = 1;
  }
  if (!o.spans_out.empty()) {
    if (!write_file(o.spans_out, cluster.spans_chrome_json())) {
      rc = 1;
    } else {
      std::printf("spans: wrote %s\n", o.spans_out.c_str());
    }
  }
  return rc;
}
