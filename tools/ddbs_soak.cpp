// ddbs_soak -- long-horizon soak CLI with online incremental verification.
//
// Drives one long-lived cluster per cell through repeated
// load/crash/recover rounds with the OnlineVerifier attached: the revised
// 1-STG is maintained incrementally, every round boundary is judged by
// the checkpoint + quiescence oracles, and the consumed history prefix is
// pruned so memory stays bounded no matter how many transactions commit.
// Cells (one per outdated strategy, plus the spooler baseline) fan out on
// a thread pool; each cell is an independent deterministic simulation.
//
// Exit codes: 0 clean, 1 invariant violation, 2 usage, 3 RSS ceiling
// exceeded, 4 watchdog stall.
//
// The RSS ceiling is sampled on the telemetry tick inside each round, so
// a memory blow-up aborts the round that caused it instead of only being
// noticed at the end-of-run summary.
//
// Examples:
//   ddbs_soak --rounds=200 --round-ms=2000 --target-committed=2000000 -j 5
//   ddbs_soak --cells=mark-all,spooler --rounds=20 --rss-limit-mb=512
//   ddbs_soak --watchdog --telemetry-out=soak_tel
#include <cstdio>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "workload/cli.h"
#include "workload/soak.h"
#include "workload/sweep.h"

using namespace ddbs;

namespace {

struct CliOptions {
  Config base;
  std::vector<std::string> cells{"mark-all", "vcmp", "fail-lock",
                                 "missing-list", "spooler"};
  uint64_t seed = 1;
  int jobs = 1;
  SoakOptions soak; // per-cell knobs (cfg/seed filled per cell)
  int64_t rss_limit_mb = 0; // 0 = no ceiling
  std::string out;          // "" = no report file
  std::string telemetry_prefix; // per-cell JSONL: PREFIX.<cell>.jsonl
  std::string bundle_prefix;    // per-cell stall bundle: PREFIX.<cell>.json
};

// A cell is an outdated strategy under session vectors, or the spooler.
bool apply_cell(Config& cfg, const std::string& cell) {
  if (cell == "spooler") {
    cfg.recovery_scheme = RecoveryScheme::kSpooler;
    return true;
  }
  cfg.recovery_scheme = RecoveryScheme::kSessionVector;
  return parse_enum(cell, &cfg.outdated_strategy);
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  TelemetryOptions& tel = o.soak.telemetry;
  Cli cli(argv[0]);
  cli.add("soak:",
          {{"cells",
            [&o](const std::string& v) {
              o.cells = split_commas(v);
              Config scratch;
              for (const std::string& c : o.cells) {
                if (!apply_cell(scratch, c)) return false;
              }
              return true;
            },
            "cells to run (default: all five)",
            "mark-all|vcmp|fail-lock|missing-list|spooler,..."},
           {"rounds", &o.soak.rounds, "crash/recover/load rounds per cell"},
           {"round-ms", &o.soak.round_duration, "load window per round"},
           {"crash-ms", &o.soak.crash_at,
            "crash offset within a round (-1 disables)"},
           {"recover-ms", &o.soak.recover_at,
            "recover offset within a round"},
           {"target-committed", &o.soak.target_committed,
            "stop a cell once N txns committed (0 = off)"},
           {"seed", &o.seed, "base seed (cell index is mixed in)"},
           {"jobs", &o.jobs, "cells run in parallel (also -j N)"},
           {"rss-limit-mb", &o.rss_limit_mb,
            "exit 3 if VmHWM exceeds this (0 = off)"},
           {"out", &o.out, "aggregate JSON report"},
           {"telemetry", &o.soak.enable_telemetry,
            "buffer per-cell telemetry JSONL"},
           {"telemetry-out", &o.telemetry_prefix,
            "write it to PATH.<cell>.jsonl (implies --telemetry)"},
           {"telemetry-interval-ms", &tel.interval, "tick period"},
           {"watchdog", &tel.watchdog, "abort a stalling cell (exit 4)"},
           {"watchdog-no-commit-ms", &tel.no_commit_budget,
            "no-commit budget"},
           {"watchdog-recovery-ms", &tel.recovery_phase_budget,
            "recovery-phase budget"},
           {"watchdog-retries", &tel.control_retry_budget,
            "type-1 retry budget"},
           {"bundle-out", &o.bundle_prefix,
            "stall bundles to PATH.<cell>.json"}});
  cli.add_scenario(&o.soak.clients_per_site, &o.soak.workload);
  cli.add_config(&o.base);
  cli.parse(argc, argv);
  if (o.soak.rounds < 1 || o.jobs < 1 || o.base.n_threads < 1) cli.usage(2);
  if (!o.telemetry_prefix.empty()) o.soak.enable_telemetry = true;
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  const int64_t rss_limit_kb = o.rss_limit_mb * 1024;

  std::vector<SoakOptions> cells(o.cells.size());
  for (size_t c = 0; c < o.cells.size(); ++c) {
    cells[c] = o.soak;
    cells[c].cfg = o.base;
    cells[c].seed = o.seed + c * 1000003;
    cells[c].rss_limit_kb = rss_limit_kb;
    apply_cell(cells[c].cfg, o.cells[c]);
  }

  std::printf(
      "ddbs_soak: %zu cell%s x %d rounds on %d job%s"
      " (%d cluster thread%s)\n",
      cells.size(), cells.size() == 1 ? "" : "s", o.soak.rounds, o.jobs,
      o.jobs == 1 ? "" : "s", o.base.n_threads,
      o.base.n_threads == 1 ? "" : "s");

  std::vector<SoakResult> results(cells.size());
  run_parallel(cells.size(), o.jobs,
               [&](size_t c) { results[c] = run_soak(cells[c]); });

  int rc = 0;
  int64_t total_committed = 0;
  uint64_t total_verified = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    const SoakResult& r = results[c];
    total_committed += r.committed;
    total_verified += r.commits_verified;
    std::printf(
        "  %-14s rounds %3d committed %10lld verified %10llu"
        " prunes %4llu retained<= %zu nodes<= %zu %s\n",
        o.cells[c].c_str(), r.rounds_run,
        static_cast<long long>(r.committed),
        static_cast<unsigned long long>(r.commits_verified),
        static_cast<unsigned long long>(r.prunes), r.max_retained_records,
        r.max_graph_nodes, r.ok() ? "OK" : "VIOLATION");
    for (const Violation& v : r.violations) {
      std::fprintf(stderr, "ddbs_soak: %s: VIOLATION %s\n",
                   o.cells[c].c_str(), to_string(v).c_str());
      rc = 1;
    }
    for (const StallEvent& e : r.stalls) {
      std::fprintf(stderr,
                   "ddbs_soak: %s: watchdog STALL at t=%lld: %s (site %d, "
                   "value %lld)\n",
                   o.cells[c].c_str(), static_cast<long long>(e.at),
                   e.reason.c_str(), static_cast<int>(e.site),
                   static_cast<long long>(e.value));
    }
    if (r.stalled()) {
      if (!o.bundle_prefix.empty() && !r.bundle_json.empty()) {
        write_file(o.bundle_prefix + "." + o.cells[c] + ".json",
                   r.bundle_json);
      }
      rc = rc == 0 ? 4 : rc;
    }
    if (r.rss_exceeded) {
      std::fprintf(stderr,
                   "ddbs_soak: %s: RSS ceiling tripped mid-round "
                   "(limit %lld kB)\n",
                   o.cells[c].c_str(),
                   static_cast<long long>(rss_limit_kb));
      rc = rc == 0 ? 3 : rc;
    }
    if (!o.telemetry_prefix.empty() && !r.telemetry_jsonl.empty()) {
      write_file(o.telemetry_prefix + "." + o.cells[c] + ".jsonl",
                 r.telemetry_jsonl);
    }
  }
  const int64_t rss = peak_rss_kb();
  std::printf("total committed %lld, verified %llu, peak RSS %lld kB\n",
              static_cast<long long>(total_committed),
              static_cast<unsigned long long>(total_verified),
              static_cast<long long>(rss));
  if (rss_limit_kb > 0 && rss > rss_limit_kb) {
    std::fprintf(stderr, "ddbs_soak: peak RSS %lld kB exceeds limit %lld kB\n",
                 static_cast<long long>(rss),
                 static_cast<long long>(rss_limit_kb));
    rc = rc == 0 ? 3 : rc;
  }

  if (!o.out.empty()) {
    std::string body = "{\n  \"tool\": \"ddbs_soak\",\n  \"cells\": [\n";
    for (size_t c = 0; c < cells.size(); ++c) {
      body += soak_report_json(o.cells[c], cells[c], results[c]);
      body += c + 1 < cells.size() ? ",\n" : "\n";
    }
    body += "  ],\n  \"peak_rss_kb\": " + std::to_string(rss) + "\n}\n";
    if (!write_file(o.out, body)) rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
