// ddbs_sweep -- parallel (config x seed) sweep CLI.
//
// Builds a config matrix from the Config flags given comma lists (their
// cross product; see build_cells for the labels), runs every cell against
// --seeds consecutive seeds on a -j thread pool, and writes one aggregate
// JSON report (schema: EXPERIMENTS.md). Each run is an independent
// single-threaded simulation, so per-seed results are bit-identical to a
// serial sweep regardless of -j.
//
// Examples:
//   ddbs_sweep --strategy=mark-all,missing-list --seeds=8 -j 4
//              --crash=2@1000 --recover=2@2500 --out=SWEEP.json
//   ddbs_sweep --scheme=session-vector,spooler --copier=eager,on-demand
//              --seeds=4 --duration-ms=2000 --per-run-dir=runs/
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "workload/cli.h"
#include "workload/sweep.h"

using namespace ddbs;

namespace {

struct Options {
  Config base;
  std::vector<ConfigAxis> axes;
  SweepSpec spec;
  int jobs = 1;
  std::string out = "SWEEP_ddbs.json";
  std::string per_run_dir; // "" = don't write per-run reports
  std::string spans_dir;   // "" = don't write per-run span dumps
  std::string telemetry_dir; // "" = don't write per-run telemetry JSONL
  bool no_oracles = false;
};

Options parse(int argc, char** argv) {
  Options o;
  o.spec.seeds = 4;
  o.spec.params.duration = 2'000'000;
  o.spec.params.workload.ops_per_txn = 3;
  Cli cli(argv[0]);
  cli.add("sweep:",
          {{"seeds", &o.spec.seeds, "seeds per cell"},
           {"seed-base", &o.spec.seed_base, "first seed"},
           {"jobs", &o.jobs, "worker pool size (also -j N)"},
           {"fail-fast", &o.spec.fail_fast,
            "stop scheduling runs after the first failure"},
           {"no-oracles", &o.no_oracles,
            "skip the quiescence invariant oracles"},
           {"out", &o.out, "aggregate JSON report"},
           {"per-run-dir", &o.per_run_dir,
            "also write RUN_<cell>_seed<N>.json per run"},
           {"spans-dir", &o.spans_dir,
            "also write SPANS_<cell>_seed<N>.json per run"},
           {"telemetry-dir", &o.telemetry_dir,
            "also write TEL_<cell>_seed<N>.jsonl per run"},
           {"telemetry-interval-ms", &o.spec.telemetry.interval,
            "telemetry tick period"}});
  cli.add_scenario(&o.spec.params.clients_per_site, &o.spec.params.workload,
                   &o.spec.params.duration, &o.spec.params.schedule);
  cli.add_config(&o.base, &o.axes);
  cli.parse(argc, argv);
  if (o.spec.seeds < 1 || o.jobs < 1) cli.usage(2);
  return o;
}

// The cross product of the axes, first axis outermost. A cell's label
// joins its axis values as typed; with no axes it is the strategy.
void build_cells(const Options& o, SweepSpec* spec) {
  std::vector<size_t> at(o.axes.size(), 0);
  while (true) {
    SweepCell cell{"", o.base};
    for (size_t k = 0; k < o.axes.size(); ++k) {
      const std::string& v = o.axes[k].values[at[k]];
      set_config_field(*o.axes[k].field, v, &cell.cfg);
      cell.label += (k == 0 ? "" : "+") + v;
    }
    if (cell.label.empty()) cell.label = cli_name(cell.cfg.outdated_strategy);
    // Perf runs carry no checker feed unless the online verifier is
    // requested (it needs the history event stream as input).
    cell.cfg.record_history = cell.cfg.online_verify;
    spec->cells.push_back(std::move(cell));
    size_t k = o.axes.size();
    for (; k > 0 && ++at[k - 1] == o.axes[k - 1].values.size(); --k) {
      at[k - 1] = 0;
    }
    if (k == 0) return;
  }
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  SweepSpec spec = o.spec;
  spec.capture_spans = !o.spans_dir.empty();
  spec.capture_telemetry = !o.telemetry_dir.empty();
  spec.check_oracles = !o.no_oracles;
  build_cells(o, &spec);

  std::printf("ddbs_sweep: %zu cells x %d seeds = %zu runs on %d thread%s\n",
              spec.cells.size(), spec.seeds, spec.cells.size() * spec.seeds,
              o.jobs, o.jobs == 1 ? "" : "s");

  const SweepResult res = run_sweep(spec, o.jobs);

  for (size_t c = 0; c < res.cells.size(); ++c) {
    const SweepCellSummary& cell = res.cells[c];
    std::printf("  %-28s", cell.label.c_str());
    for (const SweepScalar& s : cell.scalars) {
      if (s.name == "throughput_txn_s") {
        std::printf(" thr mean %.1f p50 %.1f p99 %.1f txn/s", s.mean, s.p50,
                    s.p99);
      } else if (s.name == "commit_ratio") {
        std::printf(" commit %.1f%%", s.mean * 100.0);
      }
    }
    std::printf(" converged %d/%d\n", cell.converged, spec.seeds);
  }
  std::printf("wall %.2fs, %llu events, %.2fM events/s\n", res.wall_seconds,
              static_cast<unsigned long long>(res.events_executed),
              res.events_per_sec() / 1e6);

  int rc = 0;
  const struct {
    const std::string& dir;
    const char* prefix;
    const char* ext;
    std::string SweepRun::*body;
  } dumps[] = {{o.per_run_dir, "RUN_", ".json", &SweepRun::report_json},
               {o.spans_dir, "SPANS_", ".json", &SweepRun::spans_json},
               {o.telemetry_dir, "TEL_", ".jsonl", &SweepRun::telemetry_jsonl}};
  for (const auto& d : dumps) {
    if (d.dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(d.dir, ec);
    if (ec) {
      std::fprintf(stderr, "ddbs_sweep: cannot create %s: %s\n",
                   d.dir.c_str(), ec.message().c_str());
      rc = 1;
    }
    for (const SweepRun& r : res.runs) {
      const std::string path = d.dir + "/" + d.prefix +
                               spec.cells[r.cell].label + "_seed" +
                               std::to_string(r.seed) + d.ext;
      if (!write_file(path, r.*d.body)) rc = 1;
    }
  }
  if (!write_file(o.out, sweep_report_json(spec, res, o.jobs))) rc = 1;
  // A sweep fails (nonzero exit) when any completed run missed replica
  // convergence or tripped an invariant oracle. Runs skipped by
  // --fail-fast are reported but judged only by the runs that did execute.
  for (const SweepRun& r : res.runs) {
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "ddbs_sweep: %s seed %llu: ORACLE VIOLATION %s\n",
                   spec.cells[r.cell].label.c_str(),
                   static_cast<unsigned long long>(r.seed), v.c_str());
    }
  }
  for (const SweepCellSummary& cell : res.cells) {
    if (cell.converged != cell.completed) {
      std::fprintf(stderr, "ddbs_sweep: cell %s: %d/%d completed runs"
                   " converged\n",
                   cell.label.c_str(), cell.converged, cell.completed);
      rc = 1;
    }
    if (cell.oracle_failures > 0) {
      std::fprintf(stderr, "ddbs_sweep: cell %s: %d run%s violated an"
                   " invariant oracle\n",
                   cell.label.c_str(), cell.oracle_failures,
                   cell.oracle_failures == 1 ? "" : "s");
      rc = 1;
    }
    if (cell.completed != spec.seeds) {
      std::fprintf(stderr, "ddbs_sweep: cell %s: %d/%d runs skipped"
                   " (--fail-fast)\n",
                   cell.label.c_str(), spec.seeds - cell.completed, spec.seeds);
    }
  }
  return rc;
}
