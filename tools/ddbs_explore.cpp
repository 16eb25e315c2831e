// ddbs_explore -- adversarial schedule explorer CLI.
//
// Generates seed-deterministic nemesis schedules (crashes, reboots,
// partitions, drop bursts, detector-timeout skew), fans (schedule x seed)
// runs across the run_parallel worker pool, judges each run with the
// online verifier at checkpoints and quiescence, delta-debugs every failing schedule to a
// minimal action list, verifies each minimized repro replays
// byte-identically, and writes the repro artifacts into a corpus
// directory (schema: EXPERIMENTS.md).
//
// Exit status:
//   0  clean protocol explored with zero violations, or -- under
//      --planted-bug -- the planted bug was found, shrunk and its repro
//      verified (self-check passed), or --replay reproduced its artifact
//      byte-for-byte, or --replay --without-bug ran the artifact with its
//      planted bug off and found nothing.
//   1  violations found in an unmutated protocol; or a planted bug the
//      explorer failed to find (self-check failed); or a replay mismatch;
//      or a --without-bug replay that still violates (the artifact does not
//      exercise its planted bug).
//
// Examples:
//   ddbs_explore --schedules=50 --seeds=2 -j 8 --corpus=corpus/
//   ddbs_explore --planted-bug=skip-mark --schedules=12 -j 4
//   ddbs_explore --replay=corpus/REPRO_sched7_seed1.json
//   ddbs_explore --replay=corpus/REPRO_sched7_seed1.json --without-bug
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "explore/repro.h"
#include "explore/schedule.h"
#include "explore/shrink.h"
#include "workload/cli.h"
#include "workload/sweep.h"

using namespace ddbs;

namespace {

struct Options {
  ExploreOptions run;
  ScheduleParams sched;
  int schedules = 20;
  int seeds = 1;
  uint64_t seed_base = 1;
  uint64_t schedule_seed_base = 1;
  int jobs = 1;
  int shrink_budget = 200;
  int max_shrinks = 8; // violations beyond this are reported, not shrunk
  bool fail_fast = false;
  std::string corpus = "explore-corpus";
  std::string replay_path;   // non-empty => replay mode
  bool without_bug = false;  // replay with the planted bug off
  std::string telemetry_dir; // "" = don't write per-run telemetry JSONL
};

Options parse(int argc, char** argv) {
  Options o;
  bool no_drop_bursts = false, no_skew = false;
  Cli cli(argv[0]);
  cli.add("search space:",
          {{"schedules", &o.schedules, "nemesis schedules to generate"},
           {"seeds", &o.seeds, "workload seeds per schedule"},
           {"seed-base", &o.seed_base, "first workload seed"},
           {"schedule-seed-base", &o.schedule_seed_base,
            "first schedule seed"},
           {"max-actions", &o.sched.max_actions,
            "actions per generated schedule"},
           {"partitions", &o.sched.partitions,
            "include partition/heal actions"},
           {"no-drop-bursts", &no_drop_bursts,
            "exclude message-drop bursts"},
           {"no-skew", &no_skew, "exclude latency-skew windows"},
           {"horizon-ms", &o.run.horizon, "load+fault window"}});
  cli.add("driver:",
          {{"jobs", &o.jobs, "worker pool size (also -j N)"},
           {"fail-fast", &o.fail_fast,
            "stop scheduling runs after first violation"},
           {"shrink-budget", &o.shrink_budget, "max re-runs per shrink"},
           {"max-shrinks", &o.max_shrinks, "violations to shrink"},
           {"corpus", &o.corpus, "minimized repro artifacts (\"\" = off)"},
           {"replay", &o.replay_path, "replay one repro artifact and exit"},
           {"without-bug", &o.without_bug,
            "with --replay: turn the planted bug off, require no violation"},
           {"telemetry-dir", &o.telemetry_dir,
            "write TEL_sched<S>_seed<N>.jsonl per run"},
           {"telemetry-interval-ms", &o.run.telemetry.interval,
            "telemetry tick period"}});
  cli.add_scenario(&o.run.clients_per_site, &o.run.workload);
  cli.add_config(&o.run.cfg);
  cli.parse(argc, argv);
  if (o.schedules < 1 || o.seeds < 1 || o.jobs < 1 ||
      o.sched.max_actions < 1 || o.shrink_budget < 1) {
    cli.usage(2);
  }
  o.sched.drop_bursts = !no_drop_bursts;
  o.sched.latency_skew = !no_skew;
  o.sched.n_sites = o.run.cfg.n_sites;
  o.sched.horizon = o.run.horizon;
  o.run.capture_telemetry = !o.telemetry_dir.empty();
  return o;
}

int replay_artifact(const std::string& path, bool without_bug) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ddbs_explore: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ReproArtifact a;
  std::string err;
  if (!parse_repro(buf.str(), &a, &err)) {
    std::fprintf(stderr, "ddbs_explore: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  std::printf("replaying %s: seed %llu, %zu action%s\n  %s\n", path.c_str(),
              static_cast<unsigned long long>(a.seed), a.schedule.size(),
              a.schedule.size() == 1 ? "" : "s",
              to_string(a.schedule).c_str());
  if (without_bug) {
    // The artifact stands for its planted bug only if the unmutated
    // protocol survives the same schedule and seed.
    a.opts.cfg.planted_bug = PlantedBug::kNone;
    const ReplayResult r = replay(a);
    if (r.violated) {
      std::fprintf(stderr, "ddbs_explore: violates without its planted bug:"
                   " %s\n", to_string(r.run.violations.front()).c_str());
      return 1;
    }
    std::printf("clean without its planted bug\n");
    return 0;
  }
  const ReplayResult r = replay(a);
  if (!r.violated) {
    std::fprintf(stderr, "ddbs_explore: replay did NOT violate (expected"
                 " %s)\n", a.violation.oracle.c_str());
    return 1;
  }
  if (!r.byte_identical) {
    std::fprintf(stderr, "ddbs_explore: replay violated but the report is"
                 " not byte-identical to the artifact\n");
    return 1;
  }
  std::printf("reproduced byte-for-byte: %s\n",
              to_string(r.run.violations.front()).c_str());
  return 0;
}

struct RunOutcome {
  uint64_t schedule_seed = 0;
  uint64_t seed = 0;
  Schedule schedule;
  ExploreRunResult result;
  bool completed = false;
};

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (!o.replay_path.empty()) {
    return replay_artifact(o.replay_path, o.without_bug);
  }

  const size_t total =
      static_cast<size_t>(o.schedules) * static_cast<size_t>(o.seeds);
  std::printf("ddbs_explore: %d schedule%s x %d seed%s = %zu runs on %d"
              " thread%s (planted bug: %s)\n",
              o.schedules, o.schedules == 1 ? "" : "s", o.seeds,
              o.seeds == 1 ? "" : "s", total, o.jobs,
              o.jobs == 1 ? "" : "s",
              to_string(o.run.cfg.planted_bug));

  std::vector<RunOutcome> outcomes(total);
  std::atomic<bool> cancel{false};
  std::mutex progress_mu;
  run_parallel(
      total, o.jobs,
      [&](size_t i) {
        RunOutcome& out = outcomes[i];
        out.schedule_seed =
            o.schedule_seed_base + i / static_cast<size_t>(o.seeds);
        out.seed = o.seed_base + i % static_cast<size_t>(o.seeds);
        out.schedule = generate_schedule(o.sched, out.schedule_seed);
        out.result = run_schedule(o.run, out.schedule, out.seed);
        out.completed = true;
        {
          std::lock_guard<std::mutex> lock(progress_mu);
          if (out.result.violated) {
            std::printf("  sched %llu seed %llu: VIOLATION %s\n",
                        static_cast<unsigned long long>(out.schedule_seed),
                        static_cast<unsigned long long>(out.seed),
                        to_string(out.result.violations.front()).c_str());
          } else {
            std::printf("  sched %llu seed %llu: ok (%zu actions, %lld"
                        " committed)\n",
                        static_cast<unsigned long long>(out.schedule_seed),
                        static_cast<unsigned long long>(out.seed),
                        out.schedule.size(),
                        static_cast<long long>(out.result.committed));
          }
          std::fflush(stdout);
        }
        if (o.fail_fast && out.result.violated) {
          cancel.store(true, std::memory_order_relaxed);
        }
      },
      o.fail_fast ? &cancel : nullptr);

  if (!o.telemetry_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.telemetry_dir, ec);
    if (ec) {
      std::fprintf(stderr, "ddbs_explore: cannot create %s: %s\n",
                   o.telemetry_dir.c_str(), ec.message().c_str());
    } else {
      for (const RunOutcome& out : outcomes) {
        if (!out.completed || out.result.telemetry_jsonl.empty()) continue;
        const std::string path = o.telemetry_dir + "/TEL_sched" +
                                 std::to_string(out.schedule_seed) + "_seed" +
                                 std::to_string(out.seed) + ".jsonl";
        write_file(path, out.result.telemetry_jsonl);
      }
    }
  }

  // Shrink the failing schedules in deterministic index order, verify
  // each minimized repro replays byte-identically, and write the corpus.
  std::vector<size_t> failing;
  size_t completed = 0;
  for (size_t i = 0; i < total; ++i) {
    if (outcomes[i].completed) ++completed;
    if (outcomes[i].completed && outcomes[i].result.violated) {
      failing.push_back(i);
    }
  }

  int rc = 0;
  int shrunk = 0, verified = 0;
  if (!failing.empty() && !o.corpus.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.corpus, ec);
    if (ec) {
      std::fprintf(stderr, "ddbs_explore: cannot create %s: %s\n",
                   o.corpus.c_str(), ec.message().c_str());
      rc = 1;
    }
  }
  for (size_t i : failing) {
    if (shrunk >= o.max_shrinks) {
      std::printf("  (skipping shrink of %zu further violation%s)\n",
                  failing.size() - static_cast<size_t>(shrunk),
                  failing.size() - static_cast<size_t>(shrunk) == 1 ? ""
                                                                    : "s");
      break;
    }
    RunOutcome& out = outcomes[i];
    if (o.run.cfg.planted_bug != PlantedBug::kNone) {
      ExploreOptions unplanted = o.run;
      unplanted.cfg.planted_bug = PlantedBug::kNone;
      if (run_schedule(unplanted, out.schedule, out.seed).violated) {
        std::printf("  sched %llu seed %llu: violates without its planted"
                    " bug too; not a repro of it\n",
                    static_cast<unsigned long long>(out.schedule_seed),
                    static_cast<unsigned long long>(out.seed));
        continue;
      }
    }
    ++shrunk;
    const ShrinkResult sr = shrink_schedule(o.run, out.schedule, out.seed,
                                            o.shrink_budget);
    std::printf("  shrink sched %llu seed %llu: %zu -> %zu actions in %d"
                " runs%s\n    %s\n",
                static_cast<unsigned long long>(out.schedule_seed),
                static_cast<unsigned long long>(out.seed),
                out.schedule.size(), sr.schedule.size(), sr.runs,
                sr.minimal ? "" : " (budget exhausted)",
                to_string(sr.schedule).c_str());
    if (!sr.result.violated) {
      std::fprintf(stderr, "ddbs_explore: shrink lost the violation"
                   " (nondeterminism?)\n");
      rc = 1;
      continue;
    }
    ReproArtifact artifact;
    artifact.opts = o.run;
    artifact.seed = out.seed;
    artifact.schedule = sr.schedule;
    artifact.violation = sr.result.violations.front();
    artifact.report = sr.result.report;
    const ReplayResult rr = replay(artifact);
    if (rr.violated && rr.byte_identical) {
      ++verified;
    } else {
      std::fprintf(stderr, "ddbs_explore: minimized repro failed replay"
                   " verification\n");
      rc = 1;
    }
    if (!o.corpus.empty()) {
      const std::string path = o.corpus + "/REPRO_sched" +
                               std::to_string(out.schedule_seed) + "_seed" +
                               std::to_string(out.seed) + ".json";
      if (!write_file(path, to_json(artifact))) rc = 1;
    }
  }

  std::printf("ddbs_explore: %zu/%zu runs, %zu violation%s, %d shrunk, %d"
              " replay-verified\n",
              completed, total, failing.size(),
              failing.size() == 1 ? "" : "s", shrunk, verified);

  if (o.run.cfg.planted_bug == PlantedBug::kNone) {
    // Clean protocol: any violation is a finding (and a failure).
    if (!failing.empty()) rc = 1;
  } else {
    // Self-check: the explorer must find the planted bug and produce at
    // least one verified minimized repro.
    if (failing.empty()) {
      std::fprintf(stderr, "ddbs_explore: planted bug %s NOT found\n",
                   to_string(o.run.cfg.planted_bug));
      rc = 1;
    } else if (verified == 0) {
      std::fprintf(stderr, "ddbs_explore: planted bug found but no repro"
                   " survived replay verification\n");
      rc = 1;
    }
  }
  return rc;
}
