// Explorer runs judged by the online verifier: fresh nemesis schedules on
// the correct protocol stay clean, the planted skip-mark bug is found, the
// skip-session-check one changes no verdict, and every committed repro
// artifact under tests/repros/ still reports its stored violation and
// replays to its stored report byte for byte.
//
// run_schedule() renders a canonical JSON report (violations with oracle,
// time and detail; stats; schedule echo), so byte equality with a stored
// report is execution equality.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "explore/repro.h"
#include "explore/schedule.h"

namespace ddbs {
namespace {

ExploreOptions small_options() {
  ExploreOptions opts;
  opts.cfg.n_sites = 4;
  opts.cfg.n_items = 40;
  opts.horizon = 1'500'000;
  return opts;
}

TEST(OnlineDifferential, FreshNemesisSchedulesCleanProtocol) {
  const ExploreOptions opts = small_options();
  ScheduleParams params;
  params.n_sites = opts.cfg.n_sites;
  params.horizon = opts.horizon;
  for (uint64_t sched_seed = 1; sched_seed <= 6; ++sched_seed) {
    const Schedule schedule = generate_schedule(params, sched_seed);
    const ExploreRunResult r = run_schedule(opts, schedule, sched_seed);
    EXPECT_FALSE(r.violated) << "schedule seed " << sched_seed << ": "
                             << r.report;
  }
}

TEST(OnlineDifferential, PlantedSkipMarkViolationsMatch) {
  // A schedule built to lose a write on every seed: the one client per
  // site leaves the type-2 room to declare site 1 down early in a 2.9 s
  // outage, 16 items and 2 ops per transaction write the copy the bug
  // leaves unmarked many times after that, and the reboot 10 ms before
  // the load ends leaves no later write to paper over the stale copy.
  // Site 1 crashes 1 us in, before its first transaction's batches leave
  // (its NS read is still on the loopback): an early voter of a dead
  // coordinator stays in doubt, holding its X locks, for the whole outage,
  // and the writes the check needs would queue behind them. The parallel
  // round collects early votes within a millisecond.
  ExploreOptions opts = small_options();
  opts.cfg.planted_bug = PlantedBug::kSkipMark;
  opts.cfg.n_items = 16;
  opts.workload.ops_per_txn = 2;
  opts.horizon = 3'000'000;
  Schedule schedule(2);
  schedule[0].at = 1;
  schedule[0].kind = NemesisKind::kCrash;
  schedule[0].site = 1;
  schedule[1].at = 2'990'000;
  schedule[1].kind = NemesisKind::kReboot;
  schedule[1].site = 1;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_TRUE(run_schedule(opts, schedule, seed).violated)
        << "seed " << seed;
  }
}

TEST(OnlineDifferential, PlantedSkipSessionCheckViolationsMatch) {
  // The session-check mutation only bites when a write carrying a stale
  // session number reaches an up site. Under fail-stop the NS locks and
  // the transport's incarnation rule keep every such write away, and
  // partition churn, which gets some through, makes the unmutated
  // protocol fail the same runs. So each run is judged against its twin
  // with the bug off: the verdicts must match run for run, i.e. the
  // mutation changes no verdict the oracles reach. The mutation itself is
  // caught by SessionChecks.PlantedSkipSessionCheckAdmitsAStaleWrite.
  ExploreOptions opts = small_options();
  opts.cfg.msg_loss_prob = 0.05;
  opts.clients_per_site = 3;
  ScheduleParams params;
  params.n_sites = opts.cfg.n_sites;
  params.horizon = opts.horizon;
  params.partitions = true;
  for (uint64_t sched_seed = 8; sched_seed <= 12; ++sched_seed) {
    const Schedule schedule = generate_schedule(params, sched_seed);
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      opts.cfg.planted_bug = PlantedBug::kNone;
      const bool clean_violated = run_schedule(opts, schedule, seed).violated;
      opts.cfg.planted_bug = PlantedBug::kSkipSessionCheck;
      EXPECT_EQ(run_schedule(opts, schedule, seed).violated, clean_violated)
          << "schedule seed " << sched_seed << ", seed " << seed;
    }
  }
}

// Every committed repro artifact must replay to the same violation and a
// byte-identical report against the stored one.
TEST(OnlineDifferential, CommittedReproCorpusReplaysByteIdentical) {
  const std::filesystem::path dir =
      std::filesystem::path(__FILE__).parent_path() / "repros";
  ASSERT_TRUE(std::filesystem::exists(dir))
      << "corpus directory missing: " << dir;
  size_t artifacts = 0;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    ReproArtifact a;
    std::string err;
    ASSERT_TRUE(parse_repro(buf.str(), &a, &err)) << path << ": " << err;
    ++artifacts;

    const ExploreRunResult r = run_schedule(a.opts, a.schedule, a.seed);
    ASSERT_TRUE(r.violated) << path << ": lost the violation";
    EXPECT_EQ(r.report, a.report) << path << ": report diverged";
    EXPECT_EQ(r.violations.front().oracle, a.violation.oracle) << path;
    EXPECT_EQ(r.violations.front().detail, a.violation.detail) << path;
    EXPECT_EQ(r.violations.front().at, a.violation.at) << path;
  }
  EXPECT_GE(artifacts, 2u) << "corpus is unexpectedly thin";
}

} // namespace
} // namespace ddbs
