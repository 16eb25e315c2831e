// The sweep driver's core contract: fanning (config x seed) runs across a
// thread pool must not change any per-run result. Each simulation is fully
// self-contained, so the per-run JSON reports -- which carry the config
// echo, all non-zero metric counters and the headline scalars, but no
// wall-clock numbers -- have to come back byte-identical whether the sweep
// ran on one thread or four.
#include <gtest/gtest.h>

#include "workload/sweep.h"

namespace ddbs {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.seed_base = 7;
  spec.seeds = 3;
  spec.params.clients_per_site = 2;
  spec.params.duration = 600'000;
  spec.params.schedule.push_back(
      FailureEvent{150'000, FailureEvent::What::kCrash, 1});
  spec.params.schedule.push_back(
      FailureEvent{350'000, FailureEvent::What::kRecover, 1});

  Config base;
  base.n_sites = 4;
  base.n_items = 50;
  base.record_history = false;

  Config mark_all = base;
  mark_all.outdated_strategy = OutdatedStrategy::kMarkAll;
  spec.cells.push_back(SweepCell{"mark-all", mark_all});

  Config missing = base;
  missing.outdated_strategy = OutdatedStrategy::kMissingList;
  missing.copier_mode = CopierMode::kOnDemand;
  missing.unreadable_policy = UnreadablePolicy::kRedirect;
  spec.cells.push_back(SweepCell{"missing-list", missing});
  return spec;
}

TEST(SweepDeterminism, ParallelRunsMatchSerialByteForByte) {
  const SweepSpec spec = small_spec();
  const SweepResult serial = run_sweep(spec, 1);
  const SweepResult parallel = run_sweep(spec, 4);

  ASSERT_EQ(serial.runs.size(), 6u);
  ASSERT_EQ(parallel.runs.size(), serial.runs.size());
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].cell, parallel.runs[i].cell);
    EXPECT_EQ(serial.runs[i].seed, parallel.runs[i].seed);
    EXPECT_EQ(serial.runs[i].converged, parallel.runs[i].converged);
    // The whole point: per-run reports are bit-identical under -j.
    EXPECT_EQ(serial.runs[i].report_json, parallel.runs[i].report_json)
        << "run " << i << " diverged between serial and parallel sweep";
  }

  // Aggregates are computed from the runs in fixed order, so they match
  // too (including the JSON, once the host section is excluded).
  const std::string a = sweep_report_json(spec, serial, 1);
  const std::string b = sweep_report_json(spec, parallel, 1);
  const std::string host_key = "\"host\"";
  EXPECT_EQ(a.substr(0, a.find(host_key)), b.substr(0, b.find(host_key)));
}

TEST(SweepDeterminism, SeedsProduceDistinctRuns) {
  SweepSpec spec = small_spec();
  spec.cells.resize(1);
  const SweepResult res = run_sweep(spec, 2);
  ASSERT_EQ(res.runs.size(), 3u);
  // Different seeds must actually explore different executions.
  EXPECT_NE(res.runs[0].report_json, res.runs[1].report_json);
  EXPECT_NE(res.runs[1].report_json, res.runs[2].report_json);
  // And repeating a seed reproduces its run exactly.
  const SweepResult again = run_sweep(spec, 1);
  EXPECT_EQ(res.runs[0].report_json, again.runs[0].report_json);
}

// One cell, planted skip-mark bug, built to lose a write on every seed:
// one client per site keeps the NS locks free often enough for the type-2
// to declare site 1 down early in a 2.9 s outage, 16 items and 2 ops per
// transaction write the unmarked copy's item many times after that, and
// the reboot 10 ms before the load ends leaves no later write to paper
// over the stale copy.
SweepSpec planted_spec() {
  SweepSpec spec = small_spec();
  spec.cells.resize(1);
  spec.cells[0].cfg.planted_bug = PlantedBug::kSkipMark;
  spec.cells[0].cfg.n_items = 16;
  spec.seed_base = 1;
  spec.seeds = 8;
  spec.params.clients_per_site = 1;
  spec.params.workload.ops_per_txn = 2;
  spec.params.duration = 3'000'000;
  spec.params.schedule.clear();
  spec.params.schedule.push_back(
      FailureEvent{80'000, FailureEvent::What::kCrash, 1});
  spec.params.schedule.push_back(
      FailureEvent{2'990'000, FailureEvent::What::kRecover, 1});
  return spec;
}

// The quiescence oracles wired into every sweep run: clean cells pass
// with zero violations; a cell carrying a planted protocol bug must trip
// at least one oracle, and fail-fast must then stop scheduling runs.
TEST(SweepOracles, CleanCellsPassAndPlantedBugTrips) {
  SweepSpec spec = small_spec();
  spec.cells.resize(1);
  const SweepResult clean = run_sweep(spec, 2);
  for (const SweepRun& r : clean.runs) {
    EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "not converged"
                                                 : r.violations.front());
  }
  EXPECT_EQ(clean.cells[0].oracle_failures, 0);
  EXPECT_EQ(clean.cells[0].completed, spec.seeds);

  const SweepResult bad = run_sweep(planted_spec(), 2);
  EXPECT_GT(bad.cells[0].oracle_failures, 0)
      << "planted skip-mark bug escaped every oracle";
}

TEST(SweepOracles, FailFastStopsSchedulingAfterFirstFailure) {
  SweepSpec spec = planted_spec();
  spec.fail_fast = true;
  // Serial execution makes the cutoff deterministic: everything after the
  // first failing seed (1) is skipped.
  const SweepResult res = run_sweep(spec, 1);
  int completed = 0, failures = 0;
  for (const SweepRun& r : res.runs) {
    if (r.completed) ++completed;
    if (!r.violations.empty()) ++failures;
  }
  ASSERT_GT(failures, 0) << "planted bug never tripped; cannot test cutoff";
  EXPECT_LT(completed, spec.seeds);
  // Skipped slots still identify themselves.
  EXPECT_EQ(res.runs.back().seed, spec.seed_base + 7);
}

TEST(SweepDeterminism, SummariesCoverHeadlineScalars) {
  SweepSpec spec = small_spec();
  const SweepResult res = run_sweep(spec, 2);
  ASSERT_EQ(res.cells.size(), 2u);
  for (const SweepCellSummary& cell : res.cells) {
    EXPECT_EQ(cell.converged, spec.seeds);
    bool has_throughput = false;
    for (const SweepScalar& s : cell.scalars) {
      if (s.name == "throughput_txn_s") {
        has_throughput = true;
        EXPECT_GT(s.mean, 0.0);
        EXPECT_GE(s.p99, s.p50 * 0.999);
      }
    }
    EXPECT_TRUE(has_throughput);
  }
}

} // namespace
} // namespace ddbs
