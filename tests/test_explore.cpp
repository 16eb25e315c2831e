// The adversarial schedule explorer (src/explore/): seed-deterministic
// nemesis schedule generation, run determinism, invariant oracles on the
// clean protocol, and the self-validation loop the subsystem exists for --
// a planted protocol bug must be found, delta-debugged to a small
// schedule, and its repro artifact must replay byte-for-byte.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "explore/explorer.h"
#include "explore/repro.h"
#include "explore/schedule.h"
#include "explore/shrink.h"
#include "workload/sweep.h"

namespace ddbs {
namespace {

ScheduleParams params4() {
  ScheduleParams p;
  p.n_sites = 4;
  p.max_actions = 8;
  p.horizon = 1'500'000;
  return p;
}

ExploreOptions opts4() {
  ExploreOptions o;
  o.cfg.n_sites = 4;
  o.cfg.n_items = 40;
  o.cfg.replication_degree = 3;
  o.horizon = 1'500'000;
  return o;
}

TEST(ExploreSchedule, GeneratorIsSeedDeterministic) {
  const ScheduleParams p = params4();
  const Schedule a = generate_schedule(p, 7);
  const Schedule b = generate_schedule(p, 7);
  EXPECT_EQ(a, b);
  // Different seeds explore different schedules (overwhelmingly likely
  // for at least one of a handful of seeds).
  bool any_different = false;
  for (uint64_t s = 8; s < 12; ++s) {
    if (!(generate_schedule(p, s) == a)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(ExploreSchedule, GeneratedSchedulesAreWellFormed) {
  const ScheduleParams p = params4();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Schedule s = generate_schedule(p, seed);
    std::set<SiteId> down;
    SimTime last_crash_or_reboot = 0;
    for (const NemesisOp& op : s) {
      ASSERT_GE(op.at, 0);
      ASSERT_LE(op.at, p.horizon);
      switch (op.kind) {
        case NemesisKind::kCrash:
          // Crashes target up sites and never the last one standing.
          EXPECT_EQ(down.count(op.site), 0u) << "seed " << seed;
          down.insert(op.site);
          EXPECT_LT(static_cast<int>(down.size()), p.n_sites);
          last_crash_or_reboot = op.at;
          break;
        case NemesisKind::kReboot:
          EXPECT_EQ(down.count(op.site), 1u) << "seed " << seed;
          down.erase(op.site);
          last_crash_or_reboot = op.at;
          break;
        case NemesisKind::kDropBurst:
          EXPECT_GT(op.duration, 0);
          EXPECT_LE(op.prob, p.max_loss);
          break;
        case NemesisKind::kLatencySkew:
          EXPECT_GT(op.duration, 0);
          EXPECT_LE(op.factor, p.max_skew);
          break;
        default:
          FAIL() << "partitions are off by default";
      }
    }
    // Every crashed site is rebooted before the horizon, with headroom
    // for recovery plus copier drain.
    EXPECT_TRUE(down.empty()) << "seed " << seed;
    EXPECT_LE(last_crash_or_reboot, p.horizon * 4 / 5 + 10'000 * p.n_sites);
  }
}

TEST(ExploreSchedule, JsonRoundTrip) {
  const Schedule s = generate_schedule(params4(), 3);
  ASSERT_FALSE(s.empty());
  JsonWriter w;
  write_schedule(w, s);
  bool ok = false;
  const json::JsonValue doc = json::parse(w.str(), &ok);
  ASSERT_TRUE(ok);
  Schedule back;
  ASSERT_TRUE(parse_schedule(doc, &back));
  EXPECT_EQ(s, back);
}

TEST(ExploreSchedule, ParseRejectsMalformedDocuments) {
  Schedule out;
  bool ok = false;
  EXPECT_FALSE(parse_schedule(json::parse("{}", &ok), &out));
  EXPECT_FALSE(parse_schedule(
      json::parse(R"([{"at": 5, "kind": "meteor-strike"}])", &ok), &out));
  EXPECT_FALSE(parse_schedule(json::parse(R"([42])", &ok), &out));
}

TEST(Explore, RunIsDeterministic) {
  const ExploreOptions o = opts4();
  const Schedule s = generate_schedule(params4(), 5);
  const ExploreRunResult a = run_schedule(o, s, 11);
  const ExploreRunResult b = run_schedule(o, s, 11);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.committed, b.committed);
}

// Acceptance: a bounded exploration of the UNMUTATED protocol finds zero
// violations -- the oracles judge the protocol, not the schedule.
TEST(Explore, CleanProtocolPassesBoundedExploration) {
  const ExploreOptions o = opts4();
  for (uint64_t sched_seed = 1; sched_seed <= 4; ++sched_seed) {
    const Schedule s = generate_schedule(params4(), sched_seed);
    const ExploreRunResult r = run_schedule(o, s, 1);
    EXPECT_FALSE(r.violated)
        << "schedule seed " << sched_seed << ": "
        << to_string(r.violations.front());
    EXPECT_GT(r.committed, 0) << "schedule seed " << sched_seed;
  }
}

// Acceptance: with a planted protocol bug the explorer finds a violation
// within a bounded schedule budget, shrinks the failing schedule to <= 8
// actions, and the emitted repro artifact replays byte-for-byte.
TEST(Explore, PlantedBugFoundShrunkAndRepliedByteIdentical) {
  ExploreOptions o = opts4();
  o.cfg.planted_bug = PlantedBug::kSkipMark;

  Schedule failing;
  ExploreRunResult first;
  uint64_t found_seed = 0;
  for (uint64_t sched_seed = 1; sched_seed <= 10; ++sched_seed) {
    const Schedule s = generate_schedule(params4(), sched_seed);
    const ExploreRunResult r = run_schedule(o, s, 1);
    if (r.violated) {
      failing = s;
      first = r;
      found_seed = sched_seed;
      break;
    }
  }
  ASSERT_FALSE(failing.empty())
      << "planted bug not found in 10 schedules -- explorer is blind";

  const ShrinkResult sr = shrink_schedule(o, failing, 1, /*max_runs=*/150);
  ASSERT_TRUE(sr.result.violated);
  EXPECT_LE(sr.schedule.size(), 8u) << "schedule seed " << found_seed;
  EXPECT_LE(sr.schedule.size(), failing.size());
  EXPECT_LE(sr.runs, 150);

  ReproArtifact artifact;
  artifact.opts = o;
  artifact.seed = 1;
  artifact.schedule = sr.schedule;
  artifact.violation = sr.result.violations.front();
  artifact.report = sr.result.report;

  // Round-trip through the serialized form, as the corpus workflow does.
  const std::string doc = to_json(artifact);
  ReproArtifact parsed;
  std::string err;
  ASSERT_TRUE(parse_repro(doc, &parsed, &err)) << err;
  EXPECT_EQ(parsed.seed, artifact.seed);
  EXPECT_EQ(parsed.schedule, artifact.schedule);
  EXPECT_EQ(parsed.report, artifact.report);
  EXPECT_EQ(parsed.opts.cfg.planted_bug, PlantedBug::kSkipMark);
  EXPECT_EQ(parsed.violation.oracle, artifact.violation.oracle);

  const ReplayResult rr = replay(parsed);
  EXPECT_TRUE(rr.violated);
  EXPECT_TRUE(rr.byte_identical)
      << "replay report:\n" << rr.run.report
      << "\nartifact report:\n" << artifact.report;
}

TEST(Explore, ReproParserRejectsGarbage) {
  ReproArtifact a;
  std::string err;
  EXPECT_FALSE(parse_repro("not json", &a, &err));
  EXPECT_FALSE(parse_repro("{}", &a, &err));
  EXPECT_FALSE(parse_repro(R"({"kind": "repro"})", &a, &err)); // no config
  EXPECT_FALSE(parse_repro(
      R"({"kind": "repro", "config": {"planted_bug": "nope"},
          "schedule": []})",
      &a, &err));
  EXPECT_NE(err, "");
  // A present key of the wrong JSON type, or a number the member cannot
  // hold, is rejected rather than silently left at its default.
  const std::pair<const char*, const char*> bad[] = {
      {"n_sites", R"("7")"},       {"n_sites", "4.5"},
      {"n_sites", "3e10"},         {"placement_seed", "-1"},
      {"footprint_ns", "1"},       {"msg_loss_prob", "false"},
      {"write_scheme", "3"},       {"trace_capacity", "null"},
  };
  for (const auto& [key, value] : bad) {
    err.clear();
    const std::string doc = std::string(R"({"kind": "repro", "config": {")") +
                            key + "\": " + value + R"(}, "schedule": []})";
    EXPECT_FALSE(parse_repro(doc, &a, &err)) << doc;
    EXPECT_EQ(err, std::string("bad value for config.") + key) << doc;
  }
  // Explorer options follow the same rule, and the horizon and checkpoint
  // cadence must be positive (a zero cadence would never reach the end).
  const std::pair<const char*, const char*> bad_opts[] = {
      {"clients_per_site", R"("3")"}, {"clients_per_site", "3e10"},
      {"think_time", "true"},         {"horizon", "0"},
      {"horizon", "-1500000"},        {"checkpoint_every", "0"},
      {"checkpoint_every", "-250000"}, {"settle_budget", "2.5"},
  };
  for (const auto& [key, value] : bad_opts) {
    err.clear();
    const std::string doc =
        std::string(R"({"kind": "repro", "config": {}, "options": {")") +
        key + "\": " + value + R"(}, "schedule": []})";
    EXPECT_FALSE(parse_repro(doc, &a, &err)) << doc;
    EXPECT_EQ(err, std::string("bad value for options.") + key) << doc;
  }
  const std::pair<const char*, const char*> bad_workload[] = {
      {"ops_per_txn", "1e12"}, {"ops_per_txn", "0"},
      {"read_fraction", R"("half")"}, {"n_items", "-1"},
  };
  for (const auto& [key, value] : bad_workload) {
    err.clear();
    const std::string doc = std::string(R"({"kind": "repro", "config": {},)"
                                        R"( "options": {"workload": {")") +
                            key + "\": " + value + R"(}}, "schedule": []})";
    EXPECT_FALSE(parse_repro(doc, &a, &err)) << doc;
    EXPECT_EQ(err, std::string("bad value for options.workload.") + key)
        << doc;
  }
  err.clear();
  EXPECT_FALSE(parse_repro(
      R"({"kind": "repro", "seed": -1, "config": {}, "schedule": []})", &a,
      &err));
  EXPECT_EQ(err, "bad value for seed");
  // The legacy "verify" key of older artifacts is ignored.
  EXPECT_TRUE(parse_repro(
      R"({"kind": "repro", "seed": 2, "config": {},
          "options": {"verify": "post-hoc", "horizon": 1500000},
          "schedule": []})",
      &a, &err))
      << err;
  EXPECT_EQ(a.seed, 2u);
  EXPECT_EQ(a.opts.horizon, 1'500'000);
}

TEST(RunParallel, DeterministicAcrossThreadCounts) {
  std::vector<int> serial(64, 0), parallel_out(64, 0);
  run_parallel(64, 1, [&](size_t i) { serial[i] = static_cast<int>(i * i); });
  run_parallel(64, 8,
               [&](size_t i) { parallel_out[i] = static_cast<int>(i * i); });
  EXPECT_EQ(serial, parallel_out);
}

TEST(RunParallel, CancelStopsClaimingNewJobs) {
  std::atomic<bool> cancel{true}; // pre-cancelled: no job may start
  std::atomic<int> ran{0};
  run_parallel(32, 4, [&](size_t) { ++ran; }, &cancel);
  EXPECT_EQ(ran.load(), 0);
}

} // namespace
} // namespace ddbs
