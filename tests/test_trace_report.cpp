// Observability layer: the trace ring buffer and the JSON run reports.
//
// The ring tests pin the overwrite semantics (oldest events drop, the
// dropped count is exact, retained events stay in record order). The JSON
// tests round-trip the emitted documents through the shared test-only
// parser (tests/json_test_util.h) to prove the hand-rolled writer produces
// well-formed, correctly-escaped output with the schema EXPERIMENTS.md
// documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/report.h"
#include "core/cluster.h"
#include "json_test_util.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

using json_test::JsonArray;
using json_test::JsonObject;
using json_test::JsonValue;
using json_test::parse_checked;

// --------------------------------------------------------------------------
// Ring buffer semantics.

TEST(Tracer, RecordsInOrderBelowCapacity) {
  Scheduler sched;
  Tracer tracer(sched, 8);
  for (int i = 0; i < 5; ++i) {
    tracer.record(TraceKind::kTxnBegin, 0, 100 + i);
  }
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].txn, TxnId{100} + i);
  }
}

TEST(Tracer, WrapsKeepingNewestAndCountsDropped) {
  Scheduler sched;
  Tracer tracer(sched, 4);
  for (int i = 0; i < 11; ++i) {
    tracer.record(TraceKind::kCopierStart, 1, 0, /*a=*/i);
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.size(), 4u);      // retained
  EXPECT_EQ(tracer.recorded(), 11u); // total ever
  EXPECT_EQ(tracer.dropped(), 7u);   // exactly the overwritten ones
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: 7, 8, 9, 10.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, static_cast<int64_t>(7 + i));
  }
}

TEST(Tracer, StampsSimTime) {
  Scheduler sched;
  Tracer tracer(sched, 8);
  tracer.record(TraceKind::kTxnBegin, 0, 1);
  sched.at(2'500, [&]() { tracer.record(TraceKind::kTxnCommit, 0, 1); });
  sched.run_all();
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 0);
  EXPECT_EQ(events[1].at, 2'500);
  EXPECT_LT(events[0].at, events[1].at);
}

TEST(Tracer, ClearResetsCounters) {
  Scheduler sched;
  Tracer tracer(sched, 2);
  for (int i = 0; i < 5; ++i) tracer.record(TraceKind::kTxnBegin, 0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, JsonRoundTripsEventsOldestFirst) {
  Scheduler sched;
  Tracer tracer(sched, 4);
  for (int i = 0; i < 6; ++i) {
    tracer.record(TraceKind::kDetectorDeclare, static_cast<SiteId>(i % 3),
                  /*txn=*/1'000 + i, /*a=*/i, /*b=*/-i);
  }
  const JsonValue doc = parse_checked(Tracer::to_chrome_json({&tracer}));
  ASSERT_TRUE(doc.is_object());
  const JsonArray& events = doc.obj().at("traceEvents").arr();
  ASSERT_EQ(events.size(), 4u); // retained only
  int64_t prev_a = -1;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& o = ev.obj();
    ASSERT_TRUE(o.count("ts"));
    ASSERT_TRUE(o.count("name"));
    ASSERT_TRUE(o.count("pid"));
    ASSERT_TRUE(o.count("args"));
    const JsonObject& args = o.at("args").obj();
    ASSERT_TRUE(args.count("txn"));
    ASSERT_TRUE(args.count("a"));
    EXPECT_EQ(o.at("name").str(), "detector_declare");
    EXPECT_EQ(o.at("ph").str(), "i");
    const int64_t a = static_cast<int64_t>(args.at("a").num());
    EXPECT_GT(a, prev_a); // oldest-first, strictly increasing here
    prev_a = a;
    EXPECT_EQ(static_cast<int64_t>(args.at("b").num()), -a);
    EXPECT_EQ(static_cast<int64_t>(o.at("pid").num()), a % 3);
    EXPECT_EQ(static_cast<int64_t>(args.at("txn").num()), 1'000 + a);
  }
  EXPECT_EQ(prev_a, 5); // the newest event survived the wrap
}

// --------------------------------------------------------------------------
// Run report schema.

TEST(RunReport, JsonCarriesConfigScalarsCountersAndTimelines) {
  RunReport report("unit");
  Config cfg;
  cfg.n_sites = 7;
  cfg.n_items = 123;
  cfg.replication_degree = 2;
  RunReport::Run& run = report.add_run("cell_a", cfg);
  run.scalars.emplace_back("throughput_txn_s", 512.25);
  run.scalars.emplace_back("commit_ratio", 0.875);
  run.counters.emplace_back("dm.reads", 42);
  RecoveryEpisode ep;
  ep.site = 3;
  ep.reboot_at = 1'000;
  ep.nominally_up_at = 2'000;
  ep.fully_current_at = kNoTime; // must serialize as null
  ep.marked_unreadable = 9;
  run.episodes.push_back(ep);

  const JsonValue doc = parse_checked(report.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.obj().at("bench").str(), "unit");
  EXPECT_EQ(doc.obj().at("schema_version").num(), 5.0);
  const JsonArray& runs = doc.obj().at("runs").arr();
  ASSERT_EQ(runs.size(), 1u);
  const JsonObject& r = runs[0].obj();
  EXPECT_EQ(r.at("label").str(), "cell_a");
  EXPECT_EQ(r.at("config").obj().at("n_sites").num(), 7.0);
  EXPECT_EQ(r.at("config").obj().at("n_items").num(), 123.0);
  EXPECT_DOUBLE_EQ(r.at("scalars").obj().at("throughput_txn_s").num(),
                   512.25);
  EXPECT_EQ(r.at("counters").obj().at("dm.reads").num(), 42.0);
  const JsonObject& rec = r.at("episodes").arr()[0].obj();
  EXPECT_EQ(rec.at("site").num(), 3.0);
  EXPECT_EQ(rec.at("nominally_up_at").num(), 2'000.0);
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
      rec.at("fully_current_at").v)); // unreached milestone -> null
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
      rec.at("nominally_up_to_current_us").v)); // and so is its phase
  EXPECT_EQ(rec.at("marked_unreadable").num(), 9.0);
}

TEST(RunReport, EscapesStringsInLabels) {
  RunReport report("unit");
  Config cfg;
  RunReport::Run& run =
      report.add_run("quote\" backslash\\ newline\n tab\t", cfg);
  (void)run;
  const JsonValue doc = parse_checked(report.to_json());
  EXPECT_EQ(doc.obj().at("runs").arr()[0].obj().at("label").str(),
            "quote\" backslash\\ newline\n tab\t");
}

TEST(RunReport, ClusterReportRunCapturesLiveState) {
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 20;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 17);
  cluster.bootstrap();
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 0, 5}}).committed);
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 300'000);
  cluster.recover_site(1);
  cluster.settle();

  RunReport report("unit");
  cluster.report_run(report, "live");
  const JsonValue doc = parse_checked(report.to_json());
  const JsonObject& r = doc.obj().at("runs").arr()[0].obj();
  // Config echo matches the cluster's actual config.
  EXPECT_EQ(r.at("config").obj().at("n_sites").num(), 3.0);
  // Counters captured some real activity.
  EXPECT_GT(r.at("counters").obj().at("txn.committed").num(), 0.0);
  // The crash+recover produced one episode with ordered milestones.
  const JsonArray& eps = r.at("episodes").arr();
  ASSERT_EQ(eps.size(), 1u);
  const JsonObject& ep = eps[0].obj();
  EXPECT_EQ(ep.at("site").num(), 1.0);
  EXPECT_LT(ep.at("reboot_at").num(), ep.at("nominally_up_at").num());
}

// A site that recovers twice has two records, not one reset record.
TEST(RunReport, TwoRecoveriesOfOneSiteAreTwoRecords) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 60;
  Cluster cluster(cfg, 1);
  cluster.bootstrap();
  for (int round = 0; round < 2; ++round) {
    cluster.crash_site(2);
    cluster.run_until(cluster.now() + 600'000);
    cluster.recover_site(2);
    cluster.settle();
  }

  RunReport report("unit");
  cluster.report_run(report, "twice");
  const JsonValue doc = parse_checked(report.to_json());
  const JsonObject& r = doc.obj().at("runs").arr()[0].obj();
  EXPECT_EQ(r.count("recoveries"), 0u);
  int complete_site2 = 0;
  SimTime last_reboot = kNoTime;
  for (const JsonValue& v : r.at("episodes").arr()) {
    const JsonObject& ep = v.obj();
    if (ep.at("site").num() != 2.0 || !ep.at("complete").boolean()) continue;
    ++complete_site2;
    const auto reboot = static_cast<SimTime>(ep.at("reboot_at").num());
    EXPECT_TRUE(last_reboot == kNoTime || reboot > last_reboot);
    last_reboot = reboot;
  }
  EXPECT_EQ(complete_site2, 2);
}

TEST(RunReport, WriteProducesReadableFile) {
  RunReport report("writetest");
  Config cfg;
  report.add_run("only", cfg);
  const std::string path = ::testing::TempDir() + "ddbs_report_test.json";
  ASSERT_TRUE(report.write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const JsonValue doc = parse_checked(content);
  EXPECT_EQ(doc.obj().at("bench").str(), "writetest");
}

// --------------------------------------------------------------------------
// The cluster's tracer sees protocol activity end to end.

TEST(Tracer, ClusterEmitsLifecycleEvents) {
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 20;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 29);
  cluster.bootstrap();
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 1, 7}}).committed);
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 500'000);
  cluster.recover_site(2);
  cluster.settle();

  std::map<TraceKind, int> by_kind;
  cluster.tracer().for_each(
      [&](const TraceEvent& e) { ++by_kind[e.kind]; });
  EXPECT_GT(by_kind[TraceKind::kTxnCommit], 0);
  EXPECT_GT(by_kind[TraceKind::kControlUpStart], 0);
  EXPECT_GT(by_kind[TraceKind::kControlUpCommit], 0);
  EXPECT_GT(by_kind[TraceKind::kRecoveryStarted], 0);
  EXPECT_GT(by_kind[TraceKind::kNominallyUp], 0);
  // Detector saw the crash: either a verify chain or a full declaration.
  EXPECT_GT(by_kind[TraceKind::kDetectorVerify] +
                by_kind[TraceKind::kDetectorDeclare],
            0);
}

// --------------------------------------------------------------------------
// The trace stream sinks see is the ring minus span ends and DM-local
// kinds. EpisodeTracker, TimeSeries, the parallel backend's TraceBuffer and
// perfbench's per-kind counter are all fed through it.

struct RecordingSink final : TraceSink {
  void on_trace(const TraceEvent& e) override { seen.push_back(e); }
  std::vector<TraceEvent> seen;
};

// A crash/recover run with clients, ring large enough that nothing drops.
struct StreamRun {
  StreamRun() : cluster(config(), 23) {
    cluster.tracer().add_sink(&sink);
    cluster.bootstrap();
    RunnerParams rp;
    rp.duration = 2'000'000;
    rp.schedule = {{500'000, FailureEvent::What::kCrash, 2},
                   {1'200'000, FailureEvent::What::kRecover, 2}};
    Runner runner(cluster, rp, 23);
    runner.run();
    cluster.settle();
  }
  static Config config() {
    Config cfg;
    cfg.n_sites = 6;
    cfg.n_items = 60;
    cfg.replication_degree = 3;
    cfg.trace_capacity = 1 << 18;
    return cfg;
  }
  RecordingSink sink; // declared first: outlives the cluster's tracer
  Cluster cluster;
};

bool same_event(const TraceEvent& x, const TraceEvent& y) {
  return x.at == y.at && x.kind == y.kind && x.phase == y.phase &&
         x.site == y.site && x.txn == y.txn && x.a == y.a && x.b == y.b &&
         x.span == y.span && x.parent == y.parent;
}

TEST(TraceStream, SinksSeeBeginsAndInstantsOfTraceKindsOnly) {
  StreamRun run;
  const Tracer& ring = run.cluster.tracer();
  ASSERT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> expected;
  size_t ends = 0, local = 0;
  int64_t span_events = 0;
  ring.for_each([&](const TraceEvent& e) {
    span_events += e.phase != TracePhase::kInstant;
    if (e.phase == TracePhase::kEnd) {
      ++ends;
    } else if (e.kind >= kFirstLocalKind) {
      ++local;
    } else {
      expected.push_back(e);
    }
  });
  // The filter has something to hold back on both counts.
  EXPECT_GT(ends, 0u);
  EXPECT_GT(local, 0u);
  ASSERT_EQ(run.sink.seen.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(same_event(run.sink.seen[i], expected[i])) << "event " << i;
  }
  // Span begins of trace kinds are delivered: they are the step's event.
  EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const TraceEvent& e) {
                            return e.phase == TracePhase::kBegin &&
                                   e.kind == TraceKind::kTxnBegin;
                          }));

  RunReport report("unit");
  const RunReport::Run& r = run.cluster.report_run(report, "stream");
  EXPECT_EQ(r.trace_recorded, static_cast<int64_t>(run.sink.seen.size()));
  EXPECT_EQ(r.span_recorded, span_events);
}

// perfbench's per-kind counter indexes a 32-slot array by kind.
TEST(TraceStream, DeliveredKindsFitA32SlotCounter) {
  StreamRun run;
  ASSERT_FALSE(run.sink.seen.empty());
  for (const TraceEvent& e : run.sink.seen) {
    EXPECT_LT(static_cast<size_t>(e.kind), 32u) << to_string(e.kind);
  }
  EXPECT_LT(static_cast<size_t>(kFirstLocalKind), 32u);
}

// A verify chain opens its span only once admitted: a hint for a suspect
// whose chain already runs records nothing.
TEST(TraceStream, DetectorVerifyBeginsMatchVerifyChains) {
  StreamRun run;
  int64_t begins = 0;
  run.cluster.tracer().for_each([&](const TraceEvent& e) {
    begins += e.kind == TraceKind::kDetectorVerify &&
              e.phase == TracePhase::kBegin;
  });
  Metrics& m = run.cluster.metrics();
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, m.get(m.id.fd_verify_chains));
}

} // namespace
} // namespace ddbs
