// Telemetry stream, no-progress watchdog and bounded histogram coverage.
//
// The contracts under test:
//   - Histogram (log-bucketed) merges by bucket addition EXACTLY: folding
//     per-shard instances equals single-instance recording for every
//     reported statistic (count/min/max/percentile), and quantile error
//     stays within the 1/32 sub-bucket bound;
//   - Metrics::merge_from tolerates empty and mismatched shard instances;
//   - the telemetry JSONL is byte-identical between a ParallelCluster with
//     n_threads = K and its single-threaded DES twin (workload_shards = K,
//     site_ordered_events = true), and across repeated identical runs;
//   - the watchdog catches the historical planted NS-lock stall (config
//     planted_stall) and freezes a diagnostic bundle carrying waits-for
//     edges and NS-lock holders, while a clean run raises zero stalls.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "core/cluster.h"
#include "core/runtime.h"
#include "json_test_util.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

// ------------------------------------------------------------- Histogram

TEST(Histogram, ShardMergeEqualsSingleInstanceRecording) {
  // Deterministic pseudo-random samples spanning many octaves.
  auto sample = [](int i) {
    uint64_t h = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 31;
    return static_cast<double>(h % 10'000'000) / 13.0;
  };
  Histogram whole;
  Histogram shard[4];
  for (int i = 0; i < 20'000; ++i) {
    whole.add(sample(i));
    shard[i % 4].add(sample(i));
  }
  Histogram merged;
  for (const Histogram& s : shard) merged.add_all(s);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.percentile(p), whole.percentile(p)) << "p" << p;
  }
}

TEST(Histogram, QuantileErrorWithinSubBucketBound) {
  // Against the exact-sample baseline: relative error at most 2^-kSubBits
  // (one sub-bucket), for a distribution spanning several octaves.
  Histogram h;
  ExactSamples exact;
  for (int i = 1; i <= 50'000; ++i) {
    const double v = static_cast<double>(i) * 0.37;
    h.add(v);
    exact.add(v);
  }
  const double bound = 1.0 / static_cast<double>(Histogram::kSubBuckets);
  for (double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double want = exact.percentile(p);
    const double got = h.percentile(p);
    EXPECT_LE(std::abs(got - want) / want, bound) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.min(), exact.min());
  EXPECT_DOUBLE_EQ(h.max(), exact.max());
  EXPECT_EQ(h.count(), exact.count());
}

TEST(Histogram, EmptyAndClampedExtremes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  // Outliers beyond the bucket range clamp into edge buckets but keep
  // exact min/max, and percentiles stay inside [min, max].
  h.add(1e-9);
  h.add(1e300);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  EXPECT_GE(h.percentile(50), h.min());
  EXPECT_LE(h.percentile(99), h.max());
}

// --------------------------------------------------- Metrics::merge_from

TEST(Metrics, MergeFromEmptyShardIsIdentity) {
  Metrics total;
  total.inc(total.id.txn_committed, 7);
  total.hist(total.id.h_commit_latency_us).add(125.0);
  const Metrics empty;
  total.merge_from(empty);
  EXPECT_EQ(total.get("txn.committed"), 7);
  EXPECT_EQ(total.hist(total.id.h_commit_latency_us).count(), 1u);
}

TEST(Metrics, MergeFromMismatchedShardRegistersUnknownNames) {
  // Shards can carry metrics the aggregate has never seen (and vice
  // versa); merge_from must fold matching names and adopt unknown ones.
  Metrics a;
  a.inc(a.counter("only.in.a"), 3);
  a.hist(a.histogram("lat.only.a")).add(1.0);
  Metrics b;
  b.inc(b.counter("only.in.b"), 5);
  b.inc(b.counter("only.in.a"), 2); // same name, registered independently
  Histogram& hb = b.hist(b.histogram("lat.only.b"));
  hb.add(10.0);
  hb.add(20.0);
  a.merge_from(b);
  EXPECT_EQ(a.get("only.in.a"), 5);
  EXPECT_EQ(a.get("only.in.b"), 5);
  EXPECT_EQ(a.hist("lat.only.a").count(), 1u);
  EXPECT_EQ(a.hist("lat.only.b").count(), 2u);
  EXPECT_DOUBLE_EQ(a.hist("lat.only.b").max(), 20.0);
}

// ----------------------------------------------------- telemetry stream

std::string run_with_telemetry(const Config& cfg, uint64_t seed) {
  auto rt = make_runtime(cfg, seed);
  rt->bootstrap();
  TelemetryStream stream(*rt, TelemetryOptions{});
  stream.start();
  RunnerParams rp;
  rp.duration = 1'500'000;
  rp.schedule.push_back({400'000, FailureEvent::What::kCrash, 2});
  rp.schedule.push_back({900'000, FailureEvent::What::kRecover, 2});
  Runner runner(*rt, rp, seed);
  runner.run();
  stream.stop();
  return stream.jsonl();
}

TEST(Telemetry, JsonlByteIdenticalAcrossBackends) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 60;
  cfg.replication_degree = 3;
  cfg.n_threads = 4;

  Config twin = cfg;
  twin.workload_shards = cfg.shard_count();
  twin.n_threads = 1;
  twin.site_ordered_events = true;

  const std::string parallel = run_with_telemetry(cfg, 11);
  const std::string serial = run_with_telemetry(twin, 11);
  EXPECT_FALSE(parallel.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Telemetry, JsonlDeterministicAcrossRepeatedRuns) {
  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 40;
  cfg.replication_degree = 3;
  const std::string a = run_with_telemetry(cfg, 21);
  const std::string b = run_with_telemetry(cfg, 21);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Telemetry, TicksCarryPerSiteState) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  auto rt = make_runtime(cfg, 5);
  rt->bootstrap();
  TelemetryOptions topts;
  topts.interval = 100'000;
  TelemetryStream stream(*rt, topts);
  stream.start();
  RunnerParams rp;
  rp.duration = 500'000;
  Runner runner(*rt, rp, 5);
  runner.run();
  stream.stop();
  EXPECT_GE(stream.ticks(), 5u);
  const std::string& jsonl = stream.jsonl();
  EXPECT_NE(jsonl.find("\"commit_rate\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"mode\": \"up\""), std::string::npos);
  // Host-side fields stay out unless opted in: they are nondeterministic.
  EXPECT_EQ(jsonl.find("rss_kb"), std::string::npos);
}

// ------------------------------------------------------------- watchdog

// The historical NS-lock stall, re-enabled via cfg.planted_stall: with
// control_retry_limit = 1 the first failed type-1 exhausts the retry cycle
// and the planted give-up strands the site in kRecovering forever. The
// fixed code (same squeeze, no planted_stall) cools down, restarts the
// cycle and comes up -- zero stalls.
Config stall_config(bool planted) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 100;
  cfg.replication_degree = 3;
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  cfg.control_retry_limit = 1;
  cfg.planted_stall = planted;
  return cfg;
}

struct StallRun {
  std::vector<StallEvent> stalls;
  std::string bundle;
  std::string jsonl;
};

StallRun run_stall_scenario(bool planted) {
  // Site 3 crashes just before site 2 reboots and is still nominally up
  // when site 2's first type-1 writes its NS copy, so that attempt times
  // out on every seed: the planted give-up strands site 2 by construction.
  // Site 3 comes back once the fixed code's cool-down has let site 2 up.
  constexpr uint64_t kSeed = 4;
  Cluster cluster(stall_config(planted), kSeed);
  cluster.bootstrap();
  TelemetryOptions topts;
  topts.watchdog = true;
  topts.recovery_phase_budget = 2'500'000;
  TelemetryStream stream(cluster, topts);
  stream.start();
  RunnerParams rp;
  rp.clients_per_site = 6;
  rp.duration = 4'000'000;
  rp.workload.ops_per_txn = 3; // not the WorkloadParams default of 4
  rp.schedule.push_back({200'000, FailureEvent::What::kCrash, 2});
  rp.schedule.push_back({290'000, FailureEvent::What::kCrash, 3});
  rp.schedule.push_back({300'000, FailureEvent::What::kRecover, 2});
  rp.schedule.push_back({2'000'000, FailureEvent::What::kRecover, 3});
  rp.stop_check = [&stream]() { return stream.stalled(); };
  rp.stop_poll = topts.interval;
  Runner runner(cluster, rp, kSeed);
  const RunnerStats stats = runner.run();
  if (!stats.stopped_early) cluster.settle();
  stream.stop();
  StallRun out;
  out.stalls = stream.stalls();
  out.bundle = stream.bundle_json();
  out.jsonl = stream.jsonl();
  return out;
}

TEST(Watchdog, CatchesPlantedNsLockStallWithinBudget) {
  const StallRun r = run_stall_scenario(true);
  ASSERT_FALSE(r.stalls.empty()) << r.jsonl;
  EXPECT_EQ(r.stalls.front().reason, "recovery-phase-budget");
  EXPECT_EQ(r.stalls.front().site, 2);
  // Caught within the bounded sim-time budget: recovery started at
  // ~300 ms, budget 2.5 s, tick granularity 250 ms.
  EXPECT_LE(r.stalls.front().at, 3'250'000);
  // The stall is also visible inline in the JSONL stream.
  EXPECT_NE(r.jsonl.find("\"stall\""), std::string::npos);
}

TEST(Watchdog, BundleCarriesLivelockSignature) {
  const StallRun r = run_stall_scenario(true);
  ASSERT_FALSE(r.bundle.empty());
  // Replayable artifact: config + per-site forensic state + event tails.
  EXPECT_NE(r.bundle.find("\"tool\": \"ddbs-watchdog\""), std::string::npos);
  EXPECT_NE(r.bundle.find("\"config\""), std::string::npos);
  EXPECT_NE(r.bundle.find("\"planted_stall\": true"), std::string::npos);
  EXPECT_NE(r.bundle.find("\"waits_for\""), std::string::npos);
  EXPECT_NE(r.bundle.find("\"ns_lock_holders\""), std::string::npos);
  EXPECT_NE(r.bundle.find("\"ns_vector\""), std::string::npos);
  EXPECT_NE(r.bundle.find("\"trace_tail\""), std::string::npos);
  EXPECT_NE(r.bundle.find("\"mode\": \"recovering\""), std::string::npos);
  // The one tail carries the causal fields: span, parent and phase.
  const json_test::JsonValue doc = json_test::parse_checked(r.bundle);
  const json_test::JsonArray& tail = doc.obj().at("trace_tail").arr();
  ASSERT_FALSE(tail.empty());
  bool saw_span = false;
  for (const json_test::JsonValue& v : tail) {
    const json_test::JsonObject& e = v.obj();
    ASSERT_TRUE(e.count("span"));
    ASSERT_TRUE(e.count("parent"));
    ASSERT_TRUE(e.count("phase"));
    saw_span = saw_span || e.at("phase").str() != "instant";
  }
  EXPECT_TRUE(saw_span);
}

TEST(Watchdog, FixedBackoffRunsCleanUnderSameSqueeze) {
  const StallRun r = run_stall_scenario(false);
  EXPECT_TRUE(r.stalls.empty());
  EXPECT_TRUE(r.bundle.empty());
  EXPECT_EQ(r.jsonl.find("\"stall\""), std::string::npos);
}

TEST(Watchdog, IdleClusterIsQuietNotStuck) {
  // No clients at all: commits never advance, but neither does any work.
  // The no-commit condition must not fire.
  Config cfg;
  cfg.n_sites = 3;
  cfg.n_items = 20;
  cfg.replication_degree = 2;
  Cluster cluster(cfg, 9);
  cluster.bootstrap();
  TelemetryOptions topts;
  topts.watchdog = true;
  topts.no_commit_budget = 500'000;
  TelemetryStream stream(cluster, topts);
  stream.start();
  cluster.run_until(5'000'000);
  stream.stop();
  EXPECT_TRUE(stream.stalls().empty());
  EXPECT_GE(stream.ticks(), 10u);
}

} // namespace
} // namespace ddbs
