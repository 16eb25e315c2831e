// Differential and unit coverage for the site-parallel backend.
//
// The contract under test: a ParallelCluster with n_threads = K executes
// the same per-site event sequences as the single-threaded DES "twin"
// configured with n_threads = 1, workload_shards = K and
// site_ordered_events = true. Quiescent schedules must therefore agree on
// per-transaction outcomes, final KV state, session vectors and oracle
// verdicts -- and whole explorer run reports must match byte-for-byte,
// since render_report is a pure function of the execution.
//
// Also here: the SPSC mailbox ring, the sharded-metrics merge (the
// "concurrent bumps lose no counts" regression) and backend selection.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "core/cluster.h"
#include "core/parallel_cluster.h"
#include "core/runtime.h"
#include "explore/explorer.h"
#include "replication/session.h"
#include "sim/spsc_ring.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, FifoWithinRingCapacity) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ring.push(i);
  std::vector<int> out;
  EXPECT_EQ(ring.drain(out), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, OverflowSpillsWithoutLoss) {
  SpscRing<int> ring(4);
  const int n = 100; // way past capacity, producer never blocks
  for (int i = 0; i < n; ++i) ring.push(i);
  std::vector<int> out;
  EXPECT_EQ(ring.drain(out), static_cast<size_t>(n));
  std::set<int> seen(out.begin(), out.end());
  EXPECT_EQ(seen.size(), static_cast<size_t>(n));
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, CrossThreadHandoffLosesNothing) {
  SpscRing<int> ring(64);
  constexpr int kCount = 200'000;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 1; i <= kCount; ++i) ring.push(i);
    done.store(true, std::memory_order_release);
  });
  long long sum = 0;
  size_t received = 0;
  std::vector<int> out;
  while (!done.load(std::memory_order_acquire) || !ring.empty()) {
    out.clear();
    ring.drain(out);
    received += out.size();
    for (int v : out) sum += v;
  }
  producer.join();
  EXPECT_EQ(received, static_cast<size_t>(kCount));
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount + 1) / 2);
}

// ------------------------------------------------------- sharded metrics

// The parallel backend keeps one Metrics per shard and folds them at
// report time. This is the regression for the satellite requirement:
// concurrent bumps (each thread on its own instance) must lose no counts.
TEST(ShardedMetrics, ConcurrentPerShardBumpsLoseNoCounts) {
  constexpr int kShards = 8;
  constexpr int kBumps = 100'000;
  std::vector<Metrics> shard(kShards);
  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (int k = 0; k < kShards; ++k) {
    threads.emplace_back([&m = shard[static_cast<size_t>(k)], k] {
      const CounterHandle c = m.counter("test_bumps");
      const HistHandle h = m.histogram("test_lat");
      for (int i = 0; i < kBumps; ++i) {
        m.inc(c);
        if (i % 100 == 0) m.hist(h).add(static_cast<double>(k));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Metrics total;
  for (const Metrics& m : shard) total.merge_from(m);
  EXPECT_EQ(total.get("test_bumps"),
            static_cast<int64_t>(kShards) * kBumps);
  EXPECT_EQ(total.hist("test_lat").count(),
            static_cast<size_t>(kShards) * (kBumps / 100));
}

// ------------------------------------------------------ backend selection

TEST(ParallelRuntime, FactoryPicksBackendByThreads) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 40;
  auto serial = make_runtime(cfg, 1);
  EXPECT_EQ(dynamic_cast<ParallelCluster*>(serial.get()), nullptr);
  cfg.n_threads = 4;
  auto parallel = make_runtime(cfg, 1);
  ASSERT_NE(dynamic_cast<ParallelCluster*>(parallel.get()), nullptr);
  // The parallel backend forces keyed (site-ordered) event execution.
  EXPECT_TRUE(parallel->config().site_ordered_events);
  EXPECT_EQ(parallel->config().shard_count(), 4);
}

TEST(ParallelRuntime, WorkloadCommitsAndConverges) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 80;
  cfg.replication_degree = 3;
  cfg.n_threads = 4;
  auto rt = make_runtime(cfg, 7);
  rt->bootstrap();
  RunnerParams rp;
  rp.duration = 1'500'000;
  Runner runner(*rt, rp, 7);
  const RunnerStats stats = runner.run();
  EXPECT_GT(stats.committed, 0);
  std::string why;
  EXPECT_TRUE(rt->replicas_converged(&why)) << why;
}

TEST(ParallelRuntime, CrashRecoverRunsRecoveryProtocol) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 60;
  cfg.replication_degree = 3;
  cfg.n_threads = 4;
  auto rt = make_runtime(cfg, 11);
  rt->bootstrap();
  RunnerParams rp;
  rp.duration = 2'000'000;
  rp.schedule.push_back({400'000, FailureEvent::What::kCrash, 2});
  rp.schedule.push_back({1'100'000, FailureEvent::What::kRecover, 2});
  Runner runner(*rt, rp, 11);
  const RunnerStats stats = runner.run();
  EXPECT_GT(stats.committed, 0);
  const RecoveryEpisode ep = rt->episodes().latest(2);
  EXPECT_EQ(ep.site, 2);
  EXPECT_NE(ep.reboot_at, kNoTime);
  EXPECT_TRUE(ep.complete);
  std::string why;
  EXPECT_TRUE(rt->replicas_converged(&why)) << why;
}

TEST(ParallelRuntime, PerfScalarsIncludeCommitsPerSec) {
  for (int threads : {1, 4}) {
    Config cfg;
    cfg.n_sites = 8;
    cfg.n_items = 40;
    cfg.n_threads = threads;
    auto rt = make_runtime(cfg, 3);
    rt->bootstrap();
    RunnerParams rp;
    rp.duration = 300'000;
    Runner runner(*rt, rp, 3);
    runner.run();
    RunReport report("test");
    RunReport::Run& run = rt->report_run(report, "perf");
    rt->add_perf_scalars(run);
    bool has_commits_per_sec = false;
    bool has_events_per_sec = false;
    for (const auto& [name, value] : run.scalars) {
      if (name == "commits_per_sec") has_commits_per_sec = true;
      if (name == "events_per_sec") has_events_per_sec = true;
    }
    EXPECT_TRUE(has_commits_per_sec) << threads << " threads";
    EXPECT_TRUE(has_events_per_sec) << threads << " threads";
  }
}

// A transaction whose origin crashes mid-flight never finishes -- the
// crash drops its coordinator, so the done callback never fires. run_txn
// must report the outcome as unknown (kTimeout), not as an abort with
// reason kOk.
TEST(ParallelRuntime, RunTxnLostToOriginCrashReportsTimeout) {
  for (int threads : {1, 2}) {
    Config cfg;
    cfg.n_sites = 4;
    cfg.n_items = 30;
    cfg.replication_degree = 3;
    cfg.n_threads = threads;
    auto rt = make_runtime(cfg, 5);
    rt->bootstrap();
    rt->crash_site_at(rt->now() + 600, 0);
    const TxnResult res =
        rt->run_txn(0, {{OpKind::kWrite, 1, 7}, {OpKind::kWrite, 2, 8}});
    EXPECT_FALSE(res.committed) << threads << " threads";
    EXPECT_EQ(res.reason, Code::kTimeout)
        << threads << " threads: " << to_string(res.reason);
  }
}

// ------------------------------------------------- direct differential

// The DES twin of a parallel config: same shard map and event order,
// executed on one thread.
Config des_twin(Config cfg) {
  cfg.workload_shards = cfg.shard_count();
  cfg.n_threads = 1;
  cfg.site_ordered_events = true;
  return cfg;
}

struct ScenarioDigest {
  std::string txns;        // one line per txn: verdict + reads
  std::string final_state; // (item, site, value, version, unreadable)
  std::string sessions;    // per-site NS vector + actual session
  bool converged = false;

  friend bool operator==(const ScenarioDigest&, const ScenarioDigest&) =
      default;
};

// Every hosted copy as (item, site, value, version, unreadable).
std::string final_state(ClusterRuntime& c) {
  std::ostringstream fs;
  for (ItemId x = 0; x < c.config().n_items; ++x) {
    for (SiteId s : c.catalog().sites_of(x)) {
      const Copy* copy = c.site(s).stable().kv().find(x);
      if (copy != nullptr) {
        fs << x << "@" << s << "=" << copy->value << "/"
           << copy->version.counter << "/" << copy->unreadable << "\n";
      }
    }
  }
  return fs.str();
}

ScenarioDigest run_scenario(const Config& cfg, uint64_t seed) {
  auto rt = make_runtime(cfg, seed);
  ClusterRuntime& c = *rt;
  c.bootstrap();
  std::ostringstream txns;
  auto digest_txn = [&](SiteId origin, std::vector<LogicalOp> ops) {
    const TxnResult res = c.run_txn(origin, std::move(ops));
    txns << (res.committed ? "C" : "A") << static_cast<int>(res.reason);
    for (Value v : res.reads) txns << "," << v;
    txns << "\n";
    c.settle();
  };

  // Healthy phase.
  for (ItemId x = 0; x < 12; ++x) {
    digest_txn(x % cfg.n_sites,
               {{OpKind::kWrite, x % cfg.n_items, 100 + static_cast<Value>(x)},
                {OpKind::kRead, (x + 5) % cfg.n_items, 0}});
  }
  // Crash / degraded phase.
  c.crash_site(2);
  c.run_until(c.now() + 500'000);
  for (ItemId x = 0; x < 12; ++x) {
    const SiteId origin = x % cfg.n_sites == 2 ? 0 : x % cfg.n_sites;
    digest_txn(origin,
               {{OpKind::kWrite, (2 * x) % cfg.n_items,
                 300 + static_cast<Value>(x)},
                {OpKind::kRead, (2 * x + 1) % cfg.n_items, 0}});
  }
  // Recovery phase; read every item at the recovered site so on-demand
  // refreshes all run before convergence is judged.
  c.recover_site(2);
  c.settle();
  for (ItemId x = 0; x < cfg.n_items; ++x) {
    digest_txn(2, {{OpKind::kRead, x, 0}});
  }
  c.settle();

  ScenarioDigest d;
  d.txns = txns.str();
  d.final_state = final_state(c);
  std::ostringstream ss;
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    ss << s << ": as=" << c.site(s).state().session << " ns=";
    for (SessionNum n : peek_ns_vector(c.site(s).stable().kv(),
                                       cfg.n_sites)) {
      ss << n << ",";
    }
    ss << "\n";
  }
  d.sessions = ss.str();
  d.converged = c.replicas_converged();
  return d;
}

void expect_backends_identical(Config cfg, uint64_t seed) {
  const ScenarioDigest par = run_scenario(cfg, seed);
  const ScenarioDigest des = run_scenario(des_twin(cfg), seed);
  EXPECT_EQ(par.txns, des.txns);
  EXPECT_EQ(par.final_state, des.final_state);
  EXPECT_EQ(par.sessions, des.sessions);
  EXPECT_EQ(par.converged, des.converged);
  EXPECT_TRUE(par.converged);
}

TEST(ParallelDifferential, QuiescentCrashRecoveryIdenticalState) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 24;
  cfg.replication_degree = 3;
  cfg.n_threads = 4;
  expect_backends_identical(cfg, 21);
}

TEST(ParallelDifferential, SpoolerSchemeIdenticalState) {
  Config cfg;
  cfg.n_sites = 6;
  cfg.n_items = 24;
  cfg.replication_degree = 3;
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  cfg.n_threads = 3;
  expect_backends_identical(cfg, 22);
}

TEST(ParallelDifferential, OnDemandRedirectIdenticalState) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 24;
  cfg.replication_degree = 3;
  cfg.outdated_strategy = OutdatedStrategy::kMissingList;
  cfg.copier_mode = CopierMode::kOnDemand;
  cfg.unreadable_policy = UnreadablePolicy::kRedirect;
  cfg.n_threads = 4;
  expect_backends_identical(cfg, 23);
}

// The DES <-> parallel byte-identity contract must survive the durable
// engine: disk completions are ordinary lane events minted through the
// ambient context, so journaling, checkpoints and multi-event reboot
// replay reorder nothing across backends.
TEST(ParallelDifferential, DurableEngineIdenticalState) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 24;
  cfg.replication_degree = 3;
  cfg.storage_engine = StorageEngineKind::kDurable;
  cfg.checkpoint_interval = 64; // checkpoints fire mid-scenario
  cfg.n_threads = 4;
  expect_backends_identical(cfg, 24);
}

// ----------------------------------------------- run-report differential

// Sees whether some site ran a type-2 control transaction declaring a
// site of another shard down.
struct CrossShardType2 final : TraceSink {
  explicit CrossShardType2(const Config& cfg) : cfg(cfg) {}
  void on_trace(const TraceEvent& e) override {
    if (e.kind == TraceKind::kControlDownStart &&
        cfg.shard_of(e.site) != cfg.shard_of(static_cast<SiteId>(e.a))) {
      seen = true;
    }
  }
  const Config& cfg;
  bool seen = false;
};

std::string run_report_json(ClusterRuntime& rt,
                            const std::vector<FailureEvent>& schedule,
                            uint64_t seed) {
  rt.bootstrap();
  RunnerParams rp;
  rp.duration = 1'500'000;
  rp.schedule = schedule;
  Runner runner(rt, rp, seed);
  runner.run();
  rt.settle();
  RunReport report("differential");
  // The thread count in the config echo is the one intended difference.
  rt.report_run(report, "run").cfg.n_threads = 1;
  return report.to_json();
}

// The whole run report -- counters, recovery episodes and the
// time series -- is byte-identical across backends. Episodes cross
// shards: a site crashes on one shard while a site of another shard runs
// its type-2, so they must be folded once, in the DES's order.
TEST(ParallelDifferential, RunReportByteIdentical) {
  using W = FailureEvent::What;
  const std::vector<std::vector<FailureEvent>> schedules = {
      // Two overlapping recoveries on different shards.
      {{200'000, W::kCrash, 1},
       {260'000, W::kCrash, 6},
       {700'000, W::kRecover, 6},
       {760'000, W::kRecover, 1}},
      // One clean crash/recover cycle.
      {{300'000, W::kCrash, 3}, {900'000, W::kRecover, 3}},
      // A second crash while the first recovery is still in flight.
      {{150'000, W::kCrash, 5},
       {500'000, W::kRecover, 5},
       {520'000, W::kCrash, 5},
       {1'000'000, W::kRecover, 5}},
  };
  bool cross_shard_type2 = false;
  for (int k : {2, 4}) {
    for (size_t i = 0; i < schedules.size(); ++i) {
      Config cfg;
      cfg.n_sites = 8;
      cfg.n_items = 80;
      cfg.replication_degree = 3;
      cfg.n_threads = k;
      cfg.workload_shards = k;
      ParallelCluster par(cfg, 11);
      Cluster des(des_twin(cfg), 11);
      CrossShardType2 probe(des.config());
      des.tracer().add_sink(&probe);
      const std::string par_json = run_report_json(par, schedules[i], 11);
      const std::string des_json = run_report_json(des, schedules[i], 11);
      EXPECT_EQ(par_json, des_json) << "K=" << k << ", schedule " << i;
      EXPECT_FALSE(des.episodes().episodes().empty());
      cross_shard_type2 = cross_shard_type2 || probe.seen;
    }
  }
  EXPECT_TRUE(cross_shard_type2);
}

// ----------------------------------------------- explorer differential

// Whole nemesis runs, judged by the invariant oracles, must replay
// byte-for-byte across backends: render_report is a deterministic
// function of the execution, so report equality is execution equality.
void expect_reports_identical(Config cfg, const Schedule& schedule,
                              uint64_t seed) {
  ExploreOptions opts;
  opts.cfg = cfg;
  opts.horizon = 1'200'000;
  const ExploreRunResult par = run_schedule(opts, schedule, seed);
  opts.cfg = des_twin(cfg);
  const ExploreRunResult des = run_schedule(opts, schedule, seed);
  EXPECT_EQ(par.report, des.report);
  EXPECT_EQ(par.violated, des.violated);
  EXPECT_FALSE(par.violated) << par.report;
}

Config explorer_cfg() {
  Config cfg;
  cfg.n_sites = 6;
  cfg.n_items = 40;
  cfg.replication_degree = 3;
  cfg.n_threads = 3;
  return cfg;
}

TEST(ParallelDifferential, ExplorerCrashRebootReportByteIdentical) {
  const Schedule schedule = {
      {200'000, NemesisKind::kCrash, 1, 0, 0.0, 1.0},
      {700'000, NemesisKind::kReboot, 1, 0, 0.0, 1.0},
  };
  expect_reports_identical(explorer_cfg(), schedule, 31);
}

TEST(ParallelDifferential, ExplorerFaultMixReportByteIdentical) {
  const Schedule schedule = {
      {100'000, NemesisKind::kDropBurst, kInvalidSite, 200'000, 0.15, 1.0},
      {300'000, NemesisKind::kLatencySkew, 4, 250'000, 0.0, 3.0},
      {450'000, NemesisKind::kCrash, 2, 0, 0.0, 1.0},
      {900'000, NemesisKind::kReboot, 2, 0, 0.0, 1.0},
  };
  expect_reports_identical(explorer_cfg(), schedule, 33);
}

TEST(ParallelDifferential, ExplorerPartitionReportByteIdentical) {
  const Schedule schedule = {
      {150'000, NemesisKind::kPartition, 3, 0, 0.0, 1.0},
      {650'000, NemesisKind::kHeal, kInvalidSite, 0, 0.0, 1.0},
  };
  expect_reports_identical(explorer_cfg(), schedule, 35);
}

TEST(ParallelDifferential, ExplorerDurableCrashRebootReportByteIdentical) {
  Config cfg = explorer_cfg();
  cfg.storage_engine = StorageEngineKind::kDurable;
  cfg.checkpoint_interval = 64;
  const Schedule schedule = {
      {200'000, NemesisKind::kCrash, 1, 0, 0.0, 1.0},
      {700'000, NemesisKind::kReboot, 1, 0, 0.0, 1.0},
  };
  expect_reports_identical(cfg, schedule, 39);
}

TEST(ParallelDifferential, ExplorerSpoolerReportByteIdentical) {
  Config cfg = explorer_cfg();
  cfg.recovery_scheme = RecoveryScheme::kSpooler;
  const Schedule schedule = {
      {200'000, NemesisKind::kCrash, 1, 0, 0.0, 1.0},
      {700'000, NemesisKind::kReboot, 1, 0, 0.0, 1.0},
  };
  expect_reports_identical(cfg, schedule, 37);
}

// A planted protocol bug must be caught -- or missed -- identically on
// both backends: the same report bytes and the same violated oracles.
TEST(ParallelDifferential, PlantedBugVerdictsAgreeAcrossBackends) {
  Config cfg = explorer_cfg();
  ASSERT_TRUE(parse_enum("skip-mark", &cfg.planted_bug));
  const Schedule schedule = {
      {200'000, NemesisKind::kCrash, 1, 0, 0.0, 1.0},
      {600'000, NemesisKind::kReboot, 1, 0, 0.0, 1.0},
  };
  ExploreOptions opts;
  opts.cfg = cfg;
  opts.horizon = 1'200'000;
  const ExploreRunResult par = run_schedule(opts, schedule, 41);
  opts.cfg = des_twin(cfg);
  const ExploreRunResult des = run_schedule(opts, schedule, 41);
  EXPECT_EQ(par.report, des.report);
  EXPECT_EQ(par.violated, des.violated);
  std::set<std::string> par_oracles, des_oracles;
  for (const Violation& v : par.violations) par_oracles.insert(v.oracle);
  for (const Violation& v : des.violations) des_oracles.insert(v.oracle);
  EXPECT_EQ(par_oracles, des_oracles);
}

// ------------------------------------------------------ epoch handoff

using std::chrono::milliseconds;

Config barrier_cfg(int threads) {
  Config cfg;
  cfg.n_sites = 8;
  cfg.n_items = 60;
  cfg.replication_degree = 3;
  cfg.n_threads = threads;
  cfg.workload_shards = threads;
  return cfg;
}

// A crash/recover workload in 20 ms run_until steps with `between` called
// after each; returns the run report and the final replica state.
std::string stepped_run(ClusterRuntime& rt,
                        const std::function<void()>& between) {
  using W = FailureEvent::What;
  rt.bootstrap();
  RunnerParams rp;
  rp.duration = 600'000;
  rp.schedule = {{150'000, W::kCrash, 1}, {350'000, W::kRecover, 1}};
  rp.stop_poll = 20'000;
  rp.stop_check = [&between] {
    between();
    return false;
  };
  Runner runner(rt, rp, 13);
  runner.run();
  rt.settle();
  RunReport report("stepped");
  // The thread count in the config echo is the one intended difference.
  rt.report_run(report, "run").cfg.n_threads = 1;
  return report.to_json() + final_state(rt);
}

// Between run_until steps the workers outlast the spin and yield stages
// and park; each next step must wake them and run the same execution as
// the DES twin.
TEST(ParallelRuntime, IdleGapsParkAndResume) {
  const auto gap = 3 * ParallelCluster::kYieldFor;
  for (int k : {2, 3, 4}) {
    ParallelCluster par(barrier_cfg(k), 13);
    Cluster des(des_twin(barrier_cfg(k)), 13);
    const std::string par_run =
        stepped_run(par, [gap] { std::this_thread::sleep_for(gap); });
    const std::string des_run = stepped_run(des, [] {});
    EXPECT_EQ(par_run, des_run) << k << " threads";
  }
}

// Destroying the cluster must wake and join its workers whichever wait
// stage they are in: spinning right after run_until, yielding a fraction
// of kYieldFor later, or parked.
TEST(ParallelRuntime, TeardownAtEveryBarrierStage) {
  const std::chrono::microseconds stage_delay[] = {
      std::chrono::microseconds(0), ParallelCluster::kYieldFor / 4,
      3 * ParallelCluster::kYieldFor};
  for (int i = 0; i < 99; ++i) {
    Config cfg = barrier_cfg(2 + i % 3);
    cfg.n_sites = 4;
    cfg.n_items = 20;
    auto rt = std::make_unique<ParallelCluster>(cfg, 1 + i);
    rt->bootstrap();
    rt->run_txn(0, {{OpKind::kWrite, 1, i}, {OpKind::kRead, 2, 0}});
    std::this_thread::sleep_for(stage_delay[(i / 3) % 3]);
    rt.reset();
  }
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Outside run_until the workers must sleep, not spin: once they are
// parked the whole process burns (almost) no CPU.
TEST(ParallelRuntime, WorkersIdleOutsideRunUntil) {
  ParallelCluster rt(barrier_cfg(4), 5);
  rt.bootstrap();
  RunnerParams rp;
  rp.duration = 300'000;
  Runner runner(rt, rp, 5);
  EXPECT_GT(runner.run().committed, 0);
  std::this_thread::sleep_for(milliseconds(20));
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(milliseconds(100));
  const double burnt = process_cpu_ms() - before;
  EXPECT_LT(burnt, 10.0) << "ms of CPU in 100 ms idle";
}

} // namespace
} // namespace ddbs
