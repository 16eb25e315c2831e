// Substrate microbenchmarks (google-benchmark): the hot paths underneath
// the protocol -- lock manager, event queue, missing list, Zipf sampling,
// history checking -- plus an end-to-end simulated-transaction benchmark
// that reports how fast the whole DES executes on the host.
#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/report.h"
#include "core/cluster.h"
#include "net/rpc.h"
#include "recovery/status_tables.h"
#include "sim/event_queue.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "verify/one_sr_checker.h"
#include "workload/workload_gen.h"

namespace ddbs {
namespace {

void BM_LockManager_UncontendedAcquireRelease(benchmark::State& state) {
  LockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    for (ItemId i = 0; i < 16; ++i) {
      lm.acquire(txn, i, LockMode::kExclusive, []() {});
    }
    lm.release_all(txn);
    ++txn;
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_LockManager_UncontendedAcquireRelease);

void BM_LockManager_SharedFanIn(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LockManager lm;
    for (int r = 0; r < readers; ++r) {
      lm.acquire(static_cast<TxnId>(r + 1), 7, LockMode::kShared, []() {});
    }
    for (int r = 0; r < readers; ++r) {
      lm.release_all(static_cast<TxnId>(r + 1));
    }
  }
  state.SetItemsProcessed(state.iterations() * readers);
}
BENCHMARK(BM_LockManager_SharedFanIn)->Arg(8)->Arg(64)->Arg(512);

// Exclusive convoy: every release hands the lock to the next queued
// waiter, so the grant/pump path dominates.
void BM_LockManager_ContendedHandoff(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LockManager lm;
    lm.acquire(1, 3, LockMode::kExclusive, []() {});
    for (int w = 0; w < waiters; ++w) {
      lm.acquire(static_cast<TxnId>(w + 2), 3, LockMode::kExclusive,
                 []() {});
    }
    for (int w = 0; w <= waiters; ++w) {
      lm.release_all(static_cast<TxnId>(w + 1));
    }
  }
  state.SetItemsProcessed(state.iterations() * (waiters + 1));
}
BENCHMARK(BM_LockManager_ContendedHandoff)->Arg(8)->Arg(64);

// Lock-timeout churn: a deep waiter queue cancelled one request at a
// time. Regression guard for the old deque scan, which made each cancel
// O(queue depth).
void BM_LockManager_CancelChurn(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  std::vector<LockManager::RequestId> rids(
      static_cast<size_t>(waiters));
  for (auto _ : state) {
    LockManager lm;
    lm.acquire(1, 3, LockMode::kExclusive, []() {});
    for (int w = 0; w < waiters; ++w) {
      rids[static_cast<size_t>(w)] = lm.acquire(
          static_cast<TxnId>(w + 2), 3, LockMode::kExclusive, []() {});
    }
    // Middle-out order so unlinks hit interior queue nodes, not just ends.
    for (int w = 0; w < waiters; w += 2) {
      lm.cancel(rids[static_cast<size_t>(w)]);
    }
    for (int w = 1; w < waiters; w += 2) {
      lm.cancel(rids[static_cast<size_t>(w)]);
    }
    lm.release_all(1);
  }
  state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_LockManager_CancelChurn)->Arg(8)->Arg(64)->Arg(512);

// One transaction releasing exclusive locks on many items at once, each
// with a successor waiting -- the shape of a large commit under load.
void BM_LockManager_ReleaseFanOut(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LockManager lm;
    for (int i = 0; i < items; ++i) {
      lm.acquire(1, static_cast<ItemId>(i), LockMode::kExclusive, []() {});
    }
    for (int i = 0; i < items; ++i) {
      lm.acquire(static_cast<TxnId>(100 + i), static_cast<ItemId>(i),
                 LockMode::kExclusive, []() {});
    }
    lm.release_all(1);
    for (int i = 0; i < items; ++i) {
      lm.release_all(static_cast<TxnId>(100 + i));
    }
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_LockManager_ReleaseFanOut)->Arg(16)->Arg(128);

// The deadlock detector's edge harvest over a steadily contended table.
void BM_LockManager_WaitEdges(benchmark::State& state) {
  LockManager lm;
  for (int i = 0; i < 32; ++i) {
    lm.acquire(static_cast<TxnId>(i + 1), static_cast<ItemId>(i),
               LockMode::kShared, []() {});
    lm.acquire(static_cast<TxnId>(100 + i), static_cast<ItemId>(i),
               LockMode::kExclusive, []() {});
    lm.acquire(static_cast<TxnId>(200 + i), static_cast<ItemId>(i),
               LockMode::kShared, []() {});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.wait_edges());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_LockManager_WaitEdges);

void BM_EventQueue_PushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.push((i * 37) % 1000, []() {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueue_PushPop)->Arg(64)->Arg(1024);

// Steady-state churn: a rolling window of pushes, cancels (timer resets)
// and pops, the way the protocol actually uses the queue.
void BM_EventQueue_PushCancelChurn(benchmark::State& state) {
  EventQueue q;
  SimTime t = 0;
  for (auto _ : state) {
    EventId ids[8];
    for (int i = 0; i < 8; ++i) {
      ids[i] = q.push(t + (i * 13) % 50, []() {});
    }
    for (int i = 0; i < 8; i += 2) q.cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
    t += 50;
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_EventQueue_PushCancelChurn);

// The RPC pattern behind most simulator events: arm a 220 ms backstop
// timeout, deliver the response ~2 ms later, cancel the timeout, send the
// next request. 1.5k requests in flight keep about 3k events live; the
// timeouts never fire. One iteration is one response.
class RpcChurn {
 public:
  static constexpr SimTime kTimeout = 220'000;
  static constexpr int kInFlight = 1'500;

  RpcChurn() : timer_(kInFlight) {
    for (int i = 0; i < kInFlight; ++i) send(i);
  }
  // Queued callbacks hold `this`.
  RpcChurn(const RpcChurn&) = delete;
  RpcChurn& operator=(const RpcChurn&) = delete;
  void step() {
    EventQueue::Fired f = q_.pop();
    now_ = f.time;
    f.fn();
  }
  size_t live() const { return q_.size(); }

 private:
  void send(int i) {
    timer_[static_cast<size_t>(i)] = q_.push_timer(now_ + kTimeout, kTimeout,
                                                   []() {});
    lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
    const SimTime rtt = 1'500 + static_cast<SimTime>((lcg_ >> 33) % 1'000);
    q_.push(now_ + rtt, [this, i]() {
      q_.cancel(timer_[static_cast<size_t>(i)]);
      send(i);
    });
  }

  EventQueue q_;
  std::vector<EventId> timer_;
  SimTime now_ = 0;
  uint64_t lcg_ = 1;
};

void BM_EventQueue_TimeoutChurn(benchmark::State& state) {
  RpcChurn rpcs;
  for (auto _ : state) rpcs.step();
  benchmark::DoNotOptimize(rpcs.live());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue_TimeoutChurn);

// One envelope through the transport: send() -> latency event -> handler.
void BM_Network_SendDeliver(benchmark::State& state) {
  Config cfg;
  Scheduler sched;
  Network net({&sched}, std::vector<int>(static_cast<size_t>(cfg.n_sites)),
              cfg, 3);
  uint64_t delivered = 0;
  net.register_site(0, [](const Envelope&) {});
  net.register_site(1, [&delivered](const Envelope&) { ++delivered; });
  net.set_alive(0, true);
  net.set_alive(1, true);
  for (auto _ : state) {
    Envelope env;
    env.from = 0;
    env.to = 1;
    env.payload = Ping{};
    net.send(std::move(env));
    sched.run_all();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Network_SendDeliver);

// Full RPC round-trip: request out, correlation, response back, timeout
// armed and cancelled -- the per-operation cost under every protocol step.
void BM_Rpc_RequestResponse(benchmark::State& state) {
  Config cfg;
  Scheduler sched;
  Network net({&sched}, std::vector<int>(static_cast<size_t>(cfg.n_sites)),
              cfg, 4);
  RpcEndpoint a(0, net, sched);
  RpcEndpoint b(1, net, sched);
  a.start([](const Envelope&) {});
  b.start([&b](const Envelope& env) { b.respond(env, AckResp{}); });
  net.set_alive(0, true);
  net.set_alive(1, true);
  uint64_t completed = 0;
  for (auto _ : state) {
    a.send_request(1, Ping{}, 1'000'000,
                   [&completed](Code, const Payload*) { ++completed; });
    sched.run_all();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rpc_RequestResponse);

// A WAL that has been running for a while: `backlog` resolved txns
// already in the log, a small window of live prepares on top. Via the
// open-prepare index, in_doubt() costs O(live prepares) no matter how
// deep the backlog (the timing must stay flat across Args), and
// truncate_resolved() finds its survivors in O(live) -- what remains is
// only the unavoidable O(dropped) cost of freeing the dropped records.
// Before the index both rescanned (and re-matched) the full log.
Wal synthetic_wal(int backlog, int live) {
  Wal wal;
  auto prepare = [](TxnId txn, int i) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kPrepare;
    rec.txn = txn;
    WalWrite w;
    w.item = static_cast<ItemId>(i % 64);
    w.value = 1;
    rec.writes.push_back(std::move(w));
    return rec;
  };
  for (int i = 0; i < backlog; ++i) {
    const TxnId txn = static_cast<TxnId>(i + 1);
    wal.append(prepare(txn, i));
    WalRecord res;
    res.kind =
        i % 3 == 0 ? WalRecord::Kind::kAbort : WalRecord::Kind::kCommit;
    res.txn = txn;
    wal.append(std::move(res));
  }
  for (int i = 0; i < live; ++i) {
    wal.append(prepare(static_cast<TxnId>(backlog + i + 1), i));
  }
  return wal;
}

void BM_Wal_InDoubt(benchmark::State& state) {
  const Wal wal = synthetic_wal(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.in_doubt());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Wal_InDoubt)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Wal_TruncateResolved(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Wal wal = synthetic_wal(backlog, 8);
    state.ResumeTiming();
    wal.truncate_resolved();
    benchmark::DoNotOptimize(wal.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Wal_TruncateResolved)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MissingList_AddRemove(benchmark::State& state) {
  StatusTable t;
  int64_t i = 0;
  for (auto _ : state) {
    t.ml_add(i % 500, static_cast<SiteId>(i % 7));
    t.ml_remove((i + 250) % 500, static_cast<SiteId>(i % 7));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MissingList_AddRemove);

// Latency samples with a long right tail, the shape commit latency and
// lock waits actually have. Pre-generated so the benchmarks time the
// histogram, not the RNG.
std::vector<double> latency_samples(size_t n) {
  Rng rng(17);
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = 50.0 + static_cast<double>(rng.uniform(0, 999));
    if (rng.uniform(0, 99) < 5) x *= 100.0; // 5% tail out to ~100ms
    v.push_back(x);
  }
  return v;
}

// Recording cost: log-bucketed Histogram (bounded memory, O(1) add)
// vs the raw-sample ExactSamples it replaced on the metrics hot path.
void BM_Histogram_Add(benchmark::State& state) {
  const auto samples = latency_samples(4096);
  Histogram h;
  size_t i = 0;
  for (auto _ : state) {
    h.add(samples[i++ & 4095]);
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Histogram_Add);

void BM_ExactSamples_Add(benchmark::State& state) {
  const auto samples = latency_samples(4096);
  ExactSamples h;
  size_t i = 0;
  for (auto _ : state) {
    h.add(samples[i++ & 4095]);
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSamples_Add);

// Quantile extraction at report time: bucket interpolation over a fixed
// bucket array vs nth_element over every raw sample ever recorded.
void BM_Histogram_Percentile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto samples = latency_samples(static_cast<size_t>(n));
  Histogram h;
  for (double v : samples) h.add(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Histogram_Percentile)->Arg(1024)->Arg(65536);

void BM_ExactSamples_Percentile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto samples = latency_samples(static_cast<size_t>(n));
  ExactSamples h;
  for (double v : samples) h.add(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSamples_Percentile)->Arg(1024)->Arg(65536);

// Shard merge at report time: bucket-wise addition of K shard-local
// histograms, the path the parallel backend takes every report.
void BM_Histogram_ShardMerge(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const auto samples = latency_samples(8192);
  std::vector<Histogram> shard(static_cast<size_t>(shards));
  for (size_t i = 0; i < samples.size(); ++i) {
    shard[i % static_cast<size_t>(shards)].add(samples[i]);
  }
  for (auto _ : state) {
    Histogram merged;
    for (const Histogram& s : shard) merged.add_all(s);
    benchmark::DoNotOptimize(merged.percentile(99.0));
  }
  state.SetItemsProcessed(state.iterations() * shards);
}
BENCHMARK(BM_Histogram_ShardMerge)->Arg(4)->Arg(16);

void BM_Zipf_Sample(benchmark::State& state) {
  Rng rng(1);
  ZipfGen zipf(100'000, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Zipf_Sample);

History synthetic_history(size_t txns) {
  History h;
  Rng rng(9);
  for (size_t i = 1; i <= txns; ++i) {
    TxnRecord t;
    t.txn = i;
    t.kind = TxnKind::kUser;
    t.commit_time = static_cast<SimTime>(i);
    const ItemId item = static_cast<ItemId>(rng.uniform(0, 63));
    if (i > 1) {
      t.reads.push_back(ReadEvent{0, item, 0, 0});
    }
    t.writes.push_back(WriteEvent{0, item, i, static_cast<Value>(i), false});
    t.writes.push_back(WriteEvent{1, item, i, static_cast<Value>(i), false});
    h.txns.push_back(std::move(t));
  }
  return h;
}

void BM_OneSrGraphCheck(benchmark::State& state) {
  const History h = synthetic_history(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_one_sr_graph(h));
  }
}
BENCHMARK(BM_OneSrGraphCheck)->Arg(100)->Arg(1000);

void BM_EndToEnd_SimulatedTxn(benchmark::State& state) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 100;
  cfg.replication_degree = 3;
  cfg.record_history = false;
  Cluster cluster(cfg, 5);
  cluster.bootstrap();
  WorkloadParams wp;
  wp.ops_per_txn = 3;
  WorkloadGen gen(cfg, wp, 5);
  SiteId origin = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.run_txn(origin, gen.next()));
    origin = static_cast<SiteId>((origin + 1) % 4);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("simulated distributed txns per wall-clock second");
}
BENCHMARK(BM_EndToEnd_SimulatedTxn);

} // namespace
} // namespace ddbs

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark
// suite runs, drive one small crash+recover cluster so the JSON run
// report carries a genuine recovery timeline alongside the counters.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace ddbs;
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 100;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, 5);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 300'000);
  for (ItemId x = 0; x < 40; ++x) {
    auto r = cluster.run_txn(0, {{OpKind::kWrite, x, 5}});
    if (!r.committed) --x;
  }
  cluster.recover_site(2);
  cluster.settle();

  RunReport report("micro");
  RunReport::Run& run = cluster.report_run(report, "crash_recover_probe");
  run.scalars.emplace_back(
      "unreadable_left",
      static_cast<double>(cluster.site(2).stable().kv().unreadable_count()));
  cluster.add_perf_scalars(run);
  report.write();
  return 0;
}
