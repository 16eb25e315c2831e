// The running replicated DDBS, independent of how its events execute.
// Two backends derive from ClusterRuntime and supply only the event loop:
//
//   - Cluster          the classic single-threaded deterministic DES; the
//                      testing and repro substrate.
//   - ParallelCluster  site shards on worker threads with SPSC mailbox
//                      rings and conservative epoch windows; the raw-speed
//                      backend (core/parallel_cluster.h).
//
// Everything else is written once here: the config, sites, network,
// catalog, history recorder and online verifier, the recovery-episode and
// time-series folds, the workload and failure-injection drivers, and every
// report and export. Per-thread state lives in shards -- a Scheduler,
// Metrics and Tracer (the event ring) each. Cluster has one shard;
// ParallelCluster has Config::shard_count(), and site s runs on shard
// cfg.shard_of(s).
//
// Runner, sweep, soak and the adversarial explorer drive this class only,
// so every workload and every oracle runs unchanged on either backend;
// make_runtime picks by Config::n_threads. Under
// Config::site_ordered_events the two backends execute identical per-site
// event sequences, so runs agree on final KV state, session vectors,
// verifier verdicts and the whole run report
// (tests/test_parallel_differential.cpp).
//
// Threading contract: every method here must be called from OUTSIDE the
// simulation (the driving thread) or from inside a simulation event. The
// parallel backend's methods are safe in both positions because the
// driving thread calls them only between windows, with the shard workers
// parked.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/report.h"
#include "common/timeseries.h"
#include "core/site.h"
#include "net/network.h"
#include "recovery/episode.h"
#include "replication/catalog.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "verify/history.h"

namespace ddbs {

class OnlineVerifier;

class ClusterRuntime {
 public:
  virtual ~ClusterRuntime();
  // Sites and shard threads hold this runtime's address.
  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // ---- identity & shared components ----
  const Config& config() const { return cfg_; }
  int n_sites() const { return cfg_.n_sites; }
  bool valid_site(SiteId s) const { return s >= 0 && s < cfg_.n_sites; }
  const Catalog& catalog() const { return cat_; }
  Site& site(SiteId s) { return *sites_[static_cast<size_t>(s)]; }
  const Site& site(SiteId s) const { return *sites_[static_cast<size_t>(s)]; }
  Network& network() { return net_; }
  // Metrics of all shards. With several shards this folds the per-shard
  // instances together on every call -- cheap, but call it at boundaries
  // (reports, assertions), not per event.
  Metrics& metrics();
  HistoryRecorder& history() { return recorder_; }
  const HistoryRecorder& history() const { return recorder_; }
  // Non-null when cfg.online_verify (and record_history) are set.
  OnlineVerifier* online_verifier() { return verifier_.get(); }
  // Recovery episodes and the availability curve, folded from every
  // shard's trace stream in the DES's event order.
  const EpisodeTracker& episodes() const { return episodes_; }
  const TimeSeries& timeseries() const { return series_; }

  // ---- lifecycle & workload ----

  // Bring every site up at t=0 with all data items holding initial_value.
  void bootstrap(Value initial_value = 0);
  // Submit asynchronously; `done` fires when the transaction finishes.
  void submit(SiteId origin, std::vector<LogicalOp> ops,
              CoordinatorBase::DoneFn done);
  // Submit and drive the simulation until this transaction finishes
  // (other scheduled activity advances too), for at most 2 x txn_timeout.
  // A transaction that never finishes -- its origin crashed and took the
  // coordinator with it -- comes back uncommitted with reason kTimeout:
  // its outcome is unknown.
  TxnResult run_txn(SiteId origin, std::vector<LogicalOp> ops);

  // Both are safe under arbitrary (possibly machine-generated) fault
  // schedules: an out-of-range SiteId is rejected with a warning, crashing
  // an already-down site and recovering a site that is not down are
  // no-ops. Returns whether the action was applied.
  bool crash_site(SiteId s);
  bool recover_site(SiteId s);
  void crash_site_at(SimTime t, SiteId s);
  void recover_site_at(SimTime t, SiteId s);

  // ---- time control ----
  virtual SimTime now() const = 0;
  // Clock of the shard owning `s` (== now() on the DES). Workload code
  // timing a per-site interaction must use this: between epoch barriers
  // the shard clocks legitimately diverge within one lookahead window.
  SimTime local_now(SiteId s) const { return shard_of(s).sched.now(); }
  virtual void run_until(SimTime t) = 0;
  // Run until no coordinator, DM context, parked read or recovery remains
  // in flight (periodic detector noise aside) and no reconciliation probe
  // is still due; bounded by max_time.
  void settle(SimTime max_time = 60'000'000);
  // With reconcile_probes on: some operational site is nominally down in
  // the NS copy of an up site that can reach it, so a probe will restart
  // it (one-directional integration after a heal).
  bool probe_pending() const;

  // ---- scheduling (lane discipline in sim/scheduler.h) ----
  // Schedule work in `site`'s context: runs on the owning shard, minted
  // in the site's key lane. The returned id is only valid for cancel()
  // against the same site's shard.
  EventId post(SiteId site, SimTime at, EventFn fn);
  EventId post_after(SiteId site, SimTime delay, EventFn fn) {
    return post(site, local_now(site) + delay, std::move(fn));
  }
  bool cancel(SiteId site, EventId id) {
    return shard_of(site).sched.cancel(id);
  }
  // Schedule a global control action (partition, loss, latency change):
  // runs at a window boundary on the parallel backend, in lane 0 (before
  // any same-time event) on the DES. The callback must only touch
  // cluster-global state (Network knobs, crash/recover) -- never schedule
  // through post()/submit() from inside it.
  virtual void schedule_global(SimTime at, EventFn fn) = 0;

  // ---- reporting & verification ----

  // Append this runtime's state (config echo, non-zero counters, recovery
  // episodes, time series) to `report` as a run labelled
  // `label`. The returned Run can take bench-specific scalars afterwards.
  RunReport::Run& report_run(RunReport& report, std::string label) const;
  // Simulator throughput on the host: events executed by the schedulers
  // divided by wall-clock seconds since this runtime was constructed.
  uint64_t events_executed() const;
  double events_per_sec() const;
  // Append host-perf scalars (events_per_sec, events_executed, wall_ms,
  // commits_per_sec, catalog_bytes) to a report run. Kept separate from
  // report_run(): wall-clock scalars are nondeterministic, and sweep
  // per-run reports must stay bit-identical across serial and parallel
  // execution.
  void add_perf_scalars(RunReport::Run& run) const;
  // True when every copy of every item is identical across its readable
  // (non-marked, up-site) replicas AND no unreadable copy remains at
  // operational sites. Quiescence check for tests.
  bool replicas_converged(std::string* why = nullptr) const;
  // Chrome trace-viewer JSON of the event rings, shard by shard.
  std::string spans_chrome_json() const;

  // ---- live telemetry hooks (common/telemetry.h) ----
  // Pending simulation events attributable to site activity. Excludes
  // lane-0 global control events on the DES and counts undrained
  // mailbox-ring messages on the parallel backend, so the two backends
  // agree at every global barrier time -- the value may appear in the
  // deterministic telemetry JSONL.
  virtual uint64_t pending_site_events() const = 0;
  // The most recent `n` retained ring events, oldest first (shards merged
  // by timestamp). Diagnostic bundles only.
  std::vector<TraceEvent> trace_tail(size_t n) const;

 protected:
  struct Shard {
    explicit Shard(const Config& cfg) : tracer(sched, cfg.trace_capacity) {}
    Scheduler sched;
    Metrics metrics;
    Tracer tracer;
  };

  // With a null `sink` the runtime has one shard. Otherwise sites are
  // split by cfg.shard_of into cfg.shard_count() shards and cross-shard
  // sends go to `sink`.
  ClusterRuntime(Config cfg, uint64_t seed, CrossShardSink* sink);

  // Earliest pending event time across the backend's queues (kNoTime when
  // idle); run_txn steps the loop by it.
  virtual SimTime next_event_time() = 0;

  Shard& shard_of(SiteId s) const {
    return *shards_[static_cast<size_t>(site_shard_[static_cast<size_t>(s)])];
  }
  // Feed one trace event to the episode and time-series folds.
  void fold_trace(const TraceEvent& e) {
    episodes_.on_trace(e);
    series_.on_trace(e);
  }

  Config cfg_;
  std::vector<int> site_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  EpisodeTracker episodes_;
  TimeSeries series_;

 private:
  static std::vector<std::unique_ptr<Shard>> make_shards(const Config& cfg,
                                                         int n);

  std::chrono::steady_clock::time_point wall_start_ =
      std::chrono::steady_clock::now();
  HistoryRecorder recorder_;
  std::unique_ptr<OnlineVerifier> verifier_;
  Network net_;
  Catalog cat_;
  std::vector<std::unique_ptr<Site>> sites_;
  // Aggregated-metrics cache rebuilt by metrics() when sharded.
  Metrics agg_metrics_;
};

// Construct the backend selected by cfg.n_threads: Cluster when 1,
// ParallelCluster when > 1 (which forces cfg.site_ordered_events).
std::unique_ptr<ClusterRuntime> make_runtime(const Config& cfg,
                                             uint64_t seed);

} // namespace ddbs
