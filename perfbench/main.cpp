// perfbench: the repo benchmark's workload driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--commit TEXT]
//
// Runs one named workload through the library's public API only (make_runtime,
// Runner, crash/recover, run_until, settle, metrics, network, report_run,
// history, online_verifier, tracer sinks), repeating the same seeded
// repetition ("rep") until S wall seconds have been measured. Every rep
// passes a correctness gate and all reps of one run must agree on their
// deterministic counters. The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. perfbench/README.md explains
// the workloads, the metrics and how to read a traced run.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/cluster.h"
#include "core/runtime.h"
#include "host_probe.h"
#include "spans.h"
#include "stats.h"
#include "verify/online_verifier.h"
#include "workload/runner.h"

namespace perfbench {
namespace {

using ddbs::ClusterRuntime;
using ddbs::Config;
using ddbs::SimTime;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ------------------------------------------------------------

// Threads of scale-256-par: fixed, so commits_per_s compares across hosts;
// host_cores is echoed next to it. Two, not one per core: each window ends
// at a barrier, so on a shared 4-core host a fourth busy thread makes the
// run wait on whichever core a neighbour holds.
constexpr int kParallelThreads = 2;

struct Workload {
  std::string name;
  Config cfg;
  int clients_per_site = 2;
  ddbs::WorkloadParams mix;
  SimTime duration = 0; // load window, sim us
  SimTime slice = 0;    // run_until slice, sim us
  // Crash rotation: crash site (k * 7) % n_sites at first_crash + k *
  // crash_period, power it back on `outage` later. Period 0 = no faults.
  SimTime crash_period = 0;
  SimTime first_crash = 0;
  SimTime outage = 0;
};

// Every Config field the benchmark relies on, set on purpose (the library
// defaults favour tests: record_history is on by default, for one).
Config base_config(int sites, int64_t items) {
  Config c;
  c.n_sites = sites;
  c.n_items = items;
  c.replication_degree = 3;
  // The data layout is part of the workload, not of the seed: a hot item
  // landing on a different site set would move the churn figures more than
  // the seed-driven transaction stream does.
  c.placement_seed = 42;
  c.n_threads = 1;
  c.workload_shards = 0;
  c.site_ordered_events = false;
  c.write_scheme = ddbs::WriteScheme::kRowaa;
  c.recovery_scheme = ddbs::RecoveryScheme::kSessionVector;
  c.outdated_strategy = ddbs::OutdatedStrategy::kMarkAll;
  c.copier_mode = ddbs::CopierMode::kEager;
  c.msg_loss_prob = 0.0;
  c.detector_interval = 50'000;
  c.user_txn_retry = false;
  c.storage_engine = ddbs::StorageEngineKind::kInMemory;
  c.checkpoint_interval = 2048;
  c.timeseries_bucket = 250'000;
  c.record_history = false;
  c.online_verify = false;
  c.planted_bug = ddbs::PlantedBug::kNone;
  c.planted_stall = false;
  return c;
}

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "oltp-64") {
    w.cfg = base_config(64, 6'400);
    w.clients_per_site = 4;
    w.mix = {3, 0.5, 0.0, 0};
    w.duration = 2'000'000;
    w.slice = 50'000;
  } else if (name == "churn-64") {
    w.cfg = base_config(64, 6'400);
    w.cfg.storage_engine = ddbs::StorageEngineKind::kDurable;
    w.cfg.record_history = true;
    w.cfg.online_verify = true;
    w.clients_per_site = 2;
    w.mix = {3, 0.2, 0.6, 0};
    w.duration = 8'000'000;
    w.slice = 100'000;
    w.first_crash = 500'000;
    w.crash_period = 1'000'000;
    w.outage = 400'000;
  } else if (name == "scale-256-par") {
    w.cfg = base_config(256, 10'240);
    w.cfg.n_threads = kParallelThreads;
    w.cfg.site_ordered_events = true;
    w.clients_per_site = 2;
    w.mix = {2, 0.7, 0.0, 0};
    w.duration = 600'000;
    w.slice = 25'000;
  } else {
    return std::nullopt;
  }
  return w;
}

// The scale workload's single-threaded twin: same shard map for workload
// decisions and site-keyed event order, so it runs the same trajectory.
Workload des_twin(const Workload& w) {
  Workload t = w;
  t.cfg.n_threads = 1;
  t.cfg.workload_shards = w.cfg.n_threads;
  t.cfg.site_ordered_events = true;
  return t;
}

struct FaultAction {
  SimTime at;
  bool crash;
  ddbs::SiteId site;
};

std::vector<FaultAction> fault_plan(const Workload& w) {
  std::vector<FaultAction> plan;
  if (w.crash_period <= 0) return plan;
  // Every site is back on before the window's last slice, so the run
  // settles with all sites up and every episode can complete.
  for (int k = 0;; ++k) {
    const SimTime at = w.first_crash + k * w.crash_period;
    if (at + w.outage > w.duration - w.slice) break;
    const auto site = static_cast<ddbs::SiteId>((k * 7) % w.cfg.n_sites);
    plan.push_back({at, true, site});
    plan.push_back({at + w.outage, false, site});
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
  return plan;
}

// ---- one repetition -------------------------------------------------------

// Counters that must repeat exactly between same-seed runs.
struct Fingerprint {
  int64_t submitted = 0, committed = 0, aborted = 0;
  int64_t ns_reads = 0, dm_reads = 0, lock_timeouts = 0;
  uint64_t messages = 0, events = 0;

  bool same_trajectory(const Fingerprint& o) const {
    return submitted == o.submitted && committed == o.committed &&
           aborted == o.aborted && ns_reads == o.ns_reads &&
           dm_reads == o.dm_reads && lock_timeouts == o.lock_timeouts &&
           messages == o.messages;
  }
  bool operator==(const Fingerprint& o) const {
    return same_trajectory(o) && events == o.events;
  }
  std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "submitted=%lld committed=%lld aborted=%lld ns_reads=%lld "
                  "dm_reads=%lld lock_timeouts=%lld messages=%llu events=%llu",
                  static_cast<long long>(submitted),
                  static_cast<long long>(committed),
                  static_cast<long long>(aborted),
                  static_cast<long long>(ns_reads),
                  static_cast<long long>(dm_reads),
                  static_cast<long long>(lock_timeouts),
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(events));
    return buf;
  }
};

class TraceKindCounter : public ddbs::TraceSink {
 public:
  void on_trace(const ddbs::TraceEvent& e) override {
    ++n_[static_cast<size_t>(e.kind)];
  }
  const std::array<uint64_t, 32>& counts() const { return n_; }

 private:
  std::array<uint64_t, 32> n_{};
};

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double load_s = 0;
  ddbs::RunnerStats stats;
  Fingerprint fp;
  std::map<std::string, int64_t> counters;
  std::map<std::string, ddbs::Histogram> hists;
  std::vector<ddbs::RecoveryEpisode> episodes;
  int64_t trace_recorded = 0;
  int64_t span_recorded = 0;
  uint64_t load_events = 0;
  uint64_t messages_dropped = 0;
  std::vector<double> pending, rpc_pending, slice_ms;
  // Wall time of each slice of the load window, harness work at the slice
  // boundary included, and the HostProbe time taken right after it. Probe
  // time is kept out of every other wall time of the rep.
  std::vector<double> window_slice_s, probe_s;
  size_t retained_peak = 0;
  size_t catalog_bytes = 0;
  // Traced reps only.
  ddbs::Histogram verify_commit_us;
  double verify_s = 0;
  std::array<uint64_t, 32> trace_kinds{};
  std::string failure; // empty: passed the correctness gate

  double commits_per_s() const {
    return load_s > 0 ? static_cast<double>(stats.committed) / load_s : 0;
  }
  // The load window in seconds of the reference host (HostProbe).
  double normalised_s() const {
    return normalised_window_s(window_slice_s, probe_s,
                               HostProbe::kReferenceSeconds);
  }
  int64_t counter(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  const ddbs::Histogram& hist(const char* name) const {
    static const ddbs::Histogram kEmpty;
    const auto it = hists.find(name);
    return it == hists.end() ? kEmpty : it->second;
  }
  void fail(std::string why) {
    if (failure.empty()) failure = std::move(why);
  }
};

// Construct + bootstrap only: one set-up sample for setup_s, normalised
// like the load window's slices by a probe call right after it.
double setup_once(const Workload& w, uint64_t seed, HostProbe& probe) {
  double wall = 0;
  {
    const auto t0 = Clock::now();
    std::unique_ptr<ClusterRuntime> rt = ddbs::make_runtime(w.cfg, seed);
    rt->bootstrap();
    wall = seconds_since(t0);
  }
  return wall * HostProbe::kReferenceSeconds / probe.run();
}

Rep run_rep(const Workload& w, uint64_t seed, HostProbe& probe,
            SpanRecorder* spans) {
  Rep rep;
  rep.traced = spans != nullptr;
  TraceKindCounter kinds; // declared before the runtime: outlives its tracer
  SpanScope rep_span(spans, "rep");

  const auto t_setup = Clock::now();
  std::unique_ptr<ClusterRuntime> rt;
  {
    SpanScope s(spans, "construct");
    rt = ddbs::make_runtime(w.cfg, seed);
  }
  {
    SpanScope s(spans, "bootstrap");
    rt->bootstrap();
  }
  rep.setup_s = seconds_since(t_setup);
  ClusterRuntime& c = *rt;
  rep.catalog_bytes = c.catalog().bytes();

  ddbs::OnlineVerifier* verifier = c.online_verifier();
  std::optional<TimingSink> timing;
  if (rep.traced) {
    if (auto* des = dynamic_cast<ddbs::Cluster*>(&c)) {
      des->tracer().add_sink(&kinds);
    }
    if (verifier != nullptr) {
      timing.emplace(*verifier);
      c.history().set_sink(&*timing);
    }
  }

  const std::vector<FaultAction> plan = fault_plan(w);
  size_t next_fault = 0;
  int slice_no = 0;
  const auto t_load = Clock::now();
  double slice_from_us = spans ? spans->now_us() : 0;
  double slice_from_s = 0;
  double window_mark_s = 0;
  double probe_spent_s = 0; // probe time inside the load window so far
  double verify_seen_s = 0;
  uint64_t verify_seen_calls = 0;
  const uint64_t events_before = c.events_executed();
  uint64_t events_after = events_before;
  double runner_tail_from_us = 0;
  const int load_span = spans ? spans->begin("load") : 0;

  ddbs::RunnerParams params;
  params.clients_per_site = w.clients_per_site;
  params.think_time = 2'000;
  params.duration = w.duration;
  params.workload = w.mix;
  params.client_failover = true;
  params.stop_poll = w.slice;
  params.stop_check = [&]() {
    const double at_s = seconds_since(t_load) - probe_spent_s;
    ++slice_no;
    rep.window_slice_s.push_back(at_s - window_mark_s);
    window_mark_s = at_s;
    rep.slice_ms.push_back((at_s - slice_from_s) * 1000.0);
    if (spans) {
      const double at_us = spans->now_us();
      const int id = spans->record("run_until", slice_from_us, at_us);
      if (timing) {
        const uint64_t calls = timing->commit_us().count() +
                               timing->late_calls();
        spans->aggregate("verify.on_commit", id, calls - verify_seen_calls,
                         (timing->total_seconds() - verify_seen_s) * 1e6);
        verify_seen_calls = calls;
        verify_seen_s = timing->total_seconds();
      }
    }
    {
      SpanScope s(spans, "host_probe");
      const auto t_probe = Clock::now();
      rep.probe_s.push_back(probe.run());
      probe_spent_s += seconds_since(t_probe);
    }
    const SimTime t = static_cast<SimTime>(slice_no) * w.slice;
    if (t >= w.duration) {
      // End of the load window: what follows is the Runner's settle.
      rep.load_s = at_s;
      events_after = c.events_executed();
      if (spans) runner_tail_from_us = spans->now_us();
      return false;
    }
    rep.pending.push_back(static_cast<double>(c.pending_site_events()));
    uint64_t rpc = 0;
    for (ddbs::SiteId s = 0; s < c.n_sites(); ++s)
      rpc += c.site(s).rpc().pending_count();
    rep.rpc_pending.push_back(static_cast<double>(rpc));
    if (verifier != nullptr) {
      rep.retained_peak =
          std::max(rep.retained_peak, c.history().committed_count());
    }
    for (; next_fault < plan.size() && plan[next_fault].at <= t;
         ++next_fault) {
      const FaultAction& f = plan[next_fault];
      SpanScope s(spans, f.crash ? "crash_site" : "recover_site");
      const bool applied = f.crash ? c.crash_site(f.site)
                                   : c.recover_site(f.site);
      if (!applied) rep.fail("fault action not applied");
    }
    if (verifier != nullptr) {
      {
        SpanScope s(spans, "verify.checkpoint");
        if (auto v = verifier->checkpoint(c)) {
          rep.fail("checkpoint: " + v->oracle + ": " + v->detail);
        }
      }
      SpanScope s(spans, "verify.prune");
      verifier->maybe_prune(c);
    }
    slice_from_s = seconds_since(t_load) - probe_spent_s;
    if (spans) slice_from_us = spans->now_us();
    return false;
  };

  ddbs::Runner runner(c, params, seed);
  rep.stats = runner.run();
  if (spans) {
    spans->record("runner.settle", runner_tail_from_us, spans->now_us());
    spans->end(load_span);
  }
  rep.load_events = events_after - events_before;

  {
    SpanScope s(spans, "settle");
    c.run_until(c.now() + 4 * w.cfg.detector_interval);
    c.settle();
  }
  {
    SpanScope oracles(spans, "oracles");
    std::string why;
    {
      SpanScope s(spans, "replicas_converged");
      if (!c.replicas_converged(&why)) rep.fail("not converged: " + why);
    }
    if (verifier != nullptr) {
      {
        SpanScope s(spans, "verify.checkpoint");
        if (auto v = verifier->checkpoint(c)) {
          rep.fail("checkpoint: " + v->oracle + ": " + v->detail);
        }
      }
      {
        SpanScope s(spans, "verify.quiescence");
        for (const ddbs::Violation& v : verifier->quiescence(c)) {
          rep.fail("quiescence: " + v.oracle + ": " + v.detail);
        }
      }
      SpanScope s(spans, "verify.prune");
      verifier->maybe_prune(c);
    }
  }
  if (rep.stats.committed <= 0) rep.fail("no user transaction committed");
  if (rep.stats.stopped_early) rep.fail("runner stopped early");

  if (timing) {
    c.history().set_sink(verifier);
    rep.verify_commit_us = timing->commit_us();
    rep.verify_s = timing->total_seconds();
  }
  rep.trace_kinds = kinds.counts();

  ddbs::RunReport report("perfbench");
  ddbs::RunReport::Run& run = c.report_run(report, w.name);
  for (const auto& [name, v] : run.counters) rep.counters[name] = v;
  for (const auto& [name, h] : run.histograms) rep.hists[name] = h;
  rep.episodes = run.episodes;
  rep.trace_recorded = run.trace_recorded;
  rep.span_recorded = run.span_recorded;

  rep.fp.submitted = rep.stats.submitted;
  rep.fp.committed = rep.stats.committed;
  rep.fp.aborted = rep.stats.aborted;
  rep.fp.ns_reads = rep.counter("txn.ns_reads");
  rep.fp.dm_reads = rep.counter("dm.reads");
  rep.fp.lock_timeouts = rep.counter("dm.lock_timeout");
  rep.fp.messages = c.network().messages_sent();
  rep.messages_dropped = c.network().messages_dropped();
  rep.fp.events = c.events_executed();
  return rep;
}

// ---- metrics --------------------------------------------------------------

// Median normalised load window of a set of reps (Rep::normalised_s).
double window_s(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.normalised_s());
  return median(v);
}

double wall_window_s(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.load_s);
  return median(v);
}

double rate(int64_t n, double seconds) {
  return seconds > 0 ? static_cast<double>(n) / seconds : 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note; // base, sample count or percentile used; human table only
};

std::string tail_note(size_t n, const TailPick& pick, double wanted) {
  char buf[128];
  if (!pick.supported) {
    std::snprintf(buf, sizeof buf, "n=%zu: too few samples for any tail", n);
  } else if (pick.pct + 1e-9 < wanted) {
    std::snprintf(buf, sizeof buf,
                  "n=%zu: p%g reported, %zu beyond (p%g unsupported)", n,
                  pick.pct, pick.beyond, wanted);
  } else {
    std::snprintf(buf, sizeof buf, "n=%zu, %zu beyond p%g", n, pick.beyond,
                  pick.pct);
  }
  return buf;
}

// Tail of a histogram under the percentile rule, capped at p99.
double hist_tail(const ddbs::Histogram& h, std::string* note) {
  const TailPick pick = tail_percentile(h.count(), 99);
  *note = tail_note(h.count(), pick, 99);
  return h.percentile(pick.pct);
}

double tail_of(const std::vector<double>& v, std::string* note) {
  const TailPick pick = tail_percentile(v.size(), 99);
  *note = tail_note(v.size(), pick, 99);
  return percentile(v, pick.pct);
}

std::string fmt(const char* f, double a, double b = 0) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps,
                               const std::vector<double>& setups,
                               const HostProbe& probe) {
  const Rep& r = reps.front();
  const ddbs::Histogram& lat = r.stats.commit_latency_us;
  std::string tail_n;
  const double p99 = hist_tail(lat, &tail_n) / 1000.0;
  const double rss_mb =
      static_cast<double>(ddbs::peak_rss_kb()) / 1024.0 -
      static_cast<double>(probe.resident_bytes()) / (1024.0 * 1024.0);
  return {
      {"commits_per_s", rate(r.stats.committed, window_s(reps)), "commits/s",
       fmt("host-normalised, median of %g reps; %g commits/s on the wall",
           static_cast<double>(reps.size()),
           rate(r.stats.committed, wall_window_s(reps)))},
      {"setup_s", median(setups), "s",
       fmt("host-normalised, median of %g set-ups",
           static_cast<double>(setups.size()))},
      {"peak_rss_mb", rss_mb, "MB", "process VmHWM less the host probe"},
      {"txn_p50_ms", lat.percentile(50) / 1000.0, "sim-ms",
       fmt("n=%g commits", static_cast<double>(lat.count()))},
      {"txn_p99_ms", p99, "sim-ms", tail_n},
  };
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<Rep>& plain,
                              const std::vector<Rep>& traced,
                              std::optional<double> speedup) {
  const Rep& r = traced.back();
  const int64_t commits = r.stats.committed;
  const int64_t submitted = r.stats.submitted;
  auto per_1k = [&](double x) {
    return submitted > 0 ? 1000.0 * x / static_cast<double>(submitted) : 0.0;
  };
  auto c = [&](const char* name) {
    return static_cast<double>(r.counter(name));
  };
  const PhaseSamples ph = fold_episodes(r.episodes);
  auto phase_note = [&](int p) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "median of %zu; %zu unobserved, %zu incomplete eps",
                  ph.ms[p].size(), ph.unobserved[p], ph.incomplete);
    return std::string(buf);
  };

  std::vector<double> slice_ms;
  for (const Rep& p : plain) {
    slice_ms.insert(slice_ms.end(), p.slice_ms.begin(), p.slice_ms.end());
  }
  const double plain_s = window_s(plain);
  const double events_per_s =
      rate(static_cast<int64_t>(plain.front().load_events), plain_s);
  std::vector<double> probe_ms;
  for (const Rep& p : plain) {
    for (double x : p.probe_s) probe_ms.push_back(x * 1000.0);
  }
  std::vector<double> shares;
  for (const Rep& t : traced) {
    shares.push_back(t.load_s > 0 ? t.verify_s / t.load_s : 0);
  }
  const double traced_s = window_s(traced);
  const double overhead = traced_s > 0 ? 1.0 - plain_s / traced_s : 0;
  const double pending_peak =
      r.pending.empty() ? 0
                        : *std::max_element(r.pending.begin(), r.pending.end());
  const double dropped_per_1k =
      r.fp.messages > 0 ? 1000.0 * static_cast<double>(r.messages_dropped) /
                              static_cast<double>(r.fp.messages)
                        : 0;
  const double aborts = static_cast<double>(r.stats.aborted);
  const double control =
      c("control_up.committed") + c("control_down.committed");
  std::string lock_n, disk_n, slice_n, verify_n;
  const double lock_tail = hist_tail(r.hist("dm.lock_wait_us"), &lock_n);
  const double disk_tail = hist_tail(r.hist("disk.write_us"), &disk_n);
  const double slice_tail = tail_of(slice_ms, &slice_n);
  const double verify_tail = hist_tail(r.verify_commit_us, &verify_n);
  const std::string na = "not measured on this workload";
  const bool verified = w.cfg.online_verify;

  return {
      {"sim.events_per_commit",
       per_commit(static_cast<double>(r.fp.events), commits), "events",
       "whole rep"},
      {"sim.pending_mean", mean(r.pending), "events", "sampled per slice"},
      {"sim.pending_peak", pending_peak, "events", "sampled per slice"},
      {"sim.events_per_s", events_per_s, "events/s",
       "load window, host-normalised, untraced reps"},
      {"net.msgs_per_commit",
       per_commit(static_cast<double>(r.fp.messages), commits), "msgs", ""},
      {"net.dropped_per_1k", dropped_per_1k, "per-1k-msgs",
       "base: messages sent"},
      {"net.rpc_pending_mean", mean(r.rpc_pending), "rpcs",
       "sampled per slice"},
      {"txn.ns_reads_per_commit", per_commit(c("txn.ns_reads"), commits),
       "reads", ""},
      {"txn.dm_reads_per_commit", per_commit(c("dm.reads"), commits), "reads",
       ""},
      {"txn.writes_staged_per_commit",
       per_commit(c("dm.writes_staged"), commits), "writes", ""},
      {"txn.lock_wait_p99_us", lock_tail, "sim-us", lock_n},
      {"txn.lock_timeouts_per_1k", per_1k(c("dm.lock_timeout")),
       "per-1k-txns", "base: submitted"},
      {"txn.deadlock_victims_per_1k", per_1k(c("dm.deadlock_victim")),
       "per-1k-txns", "base: submitted"},
      {"recovery.detect_ms", ph.median_ms(kDetect), "sim-ms",
       phase_note(kDetect)},
      {"recovery.type2_ms", ph.median_ms(kType2), "sim-ms",
       phase_note(kType2)},
      {"recovery.replay_ms", ph.median_ms(kReplay), "sim-ms",
       phase_note(kReplay)},
      {"recovery.type1_ms", ph.median_ms(kType1), "sim-ms",
       phase_note(kType1)},
      {"recovery.drain_ms", ph.median_ms(kDrain), "sim-ms",
       phase_note(kDrain)},
      {"recovery.type1_attempts_per_ep", ph.per_episode(ph.type1_attempts),
       "attempts",
       fmt("%g complete episodes", static_cast<double>(ph.complete))},
      {"recovery.copiers_per_ep", ph.per_episode(ph.copier_commits),
       "copiers", ""},
      {"recovery.marked_per_ep", ph.per_episode(ph.marked), "copies", ""},
      {"recovery.fd_verify_chains", c("fd.verify_chains"), "count", ""},
      {"storage.log_records_per_commit",
       per_commit(c("storage.log_records"), commits), "records", ""},
      {"storage.disk_write_bytes_per_commit",
       per_commit(c("disk.write_bytes"), commits), "bytes", ""},
      {"storage.checkpoints", c("storage.checkpoints"), "count", ""},
      {"storage.replay_records_p50", median(ph.replay_records), "records",
       fmt("median of %g replays",
           static_cast<double>(ph.replay_records.size()))},
      {"storage.disk_write_p99_us", disk_tail, "sim-us", disk_n},
      {"verify.on_commit_us_p50", r.verify_commit_us.percentile(50), "us",
       verified ? fmt("n=%g calls",
                      static_cast<double>(r.verify_commit_us.count()))
                : na},
      {"verify.on_commit_us_p99", verify_tail, "us", verified ? verify_n : na},
      {"verify.share", median(shares), "ratio",
       verified ? "verifier wall / load wall" : na},
      {"verify.retained_peak", static_cast<double>(r.retained_peak),
       "records", verified ? "sampled per slice" : na},
      {"core.speedup_vs_des", speedup.value_or(0), "ratio",
       speedup ? "DES twin / parallel load window, host-normalised" : na},
      {"core.slice_wall_ms_p99", slice_tail, "ms", slice_n},
      {"replication.catalog_bytes", static_cast<double>(r.catalog_bytes),
       "bytes", ""},
      {"common.trace_per_commit",
       per_commit(static_cast<double>(r.trace_recorded), commits), "events",
       ""},
      {"common.spans_per_commit",
       per_commit(static_cast<double>(r.span_recorded), commits), "events",
       ""},
      {"abort_frac",
       submitted > 0 ? aborts / static_cast<double>(submitted) : 0, "ratio",
       fmt("%g aborted of %g submitted", aborts,
           static_cast<double>(submitted))},
      {"ttop_p50_ms", ph.median_ms(kToOperational), "sim-ms",
       phase_note(kToOperational)},
      {"ttcur_p50_ms", ph.median_ms(kToCurrent), "sim-ms",
       phase_note(kToCurrent)},
      {"user_per_control",
       control > 0 ? static_cast<double>(commits) / control : 0, "ratio",
       fmt("%g control txns committed", control)},
      {"trace_overhead_frac", overhead, "ratio",
       "1 - traced/untraced commits_per_s"},
      {"commits_per_wall_s", rate(commits, wall_window_s(plain)), "commits/s",
       "not host-normalised, median of untraced reps"},
      {"host.probe_ms", median(probe_ms), "ms",
       fmt("median of %g probe calls; reference %g ms",
           static_cast<double>(probe_ms.size()),
           HostProbe::kReferenceSeconds * 1000.0)},
  };
}

// ---- output ---------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string metrics_object(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %16.6g %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out") a->out = v;
    else if (k == "--commit") a->commit = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int run(const Args& args) {
  const std::optional<Workload> wl = make_workload(args.workload);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  const bool parallel = w.cfg.n_threads > 1;

  // One warm-up rep fills caches and the allocator; it is checked like the
  // others but kept out of the timings. Then untraced reps until the budget
  // is spent (at least three, so the median has a middle); a traced run
  // alternates untraced and traced reps. Set-up is short next to a rep, so
  // it gets samples of its own: five before every untraced rep, spread over
  // the run as the reps are.
  std::vector<Rep> warmup, plain, traced;
  HostProbe probe(w.cfg.n_threads);
  warmup.push_back(run_rep(w, args.seed, probe, nullptr));
  const auto t_measure = Clock::now();
  SpanRecorder spans;
  std::vector<double> setups;
  while (true) {
    for (int i = 0; i < 5; ++i) setups.push_back(setup_once(w, args.seed, probe));
    plain.push_back(run_rep(w, args.seed, probe, nullptr));
    if (args.trace) traced.push_back(run_rep(w, args.seed, probe, &spans));
    const size_t reps = plain.size() + traced.size();
    if (seconds_since(t_measure) >= args.seconds && reps >= 3) break;
  }

  std::vector<std::string> failures;
  int64_t attempted = 0, failed = 0;
  const Fingerprint& ref = warmup.front().fp;
  for (const std::vector<Rep>* set : {&warmup, &plain, &traced}) {
    for (const Rep& r : *set) {
      attempted += r.stats.submitted;
      if (!r.failure.empty()) {
        failed += r.stats.submitted;
        failures.push_back(r.failure);
      }
      if (!(r.fp == ref)) {
        failures.push_back("same-seed reps diverged: " + r.fp.str() +
                           " vs " + ref.str());
      }
    }
  }

  std::optional<double> speedup;
  if (args.trace && parallel) {
    // DES twin: same trajectory on one thread; its load-window wall over
    // the parallel one's is the backend speed-up.
    const Rep twin = run_rep(des_twin(w), args.seed, probe, nullptr);
    if (!twin.fp.same_trajectory(ref)) {
      failures.push_back("DES twin diverged: " + twin.fp.str() + " vs " +
                         ref.str());
    }
    speedup = twin.normalised_s() / window_s(plain);
  }
  if (!failures.empty() && failed == 0) failed = attempted;

  const std::vector<Metric> metrics =
      args.trace ? per_layer(w, plain, traced, speedup)
                 : end_to_end(plain, setups, probe);

  std::string prov;
  {
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"backend\": %s, "
        "\"threads\": %d, \"host_cores\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"flags\": %s, \"commit\": %s, \"reps\": %zu, "
        "\"traced_reps\": %zu, \"sim_window_ms\": %lld}",
        json_string(w.name).c_str(),
        static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        json_string(parallel ? "parallel" : "des").c_str(),
        w.cfg.n_threads, std::thread::hardware_concurrency(),
        json_string(PB_COMPILER).c_str(), json_string(PB_BUILD_TYPE).c_str(),
        json_string(PB_FLAGS).c_str(), json_string(args.commit).c_str(),
        plain.size(), traced.size(),
        static_cast<long long>(w.duration / 1000));
    prov = buf;
  }
  std::printf("provenance: %s\n", prov.c_str());
  print_table(args.trace ? "per-layer metrics (traced run)"
                         : "end-to-end metrics (untraced run)",
              metrics);
  if (args.trace) {
    std::printf("benchmark spans (wall ms, all traced reps)\n");
    std::printf("  %-24s %8s %12s %12s\n", "span", "calls", "total_ms",
                "self_ms");
    for (const auto& [name, row] : spans.table()) {
      std::printf("  %-24s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.total_ms,
                  row.self_ms);
    }
    const auto& kinds = traced.back().trace_kinds;
    std::printf("library trace events by kind (last traced rep, DES)\n");
    for (size_t k = 0; k < kinds.size(); ++k) {
      if (kinds[k] == 0) continue;
      std::printf("  %-24s %12llu\n",
                  ddbs::to_string(static_cast<ddbs::TraceKind>(k)),
                  static_cast<unsigned long long>(kinds[k]));
    }
  }
  for (const std::string& f : failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  const std::string result =
      std::string("{\"correct\": ") + (failures.empty() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_object(metrics) + "}";

  if (!args.out.empty()) {
    const std::string stem = args.out + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    // The first rep's non-zero library counters, as the base for ratios.
    std::string counters = "{";
    for (const auto& [name, v] : plain.front().counters) {
      if (counters.size() > 1) counters += ", ";
      counters += json_string(name) + ": " + std::to_string(v);
    }
    counters += "}";
    std::string reps = "[";
    for (const std::vector<Rep>* set : {&plain, &traced}) {
      for (const Rep& r : *set) {
        if (reps.size() > 1) reps += ", ";
        reps += "{\"traced\": " + std::string(r.traced ? "true" : "false") +
                ", \"setup_s\": " + json_number(r.setup_s) +
                ", \"load_s\": " + json_number(r.load_s) +
                ", \"commits_per_s\": " + json_number(r.commits_per_s()) +
                ", \"normalised_s\": " + json_number(r.normalised_s()) +
                ", \"window_slice_s\": " + json_array(r.window_slice_s) +
                ", \"probe_s\": " + json_array(r.probe_s) + "}";
      }
    }
    reps += "]";
    std::ofstream(stem + ".json")
        << "{\"provenance\": " << prov << ",\n \"counters\": " << counters
        << ",\n \"reps\": " << reps << ",\n \"result\": " << result
        << "}\n";
    if (args.trace) {
      std::ofstream(stem + ".spans.json") << spans.chrome_json();
    }
    std::printf("detail: %s.json%s\n", stem.c_str(),
                args.trace ? " (spans: .spans.json)" : "");
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload oltp-64|churn-64|scale-256-par --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--commit TEXT]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
