#include "workload/sweep.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "common/report.h"
#include "core/runtime.h"
#include "verify/online_verifier.h"
#include "explore/oracles.h"

namespace ddbs {
namespace {

// The headline per-run scalars, shared by the per-run report, the per-cell
// aggregation and the sweep JSON so the three never drift apart.
struct RunScalars {
  const char* name;
  double (*get)(const SweepRun&, const SweepSpec&);
};

const RunScalars kScalars[] = {
    {"committed",
     [](const SweepRun& r, const SweepSpec&) {
       return static_cast<double>(r.stats.committed);
     }},
    {"aborted",
     [](const SweepRun& r, const SweepSpec&) {
       return static_cast<double>(r.stats.aborted);
     }},
    {"commit_ratio",
     [](const SweepRun& r, const SweepSpec&) { return r.stats.commit_ratio(); }},
    {"throughput_txn_s",
     [](const SweepRun& r, const SweepSpec& s) {
       return r.stats.throughput_per_sec(s.params.duration);
     }},
    {"p50_latency_us",
     [](const SweepRun& r, const SweepSpec&) {
       return r.stats.commit_latency_us.percentile(50);
     }},
    {"p99_latency_us",
     [](const SweepRun& r, const SweepSpec&) {
       return r.stats.commit_latency_us.percentile(99);
     }},
};

// One independent simulation; everything it touches is local to the call,
// which is what makes the thread fan-out safe and bit-reproducible.
SweepRun run_one(const SweepSpec& spec, size_t cell, uint64_t seed,
                 std::atomic<uint64_t>& events_total) {
  SweepRun out;
  out.cell = cell;
  out.seed = seed;
  out.completed = true;

  std::unique_ptr<ClusterRuntime> rt = make_runtime(spec.cells[cell].cfg, seed);
  ClusterRuntime& cluster = *rt;
  cluster.bootstrap();
  std::unique_ptr<TelemetryStream> stream;
  if (spec.capture_telemetry) {
    TelemetryOptions topts = spec.telemetry;
    topts.include_host = false; // keep the serial/parallel byte contract
    stream = std::make_unique<TelemetryStream>(cluster, topts);
    stream->start();
  }
  Runner runner(cluster, spec.params, seed);
  out.stats = runner.run();
  cluster.settle();
  if (spec.check_oracles) {
    // Give the failure detector time to declare any site crashed right at
    // the end of the window (a crash is only reflected in NS once a type-2
    // control transaction commits), then re-settle and judge.
    cluster.run_until(cluster.now() +
                      4 * spec.cells[cell].cfg.detector_interval);
    cluster.settle();
    // Cells configured with online_verify record history and get the
    // verifier's full verdict; the rest (history off) get the
    // cluster-state oracles alone.
    OnlineVerifier* verifier = cluster.online_verifier();
    const std::vector<Violation> violations =
        verifier != nullptr ? verifier->quiescence(cluster)
                            : quiescence_oracles(cluster);
    for (const Violation& v : violations) {
      out.violations.push_back(to_string(v));
    }
  }
  out.converged = cluster.replicas_converged();
  events_total.fetch_add(cluster.events_executed(),
                         std::memory_order_relaxed);

  RunReport report("ddbs_sweep");
  RunReport::Run& run = cluster.report_run(
      report, spec.cells[cell].label + "/seed" + std::to_string(seed));
  for (const RunScalars& s : kScalars) {
    run.scalars.emplace_back(s.name, s.get(out, spec));
  }
  run.scalars.emplace_back("converged", out.converged ? 1.0 : 0.0);
  if (spec.check_oracles) {
    run.scalars.emplace_back(
        "oracle_violations", static_cast<double>(out.violations.size()));
  }
  // No add_perf_scalars() here: wall-clock numbers would break the
  // serial-vs-parallel byte-identity contract.
  out.report_json = report.to_json();
  if (spec.capture_spans) {
    out.spans_json = cluster.spans_chrome_json();
  }
  if (stream) {
    stream->stop();
    out.telemetry_jsonl = stream->jsonl();
  }
  return out;
}

SweepCellSummary summarize(const SweepSpec& spec, size_t cell,
                           const std::vector<SweepRun>& runs) {
  SweepCellSummary sum;
  sum.label = spec.cells[cell].label;
  const size_t n = static_cast<size_t>(spec.seeds);
  for (const RunScalars& s : kScalars) {
    // ExactSamples, not Histogram: these are a handful of heterogeneous
    // scalars (ratios near 1.0, throughputs in the 1e3 range) where log
    // buckets would cost real precision for zero memory benefit.
    ExactSamples h;
    for (size_t k = 0; k < n; ++k) {
      h.add(s.get(runs[cell * n + k], spec));
    }
    sum.scalars.push_back(
        SweepScalar{s.name, h.mean(), h.percentile(50), h.percentile(99)});
  }
  for (size_t k = 0; k < n; ++k) {
    const SweepRun& r = runs[cell * n + k];
    if (r.completed) ++sum.completed;
    if (r.converged) ++sum.converged;
    if (!r.violations.empty()) ++sum.oracle_failures;
  }
  return sum;
}

} // namespace

void run_parallel(size_t total, int threads,
                  const std::function<void(size_t)>& fn,
                  std::atomic<bool>* cancel) {
  if (total == 0) return;
  std::atomic<size_t> next{0};

  // Pull-based pool: job i always receives index i, so callers writing
  // into a pre-sized results vector get scheduling-independent output.
  auto worker = [&]() {
    while (true) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return;
      }
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      fn(i);
    }
  };

  size_t n_workers = static_cast<size_t>(threads > 1 ? threads : 1);
  if (n_workers > total) n_workers = total;
  if (n_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (size_t t = 0; t < n_workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
}

SweepResult run_sweep(const SweepSpec& spec, int threads) {
  const size_t total =
      spec.cells.size() * static_cast<size_t>(spec.seeds > 0 ? spec.seeds : 0);
  SweepResult res;
  res.runs.resize(total);
  if (total == 0) return res;

  const auto wall_start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> events_total{0};
  std::atomic<bool> cancel{false};

  run_parallel(
      total, threads,
      [&](size_t i) {
        const size_t cell = i / static_cast<size_t>(spec.seeds);
        const uint64_t seed =
            spec.seed_base + (i % static_cast<size_t>(spec.seeds));
        res.runs[i] = run_one(spec, cell, seed, events_total);
        if (spec.fail_fast && !res.runs[i].ok()) {
          cancel.store(true, std::memory_order_relaxed);
        }
      },
      spec.fail_fast ? &cancel : nullptr);
  // Label the runs fail_fast skipped so reports stay self-describing.
  for (size_t i = 0; i < total; ++i) {
    if (res.runs[i].completed) continue;
    res.runs[i].cell = i / static_cast<size_t>(spec.seeds);
    res.runs[i].seed = spec.seed_base + (i % static_cast<size_t>(spec.seeds));
  }

  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  res.events_executed = events_total.load();
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    res.cells.push_back(summarize(spec, c, res.runs));
  }
  return res;
}

std::string sweep_report_json(const SweepSpec& spec, const SweepResult& res,
                              int threads) {
  JsonWriter w;
  w.begin_object();
  w.kv("tool", "ddbs_sweep");
  w.kv("seed_base", spec.seed_base);
  w.kv("seeds", spec.seeds);
  w.kv("threads", threads);
  w.kv("duration_us", static_cast<int64_t>(spec.params.duration));
  w.key("cells");
  w.begin_array();
  const size_t n = static_cast<size_t>(spec.seeds);
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    w.begin_object();
    w.kv("label", spec.cells[c].label);
    w.key("config");
    write_config(w, spec.cells[c].cfg);
    w.kv("converged_runs", static_cast<int64_t>(res.cells[c].converged));
    w.kv("completed_runs", static_cast<int64_t>(res.cells[c].completed));
    w.kv("oracle_failures", static_cast<int64_t>(res.cells[c].oracle_failures));
    w.key("aggregates");
    w.begin_object();
    for (const SweepScalar& s : res.cells[c].scalars) {
      w.key(s.name);
      w.begin_object();
      w.kv("mean", s.mean);
      w.kv("p50", s.p50);
      w.kv("p99", s.p99);
      w.end_object();
    }
    w.end_object();
    w.key("runs");
    w.begin_array();
    for (size_t k = 0; k < n; ++k) {
      const SweepRun& r = res.runs[c * n + k];
      w.begin_object();
      w.kv("seed", r.seed);
      w.kv("completed", r.completed);
      w.kv("converged", r.converged);
      if (!r.violations.empty()) {
        w.key("violations");
        w.begin_array();
        for (const std::string& v : r.violations) w.value(v);
        w.end_array();
      }
      for (const RunScalars& s : kScalars) {
        w.kv(s.name, s.get(r, spec));
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  // Host-side numbers last: everything above this key is deterministic.
  w.key("host");
  w.begin_object();
  w.kv("wall_seconds", res.wall_seconds);
  w.kv("events_executed", res.events_executed);
  w.kv("events_per_sec", res.events_per_sec());
  w.end_object();
  w.end_object();
  return w.str();
}

} // namespace ddbs
