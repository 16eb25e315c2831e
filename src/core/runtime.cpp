#include "core/runtime.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "verify/online_verifier.h"

namespace ddbs {

namespace {

std::vector<int> make_site_shard(const Config& cfg, bool sharded) {
  std::vector<int> out(static_cast<size_t>(cfg.n_sites), 0);
  if (sharded) {
    for (SiteId s = 0; s < cfg.n_sites; ++s)
      out[static_cast<size_t>(s)] = cfg.shard_of(s);
  }
  return out;
}

// Run `fn` on behalf of site `s`. Called from outside the simulation, the
// work's first timers must mint in s's key lane -- as they do when the
// call lands on the owning shard from inside an event.
template <typename Fn>
void as_site(Scheduler& sched, SiteId s, Fn&& fn) {
  const bool external = sched.context_lane() < 2;
  if (external) sched.set_context_site(s);
  fn();
  if (external) sched.set_context_free();
}

} // namespace

std::vector<std::unique_ptr<ClusterRuntime::Shard>>
ClusterRuntime::make_shards(const Config& cfg, int n) {
  std::vector<std::unique_ptr<Shard>> out;
  out.reserve(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    Shard& sh = *out.emplace_back(std::make_unique<Shard>(cfg));
    // Per-site key lanes make every shard's execution order match the
    // single-threaded DES (see sim/scheduler.h).
    if (cfg.site_ordered_events) sh.sched.enable_site_keys(cfg.n_sites);
    // Shard-local span ids, globally unique: k + 1 + i * n.
    sh.tracer.set_id_stride(static_cast<SpanId>(n), static_cast<SpanId>(k));
  }
  return out;
}

ClusterRuntime::ClusterRuntime(Config cfg, uint64_t seed, CrossShardSink* sink)
    : cfg_(std::move(cfg)),
      site_shard_(make_site_shard(cfg_, sink != nullptr)),
      shards_(make_shards(cfg_, sink != nullptr ? cfg_.shard_count() : 1)),
      episodes_(cfg_.n_sites),
      series_(cfg_.timeseries_bucket, cfg_.n_sites),
      net_(
          [this] {
            std::vector<Scheduler*> scheds;
            for (auto& sh : shards_) scheds.push_back(&sh->sched);
            return scheds;
          }(),
          site_shard_, cfg_, seed, sink),
      cat_(Catalog::make(cfg_)) {
  recorder_.set_enabled(cfg_.record_history);
  recorder_.set_thread_safe(shards_.size() > 1);
  if (cfg_.record_history && cfg_.online_verify) {
    verifier_ = std::make_unique<OnlineVerifier>(cfg_);
    recorder_.set_sink(verifier_.get());
  }
  sites_.reserve(static_cast<size_t>(cfg_.n_sites));
  for (SiteId s = 0; s < cfg_.n_sites; ++s) {
    Shard& sh = shard_of(s);
    sites_.push_back(std::make_unique<Site>(
        s, cfg_, sh.sched, net_, cat_, sh.metrics,
        cfg_.record_history ? &recorder_ : nullptr, &sh.tracer));
  }
}

ClusterRuntime::~ClusterRuntime() = default;

Metrics& ClusterRuntime::metrics() {
  if (shards_.size() == 1) return shards_[0]->metrics;
  agg_metrics_.clear();
  for (const auto& sh : shards_) agg_metrics_.merge_from(sh->metrics);
  return agg_metrics_;
}

void ClusterRuntime::bootstrap(Value initial_value) {
  for (auto& site : sites_) {
    as_site(shard_of(site->id()).sched, site->id(),
            [&] { site->bootstrap_up(initial_value); });
  }
}

void ClusterRuntime::submit(SiteId origin, std::vector<LogicalOp> ops,
                            CoordinatorBase::DoneFn done) {
  TxnSpec spec;
  spec.origin = origin;
  spec.ops = std::move(ops);
  as_site(shard_of(origin).sched, origin, [&] {
    site(origin).tm().submit_user(std::move(spec), std::move(done));
  });
}

TxnResult ClusterRuntime::run_txn(SiteId origin, std::vector<LogicalOp> ops) {
  TxnResult result;
  bool finished = false;
  submit(origin, std::move(ops), [&](const TxnResult& r) {
    result = r;
    finished = true;
  });
  const SimTime deadline = now() + 2 * cfg_.txn_timeout;
  while (!finished && now() < deadline) {
    const SimTime next = next_event_time();
    if (next == kNoTime) break;
    run_until(std::min(next, deadline));
  }
  if (!finished) result.reason = Code::kTimeout; // outcome unknown
  return result;
}

bool ClusterRuntime::crash_site(SiteId s) {
  if (!valid_site(s)) {
    DDBS_WARN << "crash_site: site " << s << " out of range [0, "
              << cfg_.n_sites << "); ignored";
    return false;
  }
  // A crash scheduled against an already-down site (e.g. by a delta-
  // debugged fault schedule, or racing another injector) is a no-op, not
  // a double power-off of dead hardware.
  if (site(s).state().mode == SiteMode::kDown) return false;
  as_site(shard_of(s).sched, s, [&] { site(s).crash(); });
  return true;
}

bool ClusterRuntime::recover_site(SiteId s) {
  if (!valid_site(s)) {
    DDBS_WARN << "recover_site: site " << s << " out of range [0, "
              << cfg_.n_sites << "); ignored";
    return false;
  }
  // Already up or mid-recovery: nothing to power on.
  if (site(s).state().mode != SiteMode::kDown) return false;
  as_site(shard_of(s).sched, s, [&] { site(s).recover(); });
  return true;
}

void ClusterRuntime::crash_site_at(SimTime t, SiteId s) {
  schedule_global(t, [this, s]() { crash_site(s); });
}

void ClusterRuntime::recover_site_at(SimTime t, SiteId s) {
  schedule_global(t, [this, s]() { recover_site(s); });
}

bool ClusterRuntime::probe_pending() const {
  if (!cfg_.reconcile_probes) return false;
  for (const auto& up : sites_) {
    if (up->state().mode != SiteMode::kUp) continue;
    for (const auto& viewer : sites_) {
      if (viewer == up || viewer->state().mode != SiteMode::kUp ||
          !net_.reachable(viewer->id(), up->id())) {
        continue;
      }
      const Copy* entry = viewer->stable().kv().find(ns_item(up->id()));
      if (entry != nullptr && entry->value == 0) return true;
    }
  }
  return false;
}

void ClusterRuntime::settle(SimTime max_time) {
  // Heuristic quiescence: advance in detector-interval slices until no
  // transaction coordinators or DM contexts remain in flight anywhere,
  // every recovering site has finished its refresh, and no reconciliation
  // probe is still due.
  const SimTime deadline = now() + max_time;
  while (now() < deadline) {
    run_until(now() + cfg_.detector_interval);
    bool busy = false;
    for (const auto& s : sites_) {
      Site& site = *s;
      if (site.tm().active_coordinators() > 0 ||
          site.dm().active_txn_count() > 0 ||
          site.dm().parked_read_count() > 0 ||
          site.state().mode == SiteMode::kRecovering ||
          (site.state().mode == SiteMode::kUp && !site.rm().refresh_idle())) {
        busy = true;
        break;
      }
    }
    if (!busy && !probe_pending()) return;
  }
  DDBS_WARN << "settle() hit its time bound";
}

EventId ClusterRuntime::post(SiteId site, SimTime at, EventFn fn) {
  Scheduler& sched = shard_of(site).sched;
  if (!sched.site_keys()) return sched.at(at, std::move(fn));
  return sched.at_keyed(at, sched.mint_key(lane_of_site(site)),
                        std::move(fn));
}

RunReport::Run& ClusterRuntime::report_run(RunReport& report,
                                           std::string label) const {
  RunReport::Run& run = report.add_run(std::move(label), cfg_);
  const Metrics& m = const_cast<ClusterRuntime*>(this)->metrics();
  RunReport::capture_counters(run, m);
  RunReport::capture_histograms(run, m);
  run.episodes = episodes_.episodes();
  run.series = series_.data(now());
  for (const auto& sh : shards_) {
    run.trace_recorded += static_cast<int64_t>(sh->tracer.delivered());
    run.trace_dropped += static_cast<int64_t>(sh->tracer.dropped());
    run.span_recorded += static_cast<int64_t>(sh->tracer.span_events());
  }
  return run;
}

uint64_t ClusterRuntime::events_executed() const {
  uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sched.executed();
  return n;
}

double ClusterRuntime::events_per_sec() const {
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start_)
                          .count();
  return secs > 0 ? static_cast<double>(events_executed()) / secs : 0.0;
}

void ClusterRuntime::add_perf_scalars(RunReport::Run& run) const {
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start_)
                          .count();
  const double executed = static_cast<double>(events_executed());
  run.scalars.emplace_back("events_per_sec", secs > 0 ? executed / secs : 0.0);
  run.scalars.emplace_back("events_executed", executed);
  run.scalars.emplace_back("wall_ms", secs * 1e3);
  // Host-side commit throughput (committed txns / wall second) -- the
  // headline number the parallel backend is judged on.
  int64_t committed = 0;
  for (const auto& sh : shards_)
    committed += sh->metrics.get(sh->metrics.id.txn_committed);
  run.scalars.emplace_back(
      "commits_per_sec",
      secs > 0 ? static_cast<double>(committed) / secs : 0.0);
  // Resident size of the CSR placement arrays: the cost of knowing where
  // every copy lives, which the 64-256 site sweeps track against n_items.
  run.scalars.emplace_back("catalog_bytes", static_cast<double>(cat_.bytes()));
}

bool ClusterRuntime::replicas_converged(std::string* why) const {
  for (ItemId x = 0; x < cfg_.n_items; ++x) {
    bool have_ref = false;
    Value ref_value = 0;
    Version ref_version;
    for (SiteId s : cat_.sites_of(x)) {
      const Site& site = *sites_[static_cast<size_t>(s)];
      if (site.state().mode != SiteMode::kUp) continue;
      const Copy* c = site.stable().kv().find(x);
      if (c == nullptr) continue;
      if (c->unreadable) {
        if (why != nullptr) {
          std::ostringstream os;
          os << "item " << x << " copy at up site " << s
             << " still unreadable";
          *why = os.str();
        }
        return false;
      }
      if (!have_ref) {
        have_ref = true;
        ref_value = c->value;
        ref_version = c->version;
      } else if (c->value != ref_value || !(c->version == ref_version)) {
        if (why != nullptr) {
          std::ostringstream os;
          os << "item " << x << " diverges at site " << s << " (value "
             << c->value << " vs " << ref_value << ")";
          *why = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

std::string ClusterRuntime::spans_chrome_json() const {
  std::vector<const Tracer*> tracers;
  for (const auto& sh : shards_) tracers.push_back(&sh->tracer);
  return Tracer::to_chrome_json(tracers);
}

std::vector<TraceEvent> ClusterRuntime::trace_tail(size_t n) const {
  std::vector<TraceEvent> all;
  for (const auto& sh : shards_) {
    const std::vector<TraceEvent> one = sh->tracer.snapshot();
    all.insert(all.end(), one.begin(), one.end());
  }
  // The most recent `n`, after a stable sort by timestamp.
  std::stable_sort(
      all.begin(), all.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<long>(n));
  return all;
}

} // namespace ddbs
