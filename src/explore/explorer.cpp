#include "explore/explorer.h"

#include <algorithm>
#include <memory>

#include "core/runtime.h"
#include "verify/online_verifier.h"

namespace ddbs {
namespace {

// Per-run driver: owns the cluster, the nemesis state and the client
// loops. Lives on the stack of run_schedule for exactly one run.
class ScheduleRun {
 public:
  ScheduleRun(const ExploreOptions& opts, const Schedule& schedule,
              uint64_t seed)
      : opts_(opts), schedule_(schedule), seed_(seed),
        cluster_(make_runtime(force_verifier(opts.cfg), seed)),
        rt_(*cluster_) {
    const int shards = rt_.config().shard_count();
    submitted_.assign(static_cast<size_t>(shards), 0);
    committed_.assign(static_cast<size_t>(shards), 0);
    aborted_.assign(static_cast<size_t>(shards), 0);
  }

  ExploreRunResult run() {
    rt_.bootstrap();
    std::unique_ptr<TelemetryStream> stream;
    if (opts_.capture_telemetry) {
      TelemetryOptions topts = opts_.telemetry;
      topts.include_host = false; // keep replay byte-identity
      stream = std::make_unique<TelemetryStream>(rt_, topts);
      stream->start();
    }
    end_time_ = rt_.now() + opts_.horizon;
    arm_nemesis();
    spawn_clients();

    // Drive to the horizon in fixed checkpoint slices; a checkpoint
    // violation ends the run immediately (deterministically) so the
    // shrinker sees the earliest observable failure.
    ExploreRunResult res;
    for (SimTime t = rt_.now() + opts_.checkpoint_every;;
         t += opts_.checkpoint_every) {
      const SimTime target = std::min(t, end_time_);
      rt_.run_until(target);
      if (auto v = rt_.online_verifier()->checkpoint(rt_)) {
        res.violations.push_back(*v);
        break;
      }
      if (target == end_time_) break;
    }

    if (res.violations.empty()) {
      // Horizon reached cleanly: force-clear network faults, drain, give
      // the failure detector time to declare any end-of-window crash (NS
      // reflects a crash only once a type-2 commits), then judge.
      clear_network_faults();
      rt_.settle(opts_.settle_budget);
      rt_.run_until(rt_.now() +
                         4 * rt_.config().detector_interval);
      rt_.settle(opts_.settle_budget);
      res.violations = rt_.online_verifier()->quiescence(rt_);
    }
    res.violated = !res.violations.empty();
    for (int64_t n : submitted_) res.submitted += n;
    for (int64_t n : committed_) res.committed += n;
    for (int64_t n : aborted_) res.aborted += n;
    res.report = render_report(res);
    if (stream) {
      stream->stop();
      res.telemetry_jsonl = stream->jsonl();
    }
    return res;
  }

 private:
  static Config force_verifier(Config cfg) {
    cfg.record_history = true;
    cfg.online_verify = true;
    return cfg;
  }

  void arm_nemesis() {
    const SimTime start = rt_.now();
    for (const NemesisOp& op : schedule_) {
      // Nemesis actions are global control: they run in lane 0 on the DES
      // and at a window boundary (workers parked) on the parallel backend.
      rt_.schedule_global(start + op.at, [this, op]() { apply(op); });
    }
  }

  void apply(const NemesisOp& op) {
    const Config& cfg = rt_.config();
    switch (op.kind) {
      case NemesisKind::kCrash:
        rt_.crash_site(op.site);
        break;
      case NemesisKind::kReboot:
        rt_.recover_site(op.site);
        break;
      case NemesisKind::kPartition: {
        if (!rt_.valid_site(op.site)) break;
        std::vector<SiteId> rest;
        for (SiteId s = 0; s < rt_.n_sites(); ++s) {
          if (s != op.site) rest.push_back(s);
        }
        if (rt_.network().set_partition({{op.site}, rest})) {
          isolated_ = op.site;
        }
        break;
      }
      case NemesisKind::kHeal:
        rt_.network().clear_partition();
        isolated_ = kInvalidSite;
        break;
      case NemesisKind::kDropBurst:
        rt_.network().set_loss_prob(op.prob);
        rt_.schedule_global(
            rt_.now() + std::max<SimTime>(op.duration, 1), [this]() {
              rt_.network().set_loss_prob(rt_.config().msg_loss_prob);
            });
        break;
      case NemesisKind::kLatencySkew: {
        if (!rt_.valid_site(op.site)) break;
        const SimTime skewed_max = static_cast<SimTime>(
            static_cast<double>(cfg.net_latency_max) * op.factor);
        set_site_latency(op.site, cfg.net_latency_min, skewed_max);
        const SiteId site = op.site;
        rt_.schedule_global(
            rt_.now() + std::max<SimTime>(op.duration, 1), [this, site]() {
              const Config& c = rt_.config();
              set_site_latency(site, c.net_latency_min, c.net_latency_max);
            });
        break;
      }
    }
  }

  void set_site_latency(SiteId site, SimTime min_us, SimTime max_us) {
    for (SiteId t = 0; t < rt_.n_sites(); ++t) {
      if (t == site) continue;
      rt_.network().latency().set_pair(site, t, min_us, max_us);
      rt_.network().latency().set_pair(t, site, min_us, max_us);
    }
  }

  void clear_network_faults() {
    const Config& cfg = rt_.config();
    rt_.network().clear_partition();
    isolated_ = kInvalidSite;
    rt_.network().set_loss_prob(cfg.msg_loss_prob);
    for (SiteId s = 0; s < rt_.n_sites(); ++s) {
      set_site_latency(s, cfg.net_latency_min, cfg.net_latency_max);
    }
  }

  // ---- clients (Runner's loop, made partition-aware) ----

  void spawn_clients() {
    uint64_t client_seed = seed_;
    for (SiteId s = 0; s < rt_.n_sites(); ++s) {
      for (int c = 0; c < opts_.clients_per_site; ++c) {
        auto gen = std::make_shared<WorkloadGen>(
            rt_.config(), opts_.workload, ++client_seed * 0x9e37 + 17);
        auto rng = std::make_shared<Rng>(client_seed ^ 0xc11e47);
        client_loop(s, gen, rng);
      }
    }
  }

  bool submittable(SiteId s) {
    return rt_.site(s).state().operational() && s != isolated_;
  }

  int shard_of(SiteId s) const { return rt_.config().shard_of(s); }

  void client_loop(SiteId home, std::shared_ptr<WorkloadGen> gen,
                   std::shared_ptr<Rng> rng) {
    if (rt_.local_now(home) >= end_time_) return;
    SiteId origin = home;
    if (!submittable(origin)) {
      // With an active shard map failover stays within the home shard
      // (cross-shard submits would race on the parallel backend; the DES
      // twin applies the same restriction to stay comparable).
      const bool sharded = rt_.config().shard_count() > 1;
      std::vector<SiteId> ups;
      for (SiteId s = 0; s < rt_.n_sites(); ++s) {
        if (sharded && shard_of(s) != shard_of(home)) continue;
        if (submittable(s)) ups.push_back(s);
      }
      if (ups.empty()) {
        rt_.post_after(home, 10 * opts_.think_time,
                       [this, home, gen, rng]() {
                         client_loop(home, gen, rng);
                       });
        return;
      }
      origin = ups[static_cast<size_t>(
          rng->uniform(0, static_cast<int64_t>(ups.size()) - 1))];
    }
    ++submitted_[static_cast<size_t>(shard_of(home))];
    rt_.submit(origin, gen->next(),
               [this, home, gen, rng](const TxnResult& res) {
                 if (res.committed) {
                   ++committed_[static_cast<size_t>(shard_of(home))];
                 } else {
                   ++aborted_[static_cast<size_t>(shard_of(home))];
                 }
                 rt_.post_after(
                     home, opts_.think_time, [this, home, gen, rng]() {
                       client_loop(home, gen, rng);
                     });
               });
  }

  // Canonical per-run report: everything in it is a deterministic function
  // of (options, schedule, seed), so a replay must reproduce it verbatim.
  std::string render_report(const ExploreRunResult& res) const {
    JsonWriter w;
    w.begin_object();
    w.kv("tool", "ddbs_explore");
    w.kv("schema", 1);
    w.kv("seed", seed_);
    w.kv("planted_bug", to_string(rt_.config().planted_bug));
    w.kv("horizon", static_cast<int64_t>(opts_.horizon));
    w.key("schedule");
    write_schedule(w, schedule_);
    w.kv("violated", !res.violations.empty());
    w.key("violations");
    w.begin_array();
    for (const Violation& v : res.violations) {
      w.begin_object();
      w.kv("oracle", v.oracle);
      w.kv("at", static_cast<int64_t>(v.at));
      w.kv("detail", v.detail);
      w.end_object();
    }
    w.end_array();
    w.key("stats");
    w.begin_object();
    w.kv("submitted", res.submitted);
    w.kv("committed", res.committed);
    w.kv("aborted", res.aborted);
    w.end_object();
    w.end_object();
    return w.str();
  }

  ExploreOptions opts_;
  Schedule schedule_;
  uint64_t seed_;
  std::unique_ptr<ClusterRuntime> cluster_;
  ClusterRuntime& rt_;
  SiteId isolated_ = kInvalidSite;
  SimTime end_time_ = 0;
  // Per-shard counters: client callbacks run on shard threads under the
  // parallel backend; each touches only its home shard's slot.
  std::vector<int64_t> submitted_;
  std::vector<int64_t> committed_;
  std::vector<int64_t> aborted_;
};

} // namespace

ExploreRunResult run_schedule(const ExploreOptions& opts,
                              const Schedule& schedule, uint64_t seed) {
  ScheduleRun run(opts, schedule, seed);
  return run.run();
}

} // namespace ddbs
