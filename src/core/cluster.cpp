#include "core/cluster.h"

namespace ddbs {

Cluster::Cluster(Config cfg, uint64_t seed)
    : ClusterRuntime(std::move(cfg), seed, nullptr) {
  // One queue fires events in the DES order, so the folds observe the
  // trace stream directly.
  tracer().add_sink(&episodes_);
  tracer().add_sink(&series_);
}

void Cluster::schedule_global(SimTime at, EventFn fn) {
  // Count the action while queued (no cancel path exists for globals) so
  // pending_site_events() can exclude it -- the parallel backend keeps
  // globals outside the shard queues entirely.
  ++pending_globals_;
  auto wrapped = [this, fn = std::move(fn)]() mutable {
    --pending_globals_;
    fn();
  };
  Scheduler& sched = scheduler();
  if (sched.site_keys()) {
    // Lane 0 sorts before every same-time site event, matching the
    // parallel backend where global actions run at the window boundary.
    sched.at_keyed(at, sched.mint_key(kLaneGlobal), std::move(wrapped));
    return;
  }
  sched.at(at, std::move(wrapped));
}

} // namespace ddbs
