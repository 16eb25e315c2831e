// The whole replicated DDBS under one deterministic single-threaded
// simulation: the ClusterRuntime with one shard and one event queue.
//
// This is the library's main public entry point:
//
//   Config cfg;               // pick protocol knobs
//   Cluster cluster(cfg, 42); // seed => fully reproducible run
//   cluster.bootstrap();
//   auto r = cluster.run_txn(0, {{OpKind::kWrite, 7, 100}});
//   cluster.crash_site(2);
//   ...
//   cluster.recover_site(2);
//   cluster.settle();         // drain in-flight work
#pragma once

#include "core/runtime.h"
#include "verify/online_verifier.h"

namespace ddbs {

class Cluster : public ClusterRuntime {
 public:
  Cluster(Config cfg, uint64_t seed);

  SimTime now() const override { return shards_[0]->sched.now(); }
  void run_until(SimTime t) override { shards_[0]->sched.run_until(t); }
  void schedule_global(SimTime at, EventFn fn) override;

  // Pending events minus the not-yet-fired global control actions, which
  // on the parallel backend live outside the shard queues entirely.
  uint64_t pending_site_events() const override {
    return shards_[0]->sched.pending() - pending_globals_;
  }

  Scheduler& scheduler() { return shards_[0]->sched; }
  Tracer& tracer() { return shards_[0]->tracer; }
  const Tracer& tracer() const { return shards_[0]->tracer; }

 protected:
  SimTime next_event_time() override {
    return shards_[0]->sched.next_event_time();
  }

 private:
  // Scheduled-but-unfired schedule_global() actions; subtracted from the
  // queue depth so pending_site_events() matches the parallel backend.
  uint64_t pending_globals_ = 0;
};

} // namespace ddbs
