// Site-parallel execution backend: the cluster's sites are split into
// contiguous shards (Config::shard_count), each shard runs on its own
// worker thread with a private Scheduler, Metrics, Tracer and SpanLog --
// the per-event hot path touches no shared mutable state at all.
// Cross-shard messages travel through one SPSC mailbox ring per
// (src, dst) shard pair and are re-injected into the destination shard's
// event queue by the driving thread while every worker is parked.
//
// Synchronization is conservative PDES with time windows: the driving
// thread repeatedly computes the global next-event time `start`, executes
// any due global control actions (crash/recover, partitions, loss/latency
// changes -- the DES's lane-0 events), then releases the workers to run
// one epoch window [start, end) where
//
//     end = min(start + W, next global action, target + 1)
//     W   = LatencyModel::floor_min()   (min cross-site latency)
//
// Every cross-site message sent inside the window has arrival >= sent_at
// + W >= end, so it always lands beyond the window's end and a drain at
// the barrier never delivers into the past. Within a window each shard
// fires its events in (time, lane, counter) key order -- the same order
// the single-threaded DES uses under Config::site_ordered_events -- which
// is what makes the two backends produce identical per-site event
// sequences (tests/test_parallel_differential.cpp).
//
// Recovery episodes and the time series cross shards (site d crashes on
// one shard, another shard's site runs d's type-2), so they are folded
// once, not per shard: each shard buffers the trace events of a window,
// stamped with the key of the event that emitted them, and the driving
// thread merges the buffers in (time, key) order -- the DES's fire order
// -- at the barrier. Trace events emitted on the driving thread itself
// (global actions, direct calls) fold as they happen.
//
// Threading contract: all ClusterRuntime methods must be called from the
// driving thread (between windows, workers parked) or from inside a
// simulation event on a shard thread -- and in the latter case must only
// touch that shard's sites (Runner restricts its workload accordingly).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "sim/spsc_ring.h"

namespace ddbs {

class ParallelCluster : private CrossShardSink, public ClusterRuntime {
 public:
  // Forces cfg.site_ordered_events (keyed order is what makes parallel
  // execution deterministic); shard count is cfg.shard_count().
  ParallelCluster(Config cfg, uint64_t seed);
  ~ParallelCluster() override;

  SimTime now() const override { return now_; }
  void run_until(SimTime t) override;
  void schedule_global(SimTime at, EventFn fn) override;
  // Shard queue depths plus undrained mailbox-ring messages: the parallel
  // mirror of the DES's (pending - queued globals). Driving thread only.
  uint64_t pending_site_events() const override;

  int shard_count() const { return static_cast<int>(shards_.size()); }

 protected:
  SimTime next_event_time() override;

 private:
  // A pending global control action (DES lane-0 event): runs on the
  // driving thread at a window boundary, ordered by (time, insertion).
  struct Gop {
    SimTime at;
    uint64_t seq;
    EventFn fn;
  };

  // One shard's trace events of the current window, each stamped with the
  // key of the event that emitted it; outside a window it folds directly.
  struct TraceBuffer final : TraceSink {
    TraceBuffer(ParallelCluster& owner, const Scheduler& sched)
        : owner(owner), sched(sched) {}
    void on_trace(const TraceEvent& e) override;
    ParallelCluster& owner;
    const Scheduler& sched;
    std::vector<std::pair<EventKey, TraceEvent>> events;
    size_t next = 0; // merge cursor
  };

  // CrossShardSink: producer side of the mailbox rings (called by the
  // Network on a shard thread mid-window, or on the driving thread while
  // everything is parked).
  void forward(int src_shard, int dst_shard, RemoteMsg msg) override;

  // Move every queued cross-shard message into its destination shard's
  // event queue. Driving thread only, workers parked.
  void drain_rings();

  // Pop and run every global action due at or before `t`, with all shard
  // clocks advanced to the action's time first. Driving thread only.
  void run_gops_through(SimTime t);

  // Release the workers for one window ending at `end` (exclusive) and
  // block until all of them finish it.
  void run_window(SimTime end);

  // Fold the window's buffered trace events in (time, key) order and
  // empty the buffers. Driving thread only, workers parked.
  void fold_traces();

  // Global next-event time across shard queues and pending gops (rings
  // must be drained first); kNoTime when fully idle.
  SimTime next_time_global() const;

  void worker_loop(int shard);

  // (src, dst) mailbox rings, row-major [src * n_shards + dst].
  std::vector<std::unique_ptr<SpscRing<RemoteMsg>>> rings_;
  // Drain scratch, reused across windows.
  std::vector<RemoteMsg> inbox_;

  std::vector<std::unique_ptr<TraceBuffer>> trace_bufs_;
  // Set by the driving thread around each window; shard threads read it
  // only inside the window.
  bool in_window_ = false;

  // Min-heap of pending global actions by (at, seq).
  std::vector<Gop> gops_;
  uint64_t gop_seq_ = 0;

  SimTime now_ = 0;

  // Worker parking lot. Workers wait for epoch_ to advance, run one
  // window to win_end_, then report back through running_.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t epoch_ = 0;
  SimTime win_end_ = 0;
  int running_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;
};

} // namespace ddbs
