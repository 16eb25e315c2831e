// Site-parallel execution backend: the cluster's sites are split into
// contiguous shards (Config::shard_count), each with a private Scheduler,
// Metrics and Tracer (the event ring) -- the per-event hot path touches no
// shared mutable state at all. The driving thread (the one that calls
// run_until) runs shard 0 itself; shards 1..n-1 each get a worker thread.
//
// Synchronization is conservative PDES with time windows: the driving
// thread repeatedly computes the global next-event time `start`, executes
// any due global control actions (crash/recover, partitions, loss/latency
// changes -- the DES's lane-0 events), then runs one epoch window
// [start, end) on every shard, where
//
//     end = min(start + W, next global action, target + 1)
//     W   = LatencyModel::floor_min()   (min cross-site latency)
//
// Every cross-site message sent inside the window has arrival >= sent_at
// + W >= end, so it always lands beyond the window's end. Within a window
// each shard fires its events in (time, lane, counter) key order -- the
// same order the single-threaded DES uses under
// Config::site_ordered_events -- which is what makes the two backends
// produce identical per-site event sequences
// (tests/test_parallel_differential.cpp).
//
// Mailboxes. Cross-shard messages travel through one SPSC ring per
// (src, dst) shard pair. The producer (whichever thread runs shard src)
// also records the earliest arrival it pushed; between windows the driving
// thread folds those minima into a per-destination bound, so it finds the
// next `start` and the sparse-window test without touching a ring. Each
// shard drains its own inbound rings at the start of the window it runs
// in. Draining early is safe: a message pushed during the current window
// arrives at or after its end, and the event queue orders by key, not by
// insertion. Outside run_until (next_event_time, pending_site_events) the
// driving thread drains or counts the rings itself, with every worker
// parked.
//
// Parking lot. The driving thread publishes win_end_, stores running_ =
// worker count and bumps epoch_ (release), then runs shard 0. A worker
// that finishes decrements running_ (acq_rel); the last one notifies.
// Both sides wait in three stages: kSpinPauses pause instructions, then
// sched_yield for at most kYieldFor, then std::atomic::wait. Workers
// start parked and park again about 1 ms after their last window, so no
// thread burns CPU outside run_until. When only one shard has work below `end` (recovery bursts,
// skewed load) the driving thread runs that shard inline and the workers
// stay where they are.
//
// Recovery episodes and the time series cross shards (site d crashes on
// one shard, another shard's site runs d's type-2), so they are folded
// once, not per shard: each shard buffers the trace events of a window,
// stamped with the key of the event that emitted them, and the driving
// thread merges the buffers in (time, key) order -- the DES's fire order
// -- after the window. Trace events emitted outside windows (global
// actions, direct calls) fold as they happen.
//
// Threading contract: every ClusterRuntime method must be called from the
// driving thread between windows, or from inside a simulation event -- and
// in the latter case must only touch the running shard's sites (Runner
// restricts its workload accordingly). Shard 0's events run on the driving
// thread, the others' on their workers.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
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

  // Barrier wait stages: pause-spin this many times, then yield for at
  // most kYieldFor, then park (see the file comment).
  static constexpr int kSpinPauses = 256;
  static constexpr std::chrono::microseconds kYieldFor{1000};

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

  // One (src, dst) mailbox. `pushed_min` is the earliest arrival pushed
  // since the driving thread last folded it; only the thread running shard
  // src writes it inside a window.
  struct Mailbox {
    SpscRing<RemoteMsg> ring{4096};
    alignas(64) SimTime pushed_min = kNoTime;
  };

  // Earliest arrival that may still sit in a shard's inbound rings. The
  // driving thread lowers it between windows; the shard resets it when it
  // drains. Padded: each shard's runner writes its own.
  struct alignas(64) InboundBound {
    SimTime min = kNoTime;
  };

  // CrossShardSink: producer side of the mailboxes (called by the Network
  // on the thread running src_shard).
  void forward(int src_shard, int dst_shard, RemoteMsg msg) override;

  // Move every message in dst's inbound rings into its event queue. Called
  // by the thread running shard dst, or by the driving thread with every
  // worker parked.
  void drain_inbound(int dst);

  // Fold each mailbox's pushed_min into its destination's bound. Driving
  // thread only, workers parked.
  void fold_mailbox_mins();

  // Pop and run every global action due at or before `t`, with all shard
  // clocks advanced to the action's time first. Driving thread only.
  void run_gops_through(SimTime t);

  // Run one window ending at `end` (exclusive) on every shard with work
  // below it, and return once all of them have finished.
  void run_window(SimTime end);

  // One shard's share of a window: drain its mailboxes, fire its events.
  void run_shard(int shard, SimTime end);

  // Fold the window's buffered trace events in (time, key) order and
  // empty the buffers. Driving thread only, workers parked.
  void fold_traces();

  // Global next-event time across shard queues, inbound bounds and pending
  // gops (mailbox minima must be folded first); kNoTime when fully idle.
  SimTime next_time_global() const;

  void worker_loop(int shard);

  // (src, dst) mailboxes, row-major [src * n_shards + dst].
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<InboundBound> inbound_;
  // Drain scratch, one per shard: each shard drains on its own thread.
  std::vector<std::vector<RemoteMsg>> inbox_;

  std::vector<std::unique_ptr<TraceBuffer>> trace_bufs_;
  // Set by the driving thread around each window; shard threads read it
  // only inside the window.
  bool in_window_ = false;

  // Min-heap of pending global actions by (at, seq).
  std::vector<Gop> gops_;
  uint64_t gop_seq_ = 0;

  SimTime now_ = 0;

  // Parking lot (see the file comment). win_end_ is written before the
  // epoch_ release that publishes it and read after the acquire.
  std::atomic<uint64_t> epoch_{0};
  alignas(64) std::atomic<int> running_{0};
  std::atomic<bool> quit_{false};
  SimTime win_end_ = 0;
  std::vector<std::thread> threads_; // threads_[k] runs shard k + 1
};

} // namespace ddbs
