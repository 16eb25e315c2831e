// Deterministic discrete-event scheduler. Single-threaded: "concurrency"
// in the DDBS is the interleaving of message-delivery and timer events,
// which is exactly the granularity the paper's protocol reasons about. The
// parallel backend runs one Scheduler per site shard; cross-shard order is
// then governed by the event keys below plus the conservative lookahead
// windows in ParallelCluster, never by a shared queue.
//
// Protocol code must never read now() to make decisions -- the simulated
// clock exists for measurement and for timers only (the paper's algorithm
// assumes no global clock).
//
// Site-ordered key mode (enable_site_keys): every event is keyed by
// (lane, counter) where the lane identifies the *origin* of the
// scheduling -- lane 0 for global control actions (partitions, loss,
// latency skew), lane 1 for context-free/external scheduling, lane s + 2
// for work initiated while executing site s. The scheduler tracks an
// ambient context lane: executing an event sets it from the event's key,
// and Network::deliver retargets it to the destination site before
// invoking the handler, so protocol code transparently mints keys in the
// lane of the site doing the work. Per-lane counters make the key streams
// locally computable -- a shard owning sites {a..b} mints exactly the same
// keys for those sites as the single-threaded DES does, which is what
// makes the two backends order-equivalent.
//
// Timeouts (timeout()) and ordinary events share one EventQueue: the
// former sit in per-delay FIFO lists, the latter in the heap, and the run
// loops take the earliest of both by (time, key), peeking the head once
// per fired event.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace ddbs {

// Lane assignment for site-ordered event keys.
constexpr uint32_t kLaneGlobal = 0;   // global control actions (barrier ops)
constexpr uint32_t kLaneExternal = 1; // context-free / main-thread posts
constexpr uint32_t lane_of_site(SiteId s) {
  return static_cast<uint32_t>(s) + 2;
}

class Scheduler {
 public:
  SimTime now() const { return now_; }

  // Schedule fn at absolute time `at` (>= now) or after a delay. In
  // site-ordered mode the key is minted from the ambient context lane.
  EventId at(SimTime when, EventFn fn);
  EventId after(SimTime delay, EventFn fn);
  // Schedule with a pre-minted key (site-ordered mode only): the network
  // mints delivery keys eagerly so the same key can salt the latency hash.
  EventId at_keyed(SimTime when, EventKey key, EventFn fn);
  // A backstop timeout: like after(delay, fn) -- same key, same fire
  // order -- but filed in the queue's FIFO list for `delay` instead of the
  // heap, because it is expected to be cancelled. Use it for timers armed
  // with a fixed configured delay (RPC, lock wait, termination, DM
  // activity, transaction deadline): the queue keeps one list per delay.
  EventId timeout(SimTime delay, EventFn fn);
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Switch to site-ordered (lane, counter) keys; `n_sites` sizes the
  // per-lane counter table. Must be called before any event is scheduled.
  void enable_site_keys(int n_sites);
  bool site_keys() const { return site_keys_; }

  // Mint the next key in `lane` / in the ambient context lane. Counters
  // are per-lane 32-bit with wraparound compare (see EventKey).
  EventKey mint_key(uint32_t lane) {
    return make_event_key(lane, lane_counters_[lane]++);
  }
  EventKey mint_ambient_key() { return mint_key(context_lane_); }

  // Ambient origin lane for key minting. Execution sets it from the fired
  // event's key; Network::deliver overrides it to the destination site.
  uint32_t context_lane() const { return context_lane_; }
  // Key of the event firing now (of the last one fired, between events).
  EventKey current_key() const { return current_key_; }
  void set_context_site(SiteId s) { context_lane_ = lane_of_site(s); }
  void set_context_lane(uint32_t lane) { context_lane_ = lane; }
  void set_context_free() { context_lane_ = kLaneExternal; }

  // Run until the queue drains or the clock passes `until` (inclusive).
  // Returns the number of events executed.
  size_t run_until(SimTime until);
  // Conservative-window variant: run events with time STRICTLY below
  // `end`, leaving the clock at the last fired event. The parallel
  // backend's shard loop uses this so an epoch [start, end) never executes
  // an event that a cross-shard message still in flight could precede; the
  // barrier completion advances idle shards' clocks with advance_to.
  size_t run_window(SimTime end);
  void advance_to(SimTime t) {
    if (now_ < t) now_ = t;
  }
  size_t run_all(size_t max_events = 50'000'000);

  bool idle() const { return queue_.empty(); }
  size_t pending() const { return queue_.size(); }
  SimTime next_event_time() const { return queue_.next_time(); }
  // Total events executed over the scheduler's lifetime; the numerator of
  // the events_per_sec throughput scalar in run reports.
  uint64_t executed() const { return executed_; }

 private:
  void fire(EventQueue::Fired& fired);

  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t executed_ = 0;
  bool site_keys_ = false;
  uint32_t context_lane_ = kLaneExternal;
  EventKey current_key_ = 0;
  std::vector<uint32_t> lane_counters_;
};

} // namespace ddbs
