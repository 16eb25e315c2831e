// Simulated network: delivers envelopes between sites with sampled latency,
// drops anything addressed to (or queued for delivery at) a crashed site,
// and never partitions -- the paper's failure model is fail-stop sites only.
//
// The network is shard-aware: under the parallel backend each site shard
// runs on its own thread with a private Scheduler, and the Network keeps
// per-shard in-flight slabs and counters so the send/deliver hot path
// never touches another shard's state. A send whose destination lives on
// a different shard is handed to the CrossShardSink (the ParallelCluster's
// SPSC mailbox rings) instead of the local event queue; the destination
// shard re-injects it via enqueue_remote when it drains its mailboxes at
// the start of a window. With one shard (the classic DES) everything stays
// on the single local path.
#pragma once

#include <functional>
#include <vector>

#include "common/config.h"
#include "common/random.h"
#include "net/message.h"
#include "sim/latency_model.h"
#include "sim/scheduler.h"

namespace ddbs {

// A message crossing shards, carrying everything the destination shard
// needs to re-inject it: the pre-sampled arrival time, the send time (for
// the deterministic incarnation rule) and the pre-minted event key that
// both orders the delivery and salted the latency/loss draws.
struct RemoteMsg {
  Envelope env;
  SimTime arrival = 0;
  SimTime sent_at = 0;
  EventKey key = 0;
};

// Where cross-shard sends go; implemented by ParallelCluster with one
// SPSC ring per (src, dst) shard pair.
class CrossShardSink {
 public:
  virtual ~CrossShardSink() = default;
  virtual void forward(int src_shard, int dst_shard, RemoteMsg msg) = 0;
};

class Network {
 public:
  // Called with each delivered envelope, which it may move from.
  using Handler = std::function<void(Envelope&)>;

  // One scheduler per site shard; site s lives on shard site_shard[s].
  // `sink` receives cross-shard sends (unused with a single shard).
  Network(const std::vector<Scheduler*>& shard_scheds,
          std::vector<int> site_shard, const Config& cfg, uint64_t seed,
          CrossShardSink* sink = nullptr);

  void register_site(SiteId id, Handler handler);

  // Queue `env` for delivery after a sampled latency. If the sender is dead
  // the message is discarded immediately; if the destination is dead at
  // delivery time it is discarded then. Each site carries an incarnation
  // number so a message sent before a crash is never delivered into the
  // site's next life (the transport connection would have been reset).
  void send(Envelope env);

  // Re-inject a cross-shard message on the thread running the owning
  // shard (called by the parallel backend's mailbox drain).
  void enqueue_remote(int dst_shard, RemoteMsg msg);

  void set_alive(SiteId id, bool alive);
  bool alive(SiteId id) const;
  uint64_t incarnation(SiteId id) const;

  // Network partitions (paper Section 6 scope boundary): sites in
  // different groups cannot exchange messages; in-flight messages crossing
  // the cut at delivery time are dropped. Sites not mentioned in any group
  // form their own singleton group. Returns false -- leaving the current
  // partition state untouched -- when a group names an out-of-range SiteId
  // or a site appears in more than one group.
  bool set_partition(const std::vector<std::vector<SiteId>>& groups);
  void clear_partition();
  bool reachable(SiteId a, SiteId b) const;

  LatencyModel& latency() { return latency_; }

  // Runtime override of the live-link message-loss probability (the
  // nemesis engine uses this for drop bursts). Values outside [0, 1] are
  // clamped.
  void set_loss_prob(double p);
  double loss_prob() const { return loss_prob_; }

  // Counters for benches, summed across shards. A message discarded
  // because its *sender* was already dead never reached the wire: it
  // counts in dropped_at_send only, not in sent or dropped, so
  // message-overhead numbers aren't inflated by crash noise.
  uint64_t messages_sent() const;
  uint64_t messages_dropped() const;
  uint64_t messages_dropped_at_send() const;

 private:
  struct SiteSlot {
    Handler handler;
    bool alive = false;
    uint64_t incarnation = 0;
    // Simulated time the current incarnation started (last revival). The
    // deterministic mode drops a message iff it was SENT before this --
    // locally decidable at delivery without reading the destination's
    // state from the sending shard.
    SimTime inc_started = 0;
    int group = 0; // partition group; same group <=> reachable
  };
  // In-flight messages live in a recycled slab; the delivery event captures
  // only a slot index, so the Envelope is moved (never copied) from send()
  // to handler dispatch and the closure stays within InlineFn's inline
  // buffer -- no per-message heap allocation in the steady state.
  struct InFlight {
    Envelope env;
    uint64_t dest_inc = 0;
    SimTime sent_at = 0;
  };
  // Per-shard mutable state, cacheline-padded so shard threads never
  // false-share. Shard 0 is the only shard in the classic DES.
  struct alignas(64) Shard {
    Scheduler* sched = nullptr;
    std::vector<InFlight> inflight;
    std::vector<uint32_t> inflight_free;
    uint64_t sent = 0;
    uint64_t dropped = 0;
    uint64_t dropped_at_send = 0;
  };

  uint32_t stash(Shard& sh, Envelope env, uint64_t dest_inc,
                 SimTime sent_at);
  void deliver(int shard, uint32_t slot);

  LatencyModel latency_;
  Rng loss_rng_;
  uint64_t loss_seed_;
  double loss_prob_;
  bool det_; // cfg.site_ordered_events: keyed order + hashed sampling
  CrossShardSink* sink_ = nullptr;
  std::vector<Shard> shards_;
  std::vector<int> site_shard_;
  std::vector<SiteSlot> sites_;
};

} // namespace ddbs
