#include "net/network.h"

#include <cassert>

#include "common/logging.h"

namespace ddbs {

Network::Network(const std::vector<Scheduler*>& shard_scheds,
                 std::vector<int> site_shard, const Config& cfg,
                 uint64_t seed, CrossShardSink* sink)
    : latency_(cfg.net_latency_min, cfg.net_latency_max, seed ^ 0xabcdef),
      loss_rng_(seed ^ 0x1234567),
      loss_seed_(seed ^ 0x1234567),
      loss_prob_(cfg.msg_loss_prob),
      det_(cfg.site_ordered_events),
      sink_(sink),
      shards_(shard_scheds.size()),
      site_shard_(std::move(site_shard)),
      sites_(static_cast<size_t>(cfg.n_sites)) {
  assert(site_shard_.size() == sites_.size());
  for (size_t i = 0; i < shard_scheds.size(); ++i)
    shards_[i].sched = shard_scheds[i];
}

void Network::register_site(SiteId id, Handler handler) {
  assert(id >= 0 && static_cast<size_t>(id) < sites_.size());
  sites_[static_cast<size_t>(id)].handler = std::move(handler);
}

void Network::set_alive(SiteId id, bool alive) {
  auto& slot = sites_[static_cast<size_t>(id)];
  if (alive && !slot.alive) {
    ++slot.incarnation;
    slot.inc_started =
        shards_[static_cast<size_t>(site_shard_[static_cast<size_t>(id)])]
            .sched->now();
  }
  slot.alive = alive;
}

bool Network::alive(SiteId id) const {
  return sites_[static_cast<size_t>(id)].alive;
}

uint64_t Network::incarnation(SiteId id) const {
  return sites_[static_cast<size_t>(id)].incarnation;
}

bool Network::set_partition(const std::vector<std::vector<SiteId>>& groups) {
  // Validate before mutating anything: an out-of-range SiteId or a site
  // in two groups would otherwise silently produce a nonsensical topology
  // (the old group assignment of the duplicate simply lost).
  std::vector<bool> assigned(sites_.size(), false);
  for (const auto& group : groups) {
    for (SiteId s : group) {
      if (s < 0 || static_cast<size_t>(s) >= sites_.size()) {
        DDBS_ERROR << "set_partition: site " << s << " out of range [0, "
                   << sites_.size() << "); partition unchanged";
        return false;
      }
      if (assigned[static_cast<size_t>(s)]) {
        DDBS_ERROR << "set_partition: site " << s
                   << " appears in more than one group; partition unchanged";
        return false;
      }
      assigned[static_cast<size_t>(s)] = true;
    }
  }
  // Unmentioned sites land in unique groups after the named ones.
  int next = 1;
  for (auto& slot : sites_) slot.group = 0;
  for (const auto& group : groups) {
    for (SiteId s : group) sites_[static_cast<size_t>(s)].group = next;
    ++next;
  }
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (!assigned[i]) sites_[i].group = next++;
  }
  return true;
}

void Network::set_loss_prob(double p) {
  loss_prob_ = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
}

void Network::clear_partition() {
  for (auto& slot : sites_) slot.group = 0;
}

bool Network::reachable(SiteId a, SiteId b) const {
  return sites_[static_cast<size_t>(a)].group ==
         sites_[static_cast<size_t>(b)].group;
}

uint32_t Network::stash(Shard& sh, Envelope env, uint64_t dest_inc,
                        SimTime sent_at) {
  uint32_t idx;
  if (!sh.inflight_free.empty()) {
    idx = sh.inflight_free.back();
    sh.inflight_free.pop_back();
    sh.inflight[idx].env = std::move(env);
    sh.inflight[idx].dest_inc = dest_inc;
    sh.inflight[idx].sent_at = sent_at;
  } else {
    idx = static_cast<uint32_t>(sh.inflight.size());
    sh.inflight.push_back(InFlight{std::move(env), dest_inc, sent_at});
  }
  return idx;
}

void Network::send(Envelope env) {
  assert(env.to >= 0 && static_cast<size_t>(env.to) < sites_.size());
  const int src = site_shard_[static_cast<size_t>(env.from)];
  Shard& sh = shards_[static_cast<size_t>(src)];
  if (!alive(env.from)) {
    // A dead sender emits nothing: not a wire-level send, not a drop.
    ++sh.dropped_at_send;
    return;
  }
  ++sh.sent;
  if (!reachable(env.from, env.to)) {
    ++sh.dropped;
    return;
  }
  if (det_) {
    // Deterministic path: the delivery key orders the event AND salts the
    // loss/latency draws, so the message's entire fate is a pure function
    // of (seed, key) -- identical whichever thread executes the send.
    // The key is minted in the sending site's lane even for lost
    // messages, keeping the lane counters in lockstep across backends.
    const EventKey key = sh.sched->mint_ambient_key();
    if (env.from != env.to && loss_prob_ > 0 &&
        static_cast<double>(mix_u64(loss_seed_ ^ key) >> 11) * 0x1.0p-53 <
            loss_prob_) {
      ++sh.dropped;
      return;
    }
    const SimTime sent_at = sh.sched->now();
    const SimTime arrival =
        sent_at + latency_.sample_hashed(env.from, env.to, key);
    const int dst = site_shard_[static_cast<size_t>(env.to)];
    if (dst != src) {
      sink_->forward(src, dst,
                     RemoteMsg{std::move(env), arrival, sent_at, key});
      return;
    }
    const uint32_t idx = stash(sh, std::move(env), 0, sent_at);
    sh.sched->at_keyed(arrival, key,
                       [this, src, idx]() { deliver(src, idx); });
    return;
  }
  if (env.from != env.to && loss_prob_ > 0 &&
      loss_rng_.bernoulli(loss_prob_)) {
    ++sh.dropped;
    return;
  }
  const uint64_t dest_inc = incarnation(env.to);
  const SimTime delay = latency_.sample(env.from, env.to);
  const uint32_t idx = stash(sh, std::move(env), dest_inc, 0);
  sh.sched->after(delay, [this, src, idx]() { deliver(src, idx); });
}

void Network::enqueue_remote(int dst_shard, RemoteMsg msg) {
  Shard& sh = shards_[static_cast<size_t>(dst_shard)];
  const uint32_t idx = stash(sh, std::move(msg.env), 0, msg.sent_at);
  sh.sched->at_keyed(msg.arrival, msg.key, [this, dst_shard, idx]() {
    deliver(dst_shard, idx);
  });
}

void Network::deliver(int shard, uint32_t slot) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  // Move the message out of the slab before dispatch: the handler may send
  // (and thus allocate in-flight slots, invalidating references into
  // inflight_) re-entrantly.
  Envelope env = std::move(sh.inflight[slot].env);
  const uint64_t dest_inc = sh.inflight[slot].dest_inc;
  const SimTime sent_at = sh.inflight[slot].sent_at;
  sh.inflight_free.push_back(slot);
  const SiteSlot& dest = sites_[static_cast<size_t>(env.to)];
  const bool stale_incarnation =
      det_ ? sent_at < dest.inc_started : dest.incarnation != dest_inc;
  if (!dest.alive || stale_incarnation || !reachable(env.from, env.to)) {
    ++sh.dropped;
    return;
  }
  assert(dest.handler && "site registered no handler");
  if (det_) {
    // Work done by the handler belongs to the receiving site: retarget
    // the ambient key-minting lane before dispatch.
    sh.sched->set_context_site(env.to);
  }
  dest.handler(env);
}

uint64_t Network::messages_sent() const {
  uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.sent;
  return n;
}

uint64_t Network::messages_dropped() const {
  uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.dropped;
  return n;
}

uint64_t Network::messages_dropped_at_send() const {
  uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.dropped_at_send;
  return n;
}

} // namespace ddbs
