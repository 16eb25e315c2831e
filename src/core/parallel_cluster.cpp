#include "core/parallel_cluster.h"

#include <algorithm>

#include "core/cluster.h"

namespace ddbs {

namespace {

Config normalized(Config cfg) {
  // Keyed per-site event order is not optional here: it is what makes the
  // shard threads' interleaving deterministic and DES-equivalent.
  cfg.site_ordered_events = true;
  if (cfg.n_threads < 1) cfg.n_threads = 1;
  return cfg;
}

// Heap order for the pending global actions: earliest (at, seq) on top.
constexpr auto gop_after = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

} // namespace

ParallelCluster::ParallelCluster(Config cfg, uint64_t seed)
    : ClusterRuntime(normalized(std::move(cfg)), seed, this) {
  const int n = shard_count();
  rings_.reserve(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (int i = 0; i < n * n; ++i)
    rings_.push_back(std::make_unique<SpscRing<RemoteMsg>>(4096));
  for (auto& sh : shards_) {
    trace_bufs_.push_back(std::make_unique<TraceBuffer>(*this, sh->sched));
    sh->tracer.add_sink(trace_bufs_.back().get());
  }
  if (n > 1) {
    threads_.reserve(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k)
      threads_.emplace_back([this, k] { worker_loop(k); });
  }
}

ParallelCluster::~ParallelCluster() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void ParallelCluster::TraceBuffer::on_trace(const TraceEvent& e) {
  if (owner.in_window_) {
    events.emplace_back(sched.current_key(), e);
  } else {
    owner.fold_trace(e);
  }
}

void ParallelCluster::fold_traces() {
  // k-way merge: each buffer is already in its shard's (time, key) fire
  // order, and a key names one event, so the merge is the DES order.
  while (true) {
    TraceBuffer* best = nullptr;
    for (auto& buf : trace_bufs_) {
      if (buf->next == buf->events.size()) continue;
      if (best == nullptr) {
        best = buf.get();
        continue;
      }
      const auto& [ka, a] = buf->events[buf->next];
      const auto& [kb, b] = best->events[best->next];
      if (event_before(a.at, ka, b.at, kb)) best = buf.get();
    }
    if (best == nullptr) break;
    fold_trace(best->events[best->next++].second);
  }
  for (auto& buf : trace_bufs_) {
    buf->events.clear();
    buf->next = 0;
  }
}

void ParallelCluster::forward(int src_shard, int dst_shard, RemoteMsg msg) {
  rings_[static_cast<size_t>(src_shard * shard_count() + dst_shard)]->push(
      std::move(msg));
}

void ParallelCluster::drain_rings() {
  const int n = shard_count();
  for (int dst = 0; dst < n; ++dst) {
    inbox_.clear();
    for (int src = 0; src < n; ++src)
      rings_[static_cast<size_t>(src * n + dst)]->drain(inbox_);
    // Order within the inbox is irrelevant: every message carries its own
    // (arrival, key) and the destination event queue restores the total
    // deterministic order.
    for (RemoteMsg& m : inbox_) network().enqueue_remote(dst, std::move(m));
  }
  inbox_.clear();
}

SimTime ParallelCluster::next_time_global() const {
  SimTime lo = kNoTime;
  for (const auto& sh : shards_) {
    const SimTime t = sh->sched.next_event_time();
    if (t != kNoTime && (lo == kNoTime || t < lo)) lo = t;
  }
  if (!gops_.empty()) {
    const SimTime g = gops_.front().at;
    if (lo == kNoTime || g < lo) lo = g;
  }
  return lo;
}

SimTime ParallelCluster::next_event_time() {
  drain_rings();
  return next_time_global();
}

void ParallelCluster::run_gops_through(SimTime t) {
  while (!gops_.empty() && gops_.front().at <= t) {
    std::pop_heap(gops_.begin(), gops_.end(), gop_after);
    Gop g = std::move(gops_.back());
    gops_.pop_back();
    // The action observes every shard clock at its own time, exactly like
    // the DES firing a lane-0 event.
    for (auto& sh : shards_) sh->sched.advance_to(g.at);
    if (now_ < g.at) now_ = g.at;
    g.fn();
  }
}

void ParallelCluster::run_window(SimTime end) {
  if (threads_.empty()) {
    shards_[0]->sched.run_window(end);
    return;
  }
  // Sparse window: when a single shard has due work (common during
  // recovery bursts or skewed load), run it inline instead of paying the
  // barrier round-trip. Safe: the workers are parked, so the driving
  // thread is the only one touching the shard -- and execution order is
  // the shard's own key order either way.
  {
    Shard* only = nullptr;
    int active = 0;
    for (auto& sh : shards_) {
      const SimTime next = sh->sched.next_event_time();
      if (next != kNoTime && next < end) {
        only = sh.get();
        if (++active > 1) break;
      }
    }
    if (active == 0) return;
    if (active == 1) {
      only->sched.run_window(end);
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    win_end_ = end;
    running_ = shard_count();
    ++epoch_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return running_ == 0; });
}

void ParallelCluster::worker_loop(int shard) {
  Scheduler& sched = shards_[static_cast<size_t>(shard)]->sched;
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] { return quit_ || epoch_ != seen; });
    if (quit_) return;
    seen = epoch_;
    const SimTime end = win_end_;
    lk.unlock();
    sched.run_window(end);
    lk.lock();
    if (--running_ == 0) cv_done_.notify_one();
  }
}

void ParallelCluster::run_until(SimTime target) {
  while (true) {
    // Workers are parked here, so the driving thread may drain mailboxes
    // and touch any shard's scheduler directly.
    drain_rings();
    SimTime start = next_time_global();
    if (start == kNoTime || start > target) break;
    if (!gops_.empty() && gops_.front().at <= start) {
      run_gops_through(start);
      continue; // a gop may have scheduled work or another gop
    }
    // Conservative lookahead: any cross-site message sent inside
    // [start, end) arrives at >= start + W >= end, so a window never
    // misses a delivery from a concurrent shard.
    SimTime w = network().latency().floor_min();
    if (w < 1) w = 1;
    SimTime end = start + w;
    if (!gops_.empty() && gops_.front().at < end) end = gops_.front().at;
    if (end > target + 1) end = target + 1;
    in_window_ = true;
    run_window(end);
    in_window_ = false;
    fold_traces();
    const SimTime reached = std::min(end, target);
    for (auto& sh : shards_) sh->sched.advance_to(reached);
    if (now_ < reached) now_ = reached;
  }
  for (auto& sh : shards_) sh->sched.advance_to(target);
  if (now_ < target) now_ = target;
}

void ParallelCluster::schedule_global(SimTime at, EventFn fn) {
  gops_.push_back(Gop{at, gop_seq_++, std::move(fn)});
  std::push_heap(gops_.begin(), gops_.end(), gop_after);
}

uint64_t ParallelCluster::pending_site_events() const {
  // Shard queues hold scheduled site events; rings hold cross-shard sends
  // a gop produced since the last drain. Globals live in gops_ and are
  // excluded, mirroring the DES's pending_globals_ subtraction.
  uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sched.pending();
  for (const auto& r : rings_) n += r->size();
  return n;
}

std::unique_ptr<ClusterRuntime> make_runtime(const Config& cfg,
                                             uint64_t seed) {
  if (cfg.n_threads > 1 && cfg.shard_count() > 1) {
    return std::make_unique<ParallelCluster>(cfg, seed);
  }
  return std::make_unique<Cluster>(cfg, seed);
}

} // namespace ddbs
