#include "core/parallel_cluster.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Wait until `done(a)` holds: spin, then yield, then park on the atomic.
// Returns the value that satisfied `done`.
template <typename T, typename Done>
T await(const std::atomic<T>& a, Done done) {
  T v = a.load(std::memory_order_acquire);
  for (int i = 0; !done(v) && i < ParallelCluster::kSpinPauses; ++i) {
    cpu_relax();
    v = a.load(std::memory_order_acquire);
  }
  if (done(v)) return v;
  const auto give_up =
      std::chrono::steady_clock::now() + ParallelCluster::kYieldFor;
  while (!done(v) && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
    v = a.load(std::memory_order_acquire);
  }
  while (!done(v)) {
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

} // namespace

ParallelCluster::ParallelCluster(Config cfg, uint64_t seed)
    : ClusterRuntime(normalized(std::move(cfg)), seed, this) {
  const int n = shard_count();
  mailboxes_.reserve(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (int i = 0; i < n * n; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  inbound_.resize(static_cast<size_t>(n));
  inbox_.resize(static_cast<size_t>(n));
  for (auto& sh : shards_) {
    trace_bufs_.push_back(std::make_unique<TraceBuffer>(*this, sh->sched));
    sh->tracer.add_sink(trace_bufs_.back().get());
  }
  threads_.reserve(static_cast<size_t>(n - 1));
  for (int k = 1; k < n; ++k)
    threads_.emplace_back([this, k] { worker_loop(k); });
}

ParallelCluster::~ParallelCluster() {
  quit_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
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
  Mailbox& mb =
      *mailboxes_[static_cast<size_t>(src_shard * shard_count() + dst_shard)];
  if (mb.pushed_min == kNoTime || msg.arrival < mb.pushed_min)
    mb.pushed_min = msg.arrival;
  mb.ring.push(std::move(msg));
}

void ParallelCluster::drain_inbound(int dst) {
  const int n = shard_count();
  std::vector<RemoteMsg>& inbox = inbox_[static_cast<size_t>(dst)];
  for (int src = 0; src < n; ++src)
    mailboxes_[static_cast<size_t>(src * n + dst)]->ring.drain(inbox);
  // Order within the inbox is irrelevant: every message carries its own
  // (arrival, key) and the destination event queue restores the total
  // deterministic order.
  for (RemoteMsg& m : inbox) network().enqueue_remote(dst, std::move(m));
  inbox.clear();
  inbound_[static_cast<size_t>(dst)].min = kNoTime;
}

void ParallelCluster::fold_mailbox_mins() {
  const int n = shard_count();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      Mailbox& mb = *mailboxes_[static_cast<size_t>(src * n + dst)];
      if (mb.pushed_min == kNoTime) continue;
      SimTime& lo = inbound_[static_cast<size_t>(dst)].min;
      if (lo == kNoTime || mb.pushed_min < lo) lo = mb.pushed_min;
      mb.pushed_min = kNoTime;
    }
  }
}

SimTime ParallelCluster::next_time_global() const {
  SimTime lo = kNoTime;
  auto lower = [&lo](SimTime t) {
    if (t != kNoTime && (lo == kNoTime || t < lo)) lo = t;
  };
  for (const auto& sh : shards_) lower(sh->sched.next_event_time());
  for (const InboundBound& b : inbound_) lower(b.min);
  if (!gops_.empty()) lower(gops_.front().at);
  return lo;
}

SimTime ParallelCluster::next_event_time() {
  fold_mailbox_mins();
  for (int dst = 0; dst < shard_count(); ++dst) drain_inbound(dst);
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

void ParallelCluster::run_shard(int shard, SimTime end) {
  drain_inbound(shard);
  shards_[static_cast<size_t>(shard)]->sched.run_window(end);
}

void ParallelCluster::run_window(SimTime end) {
  // Sparse window: when a single shard has due work (common during
  // recovery bursts or skewed load), run it inline instead of paying the
  // handoff. Safe: the workers are parked, so the driving thread is the
  // only one touching the shard -- and execution order is the shard's own
  // key order either way. Shards left out have nothing below `end`, in
  // their queue or their mailboxes.
  const auto due = [end](SimTime t) { return t != kNoTime && t < end; };
  int only = -1;
  int active = 0;
  for (int k = 0; k < shard_count() && active < 2; ++k) {
    if (due(shards_[static_cast<size_t>(k)]->sched.next_event_time()) ||
        due(inbound_[static_cast<size_t>(k)].min)) {
      only = k;
      ++active;
    }
  }
  if (active == 0) return;
  if (active == 1) {
    run_shard(only, end);
    return;
  }
  win_end_ = end;
  running_.store(static_cast<int>(threads_.size()), std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  run_shard(0, end);
  await(running_, [](int v) { return v == 0; });
}

void ParallelCluster::worker_loop(int shard) {
  // Nothing to spin for during construction and bootstrap: park until the
  // first window (or teardown).
  epoch_.wait(0, std::memory_order_acquire);
  uint64_t seen = 0;
  while (true) {
    seen = await(epoch_, [seen](uint64_t v) { return v != seen; });
    if (quit_.load(std::memory_order_relaxed)) return;
    run_shard(shard, win_end_);
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      running_.notify_one();
  }
}

void ParallelCluster::run_until(SimTime target) {
  while (true) {
    // Workers are parked here, so the driving thread may read the mailbox
    // minima and touch any shard's scheduler directly.
    fold_mailbox_mins();
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
  // Shard queues hold scheduled site events; mailboxes hold cross-shard
  // sends their destination has not drained yet. Globals live in gops_ and
  // are excluded, mirroring the DES's pending_globals_ subtraction.
  uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sched.pending();
  for (const auto& mb : mailboxes_) n += mb->ring.size();
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
