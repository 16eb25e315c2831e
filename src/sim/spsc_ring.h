// Bounded single-producer/single-consumer ring with a mutex-guarded
// overflow spill, the cross-shard mailbox of the parallel backend. One
// ring exists per (producer shard, consumer shard) pair, so the common
// path is a lock-free acquire/release ring slot; only a full ring falls
// back to the spill vector. The producer must never block: it runs inside
// a simulation window and the consumer may be done with that window and
// parked -- spinning on a full ring would deadlock the barrier, hence
// the unbounded spill instead of back-pressure.
//
// Who is which end (core/parallel_cluster.h): the producer is whichever
// thread runs the source shard -- its worker, or the driving thread for
// shard 0, inline sparse windows and global actions. The consumer is
// whichever thread runs the destination shard, at the start of each
// window it runs in, so a drain may overlap the producer's pushes of the
// same window; outside windows, with every worker parked, the driving
// thread drains and counts. The epoch barrier orders every change of
// thread at either end.
//
// Drain order does not matter for correctness: every message carries its
// own (arrival time, event key), and the consumer inserts it into its
// event queue, which restores the deterministic order. The ring is purely
// a handoff buffer.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace ddbs {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two; one slot is sacrificed to
  // distinguish full from empty.
  explicit SpscRing(size_t capacity = 1024) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  // Producer side. Never blocks, never fails: a full ring diverts to the
  // spill under the mutex (rare; sized so the steady state stays on the
  // ring).
  void push(T v) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail <= mask_) {
      slots_[head & mask_] = std::move(v);
      head_.store(head + 1, std::memory_order_release);
      return;
    }
    std::lock_guard<std::mutex> lock(spill_mu_);
    spill_.push_back(std::move(v));
    spilled_.store(true, std::memory_order_release);
  }

  // Consumer side: append everything currently visible to `out`. Returns
  // the number of messages drained.
  size_t drain(std::vector<T>& out) {
    size_t n = 0;
    const size_t head = head_.load(std::memory_order_acquire);
    size_t tail = tail_.load(std::memory_order_relaxed);
    while (tail != head) {
      out.push_back(std::move(slots_[tail & mask_]));
      ++tail;
      ++n;
    }
    tail_.store(tail, std::memory_order_release);
    if (spilled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(spill_mu_);
      for (T& v : spill_) {
        out.push_back(std::move(v));
        ++n;
      }
      spill_.clear();
      spilled_.store(false, std::memory_order_release);
    }
    return n;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire) &&
           !spilled_.load(std::memory_order_acquire);
  }

  // Messages currently queued (ring + spill). Exact only while both ends
  // are quiet -- i.e. on the driving thread with the workers parked, which
  // is where the telemetry queue-depth probe runs.
  size_t size() const {
    size_t n = head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire);
    if (spilled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(spill_mu_);
      n += spill_.size();
    }
    return n;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
  std::atomic<bool> spilled_{false};
  mutable std::mutex spill_mu_;
  std::vector<T> spill_;
};

} // namespace ddbs
