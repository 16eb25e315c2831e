// A fixed reference kernel that measures how fast the host runs right now.
//
// On a shared host the neighbours' load changes the speed of the same code
// by a third within seconds (shared last-level cache and memory bandwidth,
// hypervisor scheduling of the virtual cores), so raw wall time mixes the
// program's speed with the host's. The probe runs a constant amount of
// simulator-shaped work -- a binary-heap event queue whose events update
// records scattered over a 16 MiB table -- at every slice boundary of a
// rep. With more than one thread it runs one such lane per thread, in short
// rounds that end at a barrier, as the parallel backend's windows do, so it
// also feels a virtual core that is slow to wake or to run. Its time tracks
// the host's speed for the slice just run and does not depend on the
// library, so dividing a slice's wall time by it leaves the library's own
// speed. See normalised_window_s in stats.h.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  static constexpr size_t kTableBytes = size_t{16} << 20;
  static constexpr uint32_t kEvents = 65'536;
  // The probe time of one call on the reference host (a 4-core x86-64 VM
  // on a shared Xeon host, -O3), about what a single-thread call takes
  // there on a quiet host: normalised times are in seconds of that host.
  static constexpr double kReferenceSeconds = 1.2e-3;

  explicit HostProbe(int threads)
      : lanes_(static_cast<size_t>(std::max(threads, 1))) {
    if (threads <= 1) return;
    for (int i = 0; i < threads; ++i) {
      helpers_.emplace_back([this, i] { helper_loop(i); });
    }
  }
  ~HostProbe() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    work_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Memory the probe keeps resident for the whole run; peak_rss_mb leaves
  // it out.
  size_t resident_bytes() const {
    return lanes_.size() *
           (kTableBytes + kEvents * sizeof(std::pair<uint64_t, uint32_t>));
  }

  // Runs the fixed work once; returns its wall seconds.
  double run() {
    const auto t0 = Clock::now();
    if (helpers_.empty()) {
      lanes_.front().steps(kSteps);
    } else {
      for (int round = 0; round < kRounds; ++round) {
        std::unique_lock<std::mutex> lk(mu_);
        running_ = static_cast<int>(helpers_.size());
        ++epoch_;
        work_.notify_all();
        done_.wait(lk, [this] { return running_ == 0; });
      }
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr int kSteps = 5'000;
  static constexpr int kRounds = 20;

  // One thread's share: its own event heap and table.
  class Lane {
   public:
    Lane() : table_(kTableBytes / sizeof(Record)) {
      heap_.reserve(kEvents);
      for (uint32_t i = 0; i < kEvents; ++i) {
        heap_.push_back({next() % 1'000'000, slot(next())});
      }
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    void steps(int n) {
      for (int i = 0; i < n; ++i) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        Event& ev = heap_.back();
        Record& r = table_[ev.second];
        r.a += ev.first;
        r.b ^= r.a * 0x9e3779b97f4a7c15ull;
        sink_ += r.b;
        ev = {ev.first + 1 + next() % 5'000, slot(r.b ^ next())};
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
      // Keeps the work observable so the optimiser cannot drop it.
      if (sink_ == 1) table_.front().a = 0;
    }

   private:
    using Event = std::pair<uint64_t, uint32_t>; // (due time, table slot)
    struct Record {
      uint64_t a = 0, b = 0;
    };

    uint64_t next() {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      return x_;
    }
    uint32_t slot(uint64_t r) const {
      return static_cast<uint32_t>(r % table_.size());
    }

    std::vector<Record> table_;
    std::vector<Event> heap_;
    uint64_t x_ = 88172645463325252ull;
    uint64_t sink_ = 0;
  };

  void helper_loop(int lane) {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      work_.wait(lk, [&] { return quit_ || epoch_ != seen; });
      if (quit_) return;
      seen = epoch_;
      lk.unlock();
      lanes_[static_cast<size_t>(lane)].steps(kSteps / kRounds);
      lk.lock();
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::vector<Lane> lanes_;
  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable work_, done_;
  uint64_t epoch_ = 0;
  int running_ = 0;
  bool quit_ = false;
};

} // namespace perfbench
