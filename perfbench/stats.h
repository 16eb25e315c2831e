// The benchmark's own arithmetic, kept apart from the workload driver so
// perfbench_selftest can pin it down: the tail-percentile rule, the
// host-normalised load time behind commits_per_s, recovery phase durations from
// RecoveryEpisode milestones, zero-safe per-commit ratios, and the timing
// HistorySink interposed in front of the online verifier.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/report.h"
#include "verify/history.h"

namespace perfbench {

// ---- percentiles ----------------------------------------------------------

// The highest percentile of {50, 90, 99, 99.9, 99.99} that leaves at least
// ten samples beyond it -- the tail a sample of `n` supports -- capped at
// `wanted`. `beyond` is that sample count. With fewer than 20 samples not
// even the median qualifies: `pct` is then 50 and `supported` false, so a
// caller can still print a median but must flag it.
struct TailPick {
  double pct = 50;
  size_t beyond = 0;
  bool supported = false;
};

inline size_t samples_beyond(size_t n, double pct) {
  // Nearest-rank: the pct-th percentile is sample ceil(pct/100 * n); the
  // samples strictly after it are beyond. The epsilon keeps exact products
  // (99% of 1000) from rounding up a rank.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const auto r = static_cast<size_t>(std::max(rank, 0.0));
  return n > r ? n - r : 0;
}

inline TailPick tail_percentile(size_t n, double wanted = 99.99) {
  static constexpr double kLadder[] = {50, 90, 99, 99.9, 99.99};
  TailPick pick{50, samples_beyond(n, 50), false};
  for (double p : kLadder) {
    if (p > wanted + 1e-9) break;
    const size_t beyond = samples_beyond(n, p);
    if (beyond < 10) break;
    pick = TailPick{p, beyond, true};
  }
  return pick;
}

// Exact nearest-rank percentile of unsorted samples; 0 when empty.
inline double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(v.size()) - 1e-9);
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// Median in the usual sense (mean of the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

inline double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ---- wall-clock load time ----------------------------------------------------

// The load window's wall time with the host's speed taken out. slice_s[i]
// is the wall time of slice i and probe_s[i] the HostProbe time taken right
// after it. Each slice is scaled by reference_s / probe, with probe the
// median of the probe times up to `half` slices either side: one probe call
// is short, and a single interrupt would skew it. The sum is the window's
// time on a host where one probe call takes reference_s. 0 when the inputs
// are empty or differ in length.
inline double normalised_window_s(const std::vector<double>& slice_s,
                                  const std::vector<double>& probe_s,
                                  double reference_s, size_t half = 4) {
  if (slice_s.empty() || slice_s.size() != probe_s.size()) return 0;
  double total = 0;
  for (size_t i = 0; i < slice_s.size(); ++i) {
    const size_t from = i > half ? i - half : 0;
    const size_t to = std::min(i + half + 1, probe_s.size());
    const double probe = median(std::vector<double>(
        probe_s.begin() + static_cast<std::ptrdiff_t>(from),
        probe_s.begin() + static_cast<std::ptrdiff_t>(to)));
    if (probe <= 0) return 0;
    total += slice_s[i] * reference_s / probe;
  }
  return total;
}

// x per commit, 0 when nothing committed (a run that commits nothing
// already fails the correctness gate; its ratios must not be inf/NaN).
inline double per_commit(double x, int64_t commits) {
  return commits > 0 ? x / static_cast<double>(commits) : 0.0;
}

// ---- recovery phases --------------------------------------------------------

// Simulated-time phases of one recovery episode, in sim microseconds.
// Phase k runs between two milestones; it is unobserved (absent from the
// median, counted in `unobserved`) when either milestone is kNoTime or the
// interval is negative. The in-memory engine replays instantly and leaves
// replay_done_at at kNoTime: type-1 then starts at reboot.
enum Phase : int {
  kDetect = 0, // crash -> first type-2 declaration (detector wait)
  kType2,      // declaration -> type-2 excluding the site committed
  kReplay,     // reboot -> storage replay done
  kType1,      // replay done (or reboot) -> type-1 committed
  kDrain,      // nominally up -> fully current (copier backlog)
  kToOperational, // reboot -> nominally up (ttop)
  kToCurrent,     // reboot -> fully current (ttcur)
  kPhaseCount,
};

inline ddbs::SimTime phase_us(const ddbs::RecoveryEpisode& e, int p) {
  using ddbs::kNoTime;
  const ddbs::SimTime type1_from =
      e.replay_done_at != kNoTime ? e.replay_done_at : e.reboot_at;
  ddbs::SimTime from = kNoTime, to = kNoTime;
  switch (p) {
    case kDetect: from = e.crash_at; to = e.declared_down_at; break;
    case kType2: from = e.declared_down_at; to = e.type2_commit_at; break;
    case kReplay: from = e.reboot_at; to = e.replay_done_at; break;
    case kType1: from = type1_from; to = e.nominally_up_at; break;
    case kDrain: from = e.nominally_up_at; to = e.fully_current_at; break;
    case kToOperational: from = e.reboot_at; to = e.nominally_up_at; break;
    case kToCurrent: from = e.reboot_at; to = e.fully_current_at; break;
    default: break;
  }
  if (from == kNoTime || to == kNoTime || to < from) return kNoTime;
  return to - from;
}

// Per-phase samples (ms) over the run's complete episodes. Incomplete
// episodes -- cut short by another crash or still open when the run ended
// -- are excluded whole and counted in `incomplete`.
struct PhaseSamples {
  std::vector<double> ms[kPhaseCount];
  size_t unobserved[kPhaseCount] = {};
  size_t complete = 0;
  size_t incomplete = 0;
  double type1_attempts = 0, copier_commits = 0, marked = 0;
  std::vector<double> replay_records;

  double median_ms(int p) const { return median(ms[p]); }
  double per_episode(double total) const {
    return complete > 0 ? total / static_cast<double>(complete) : 0.0;
  }
};

inline PhaseSamples fold_episodes(
    const std::vector<ddbs::RecoveryEpisode>& eps) {
  PhaseSamples out;
  for (const ddbs::RecoveryEpisode& e : eps) {
    if (!e.complete) {
      ++out.incomplete;
      continue;
    }
    ++out.complete;
    for (int p = 0; p < kPhaseCount; ++p) {
      const ddbs::SimTime us = phase_us(e, p);
      if (us == ddbs::kNoTime) {
        ++out.unobserved[p];
      } else {
        out.ms[p].push_back(static_cast<double>(us) / 1000.0);
      }
    }
    out.type1_attempts += static_cast<double>(e.type1_attempts);
    out.copier_commits += static_cast<double>(e.copier_commits);
    out.marked += static_cast<double>(e.marked_unreadable);
    if (e.replay_done_at != ddbs::kNoTime)
      out.replay_records.push_back(static_cast<double>(e.replay_records));
  }
  return out;
}

// ---- verifier interposition ------------------------------------------------

// A HistorySink installed in front of the online verifier: forwards every
// callback unchanged and times it on the host clock. Verdicts are the
// verifier's own; this only adds two clock reads per callback.
class TimingSink : public ddbs::HistorySink {
 public:
  explicit TimingSink(ddbs::HistorySink& target) : target_(target) {}

  void on_commit(const ddbs::TxnRecord& rec) override {
    const auto t0 = Clock::now();
    target_.on_commit(rec);
    const double ns = elapsed_ns(t0);
    total_ns_ += ns;
    commit_us_.add(ns / 1000.0);
  }
  void on_late_read(const ddbs::TxnRecord& rec,
                    const ddbs::ReadEvent& r) override {
    const auto t0 = Clock::now();
    target_.on_late_read(rec, r);
    total_ns_ += elapsed_ns(t0);
    ++late_;
  }
  void on_late_write(const ddbs::TxnRecord& rec,
                     const ddbs::WriteEvent& w) override {
    const auto t0 = Clock::now();
    target_.on_late_write(rec, w);
    total_ns_ += elapsed_ns(t0);
    ++late_;
  }

  const ddbs::Histogram& commit_us() const { return commit_us_; }
  uint64_t late_calls() const { return late_; }
  double total_seconds() const { return total_ns_ / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  static double elapsed_ns(Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

  ddbs::HistorySink& target_;
  ddbs::Histogram commit_us_;
  uint64_t late_ = 0;
  double total_ns_ = 0;
};

} // namespace perfbench
