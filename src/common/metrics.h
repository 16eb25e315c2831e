// Counters and latency histograms collected by the cluster and reported by
// benches. Counters are *interned*: call sites register a name once (at
// construction time) and receive a small integer handle; the hot-path
// inc() is then a plain vector index, no per-call string hashing or map
// walk. The names survive only for reporting.
//
// Histogram is bounded and log-bucketed (HDR-style): 32 sub-buckets per
// power-of-two octave, so memory is O(1) at any sample count and the
// relative quantile error is at most 1/32 (~3.125%). count/sum/min/max are
// tracked exactly on the side. Per-shard instances merge by bucket
// addition, which is *exactly* equivalent to single-instance recording --
// the property the parallel backend's report merge relies on.
//
// ExactSamples is the old raw-sample implementation, kept for cold paths
// that aggregate a handful of heterogeneous scalars (sweep across-seed
// summaries, where ratios near 1.0 would be wrecked by bucket granularity)
// and as the bench_micro comparison baseline.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ddbs {

class Histogram {
 public:
  // 2^-kSubBits relative error; 32 sub-buckets per octave.
  static constexpr int kSubBits = 5;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBits;
  // frexp exponent range [kMinExp, kMaxExp]: values from ~1e-6 (sub-µs
  // fractions) up to ~9.2e18 (any int64 duration) land in a real bucket;
  // outliers clamp into the edge buckets but keep exact min/max.
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 63;
  static constexpr size_t kBucketCount =
      static_cast<size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

  void add(double v) {
    if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
    ++buckets_[bucket_index(v)];
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
    ++count_;
    sum_ += v;
  }
  size_t count() const { return count_; }
  // Exact (running sum), not bucket-derived. NOTE: float accumulation
  // order makes sum/mean backend-dependent after a shard merge --
  // deterministic reports must stick to count/min/max/percentile.
  double mean() const { return count_ == 0 ? 0 : sum_ / static_cast<double>(count_); }
  double sum() const { return sum_; }
  // p in [0, 100]. Bucket-interpolated, clamped to [min, max]; p=0 and
  // p=100 return the exact extremes. Empty histogram returns 0.
  double percentile(double p) const;
  double max() const { return count_ == 0 ? 0 : max_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  void clear() {
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }
  // Fold `other` in by bucket addition (shard-merge at report time).
  // Exactly equivalent to having recorded other's samples here, except
  // for float rounding in sum()/mean().
  void add_all(const Histogram& other);

 private:
  static size_t bucket_index(double v) {
    if (!(v > 0)) return 0; // zeros and negatives clamp into bucket 0
    int e = 0;
    double m = std::frexp(v, &e); // v = m * 2^e, m in [0.5, 1)
    if (e < kMinExp) return 0;
    if (e > kMaxExp) return kBucketCount - 1;
    const auto sub = static_cast<size_t>((2.0 * m - 1.0) *
                                         static_cast<double>(kSubBuckets));
    return static_cast<size_t>(e - kMinExp) * kSubBuckets +
           std::min(sub, kSubBuckets - 1);
  }
  static double bucket_lower(size_t idx) {
    const int e = kMinExp + static_cast<int>(idx / kSubBuckets);
    const double sub = static_cast<double>(idx % kSubBuckets);
    return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), e - 1);
  }
  static double bucket_width(size_t idx) {
    const int e = kMinExp + static_cast<int>(idx / kSubBuckets);
    return std::ldexp(1.0 / static_cast<double>(kSubBuckets), e - 1);
  }

  std::vector<uint64_t> buckets_; // empty until first add(): O(1) bounded
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Raw-sample distribution with exact percentiles. Unbounded memory --
// never on a per-event hot path; see the header comment.
class ExactSamples {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false; // invalidate here, not in percentile()
  }
  size_t count() const { return samples_.size(); }
  double mean() const;
  double percentile(double p) const; // p in [0, 100]
  double max() const;
  double min() const;
  double sum() const;
  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void sort_once() const;
};

// Opaque interned ids. Default-constructed handles are invalid; inc() on
// one is a programming error (asserted in debug builds).
struct CounterHandle {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
};
struct HistHandle {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
};

// Number of distinct protocol outcome codes, for per-code counter families
// (e.g. "txn.abort.<code>").
inline constexpr size_t kCodeCount = static_cast<size_t>(Code::kBusy) + 1;

// Every well-known metric in the system, registered once per Metrics
// instance. Central so per-transaction coordinators (constructed on the
// hot path) never pay a registration lookup: they index straight into this
// struct through their shared Metrics reference.
struct MetricIds {
  // transaction manager / coordinators
  CounterHandle tm_user_submitted, tm_rejected_not_operational;
  CounterHandle txn_committed, txn_2pc_vote_abort, txn_read_redirect,
      txn_read_failover, txn_read_stale_view, txn_write_infeasible,
      txn_ns_reads, txn_early_votes, txn_chain_relaunches,
      txn_parallel_commits, txn_parallel_fallbacks,
      txn_parallel_fallbacks_held, txn_parallel_fallbacks_queued,
      txn_retracts;
  std::array<CounterHandle, kCodeCount> txn_abort; // txn.abort.<code>

  // data manager
  std::array<CounterHandle, kCodeCount> dm_read_reject;  // dm.read_reject.<c>
  std::array<CounterHandle, kCodeCount> dm_write_reject; // dm.write_reject.<c>
  CounterHandle dm_activity_timeout_abort, dm_lock_timeout,
      dm_deadlock_victim, dm_read_hit_unreadable, dm_reads, dm_writes_staged,
      dm_vote_no_unknown, dm_recovery_marks, dm_commits_applied,
      dm_copier_installs, dm_copier_skipped_current,
      dm_writes_with_missed_copies, dm_aborts_applied,
      dm_termination_blocked_round, dm_termination_queries,
      dm_termination_committed, dm_termination_aborted, dm_mark_all_items,
      dm_spool_applied, dm_indoubt_aborted, dm_indoubt_committed,
      dm_wal_checkpoints, dm_chain_forwards, dm_busy_behind_waiter;

  // copier transactions
  CounterHandle copier_started, copier_resolutions, copier_totally_failed,
      copier_payload_avoided_vcmp, copier_payload_copies, copier_committed;

  // control transactions
  CounterHandle control_up_attempts, control_up_committed,
      control_up_cold_start, control_up_2pc_abort, control_up_spool_collected;
  CounterHandle control_down_attempts, control_down_committed;
  std::array<CounterHandle, kCodeCount> control_up_fail, control_down_fail;

  // recovery manager
  CounterHandle rm_recoveries_started, rm_indoubt_queries, rm_gave_up,
      rm_false_suspicion, rm_recovered, rm_spool_prefetched,
      rm_totally_failed, rm_copier_backoff, rm_copier_starved,
      rm_fully_current;

  // failure detector
  CounterHandle fd_reconcile_restarts, fd_declared_down, fd_verify_chains;

  // site lifecycle
  CounterHandle site_crashes, site_recovers, site_false_declaration_restart;

  // simulated disk device + durable storage engine
  CounterHandle disk_reads, disk_writes, disk_read_bytes, disk_write_bytes;
  CounterHandle storage_checkpoints, storage_checkpoint_dropped,
      storage_log_records, storage_log_truncated;
  CounterHandle rec_replay_batches, rec_refresh_skipped;

  // latency histograms (log-bucketed, merged bucket-wise at report time)
  HistHandle h_commit_latency_us;   // user txn start -> commit
  HistHandle h_lock_wait_us;        // every real lock wait, however it ends
  HistHandle h_disk_read_us, h_disk_write_us; // queue wait + service
  HistHandle h_replay_records; // redo records replayed per reboot
  HistHandle h_replay_us;      // reboot replay phase duration
};

class Metrics {
 public:
  Metrics();

  // Intern `name` (idempotent: same name => same handle). Registration
  // walks a map -- do it once at setup, never per event.
  CounterHandle counter(std::string_view name);
  HistHandle histogram(std::string_view name);

  // Hot path: O(1) vector index.
  void inc(CounterHandle h, int64_t by = 1) {
    counter_vals_[h.id] += by;
  }
  Histogram& hist(HistHandle h) { return hist_vals_[h.id]; }

  int64_t get(CounterHandle h) const { return counter_vals_[h.id]; }
  // Reporting/tests: name lookup, fine off the hot path. Unknown => 0.
  int64_t get(std::string_view name) const;
  Histogram& hist(std::string_view name) { return hist(histogram(name)); }

  // Zero every value; registrations (and thus handles) stay valid.
  void clear();

  // Fold another instance's values into this one, matching by name (the
  // parallel backend keeps one Metrics per shard -- zero hot-path cost --
  // and aggregates here at report time). Names unknown to this instance
  // are registered on the fly.
  void merge_from(const Metrics& other);

  size_t counter_count() const { return counter_names_.size(); }
  std::string_view counter_name(size_t i) const { return counter_names_[i]; }
  int64_t counter_value(size_t i) const { return counter_vals_[i]; }
  size_t hist_count() const { return hist_names_.size(); }
  std::string_view hist_name(size_t i) const { return hist_names_[i]; }
  const Histogram& hist_value(size_t i) const { return hist_vals_[i]; }

  // "name=value " for every non-zero counter, in sorted name order
  // (deterministic across runs regardless of registration order).
  std::string summary() const;

 private:
  MetricIds register_all();

  // Storage must be declared BEFORE `id`: members initialize in declaration
  // order, and register_all() interns into these containers.
  std::vector<std::string> counter_names_;
  std::vector<int64_t> counter_vals_;
  std::map<std::string, uint32_t, std::less<>> counter_index_;
  std::vector<std::string> hist_names_;
  // deque: hist() hands out references that must survive later
  // registrations (a vector would invalidate them on growth).
  std::deque<Histogram> hist_vals_;
  std::map<std::string, uint32_t, std::less<>> hist_index_;

 public:
  // Pre-registered handles for every built-in metric.
  const MetricIds id;
};

} // namespace ddbs
