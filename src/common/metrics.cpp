#include "common/metrics.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace ddbs {

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double next = cum + static_cast<double>(buckets_[i]);
    if (next >= target) {
      const double frac = (target - cum) / static_cast<double>(buckets_[i]);
      const double v = bucket_lower(i) + frac * bucket_width(i);
      // Edge buckets hold clamped outliers; the exact extremes bound the
      // interpolation so estimates never leave the observed range.
      return std::min(std::max(v, min_), max_);
    }
    cum = next;
  }
  return max_; // unreachable unless counts drift; stay safe
}

void Histogram::add_all(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  for (size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

// ---------------------------------------------------------------------------

void ExactSamples::sort_once() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double ExactSamples::mean() const {
  if (samples_.empty()) return 0;
  return sum() / static_cast<double>(samples_.size());
}

double ExactSamples::sum() const {
  double s = 0;
  for (double v : samples_) s += v;
  return s;
}

double ExactSamples::percentile(double p) const {
  if (samples_.empty()) return 0;
  sort_once(); // stays sorted until the next add() invalidates
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1 - frac) + samples_[hi] * frac;
}

double ExactSamples::max() const {
  if (samples_.empty()) return 0;
  double m = std::numeric_limits<double>::lowest();
  for (double v : samples_) m = std::max(m, v);
  return m;
}

double ExactSamples::min() const {
  if (samples_.empty()) return 0;
  double m = std::numeric_limits<double>::max();
  for (double v : samples_) m = std::min(m, v);
  return m;
}

// ---------------------------------------------------------------------------

Metrics::Metrics() : id(register_all()) {}

CounterHandle Metrics::counter(std::string_view name) {
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return CounterHandle{it->second};
  const auto idx = static_cast<uint32_t>(counter_names_.size());
  counter_names_.emplace_back(name);
  counter_vals_.push_back(0);
  counter_index_.emplace(std::string(name), idx);
  return CounterHandle{idx};
}

HistHandle Metrics::histogram(std::string_view name) {
  auto it = hist_index_.find(name);
  if (it != hist_index_.end()) return HistHandle{it->second};
  const auto idx = static_cast<uint32_t>(hist_names_.size());
  hist_names_.emplace_back(name);
  hist_vals_.emplace_back();
  hist_index_.emplace(std::string(name), idx);
  return HistHandle{idx};
}

int64_t Metrics::get(std::string_view name) const {
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counter_vals_[it->second];
}

void Metrics::clear() {
  for (auto& v : counter_vals_) v = 0;
  for (auto& h : hist_vals_) h.clear();
}

void Metrics::merge_from(const Metrics& other) {
  for (size_t i = 0; i < other.counter_count(); ++i) {
    const int64_t v = other.counter_value(i);
    if (v != 0) inc(counter(other.counter_name(i)), v);
  }
  for (size_t i = 0; i < other.hist_count(); ++i) {
    const Histogram& h = other.hist_value(i);
    if (h.count() > 0) hist(histogram(other.hist_name(i))).add_all(h);
  }
}

std::string Metrics::summary() const {
  std::ostringstream os;
  // counter_index_ is sorted by name: deterministic output independent of
  // registration order.
  for (const auto& [name, idx] : counter_index_) {
    if (counter_vals_[idx] != 0) os << name << "=" << counter_vals_[idx] << " ";
  }
  return os.str();
}

MetricIds Metrics::register_all() {
  MetricIds m;
  auto c = [this](const char* name) { return counter(name); };
  auto h = [this](const char* name) { return histogram(name); };
  auto family = [this](const char* prefix) {
    std::array<CounterHandle, kCodeCount> f;
    for (size_t i = 0; i < kCodeCount; ++i) {
      f[i] = counter(std::string(prefix) + to_string(static_cast<Code>(i)));
    }
    return f;
  };

  m.tm_user_submitted = c("tm.user_submitted");
  m.tm_rejected_not_operational = c("tm.rejected_not_operational");
  m.txn_committed = c("txn.committed");
  m.txn_2pc_vote_abort = c("txn.2pc_vote_abort");
  m.txn_read_redirect = c("txn.read_redirect");
  m.txn_read_failover = c("txn.read_failover");
  m.txn_read_stale_view = c("txn.read_stale_view");
  m.txn_write_infeasible = c("txn.write_infeasible");
  m.txn_ns_reads = c("txn.ns_reads");
  m.txn_early_votes = c("txn.early_votes");
  m.txn_chain_relaunches = c("txn.chain_relaunches");
  m.txn_parallel_commits = c("txn.parallel_commits");
  m.txn_parallel_fallbacks = c("txn.parallel_fallbacks");
  m.txn_parallel_fallbacks_held = c("txn.parallel_fallbacks.held");
  m.txn_parallel_fallbacks_queued = c("txn.parallel_fallbacks.queued");
  m.txn_retracts = c("txn.retracts");
  m.txn_abort = family("txn.abort.");

  m.dm_read_reject = family("dm.read_reject.");
  m.dm_write_reject = family("dm.write_reject.");
  m.dm_activity_timeout_abort = c("dm.activity_timeout_abort");
  m.dm_lock_timeout = c("dm.lock_timeout");
  m.dm_deadlock_victim = c("dm.deadlock_victim");
  m.dm_read_hit_unreadable = c("dm.read_hit_unreadable");
  m.dm_reads = c("dm.reads");
  m.dm_writes_staged = c("dm.writes_staged");
  m.dm_vote_no_unknown = c("dm.vote_no_unknown");
  m.dm_recovery_marks = c("dm.recovery_marks");
  m.dm_commits_applied = c("dm.commits_applied");
  m.dm_copier_installs = c("dm.copier_installs");
  m.dm_copier_skipped_current = c("dm.copier_skipped_current");
  m.dm_writes_with_missed_copies = c("dm.writes_with_missed_copies");
  m.dm_aborts_applied = c("dm.aborts_applied");
  m.dm_termination_blocked_round = c("dm.termination_blocked_round");
  m.dm_termination_queries = c("dm.termination_queries");
  m.dm_termination_committed = c("dm.termination_committed");
  m.dm_termination_aborted = c("dm.termination_aborted");
  m.dm_mark_all_items = c("dm.mark_all_items");
  m.dm_spool_applied = c("dm.spool_applied");
  m.dm_indoubt_aborted = c("dm.indoubt_aborted");
  m.dm_indoubt_committed = c("dm.indoubt_committed");
  m.dm_wal_checkpoints = c("dm.wal_checkpoints");
  m.dm_chain_forwards = c("dm.chain_forwards");
  m.dm_busy_behind_waiter = c("dm.busy_behind_waiter");

  m.copier_started = c("copier.started");
  m.copier_resolutions = c("copier.resolutions");
  m.copier_totally_failed = c("copier.totally_failed");
  m.copier_payload_avoided_vcmp = c("copier.payload_avoided_vcmp");
  m.copier_payload_copies = c("copier.payload_copies");
  m.copier_committed = c("copier.committed");

  m.control_up_attempts = c("control_up.attempts");
  m.control_up_committed = c("control_up.committed");
  m.control_up_cold_start = c("control_up.cold_start");
  m.control_up_2pc_abort = c("control_up.2pc_abort");
  m.control_up_spool_collected = c("control_up.spool_collected");
  m.control_down_attempts = c("control_down.attempts");
  m.control_down_committed = c("control_down.committed");
  m.control_up_fail = family("control_up.fail.");
  m.control_down_fail = family("control_down.fail.");

  m.rm_recoveries_started = c("rm.recoveries_started");
  m.rm_indoubt_queries = c("rm.indoubt_queries");
  m.rm_gave_up = c("rm.gave_up");
  m.rm_false_suspicion = c("rm.false_suspicion");
  m.rm_recovered = c("rm.recovered");
  m.rm_spool_prefetched = c("rm.spool_prefetched");
  m.rm_totally_failed = c("rm.totally_failed");
  m.rm_copier_backoff = c("rm.copier_backoff");
  m.rm_copier_starved = c("rm.copier_starved");
  m.rm_fully_current = c("rm.fully_current");

  m.fd_reconcile_restarts = c("fd.reconcile_restarts");
  m.fd_declared_down = c("fd.declared_down");
  m.fd_verify_chains = c("fd.verify_chains");

  m.site_crashes = c("site.crashes");
  m.site_recovers = c("site.recovers");
  m.site_false_declaration_restart = c("site.false_declaration_restart");

  m.disk_reads = c("disk.reads");
  m.disk_writes = c("disk.writes");
  m.disk_read_bytes = c("disk.read_bytes");
  m.disk_write_bytes = c("disk.write_bytes");
  m.storage_checkpoints = c("storage.checkpoints");
  m.storage_checkpoint_dropped = c("storage.checkpoint_dropped");
  m.storage_log_records = c("storage.log_records");
  m.storage_log_truncated = c("storage.log_truncated");
  m.rec_replay_batches = c("rec.replay_batches");
  m.rec_refresh_skipped = c("rec.refresh_skipped");

  m.h_commit_latency_us = h("txn.commit_latency_us");
  m.h_lock_wait_us = h("dm.lock_wait_us");
  m.h_disk_read_us = h("disk.read_us");
  m.h_disk_write_us = h("disk.write_us");
  m.h_replay_records = h("rec.replay_records");
  m.h_replay_us = h("rec.replay_us");
  return m;
}

} // namespace ddbs
