#include "common/telemetry.h"

#include <array>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "core/runtime.h"
#include "replication/session.h"

namespace ddbs {

namespace {

int64_t sum_code_family(const Metrics& m,
                        const std::array<CounterHandle, kCodeCount>& fam) {
  int64_t total = 0;
  for (const CounterHandle& h : fam) total += m.get(h);
  return total;
}

constexpr size_t kSessionMismatchIdx =
    static_cast<size_t>(Code::kSessionMismatch);

void write_stall(JsonWriter& w, const StallEvent& e) {
  w.begin_object();
  w.kv("at", static_cast<int64_t>(e.at));
  w.kv("reason", e.reason);
  w.kv("site", static_cast<int64_t>(e.site));
  w.kv("value", e.value);
  w.end_object();
}

} // namespace

TelemetryStream::TelemetryStream(ClusterRuntime& rt, TelemetryOptions opts)
    : rt_(rt), opts_(std::move(opts)) {}

void TelemetryStream::start() {
  armed_ = true;
  commits_last_advanced_ = rt_.now();
  const Metrics& m = rt_.metrics();
  last_commits_ = m.get(m.id.txn_committed);
  last_aborts_ = sum_code_family(m, m.id.txn_abort);
  last_rejects_ = m.get(m.id.dm_read_reject[kSessionMismatchIdx]) +
                  m.get(m.id.dm_write_reject[kSessionMismatchIdx]);
  schedule_next(rt_.now() + opts_.interval);
}

void TelemetryStream::schedule_next(SimTime at) {
  rt_.schedule_global(at, [this, at]() { tick(at); });
}

void TelemetryStream::tick(SimTime at) {
  if (!armed_) return;
  ++ticks_;

  const Metrics& m = rt_.metrics();
  const int64_t commits = m.get(m.id.txn_committed);
  const int64_t aborts = sum_code_family(m, m.id.txn_abort);
  const int64_t rejects = m.get(m.id.dm_read_reject[kSessionMismatchIdx]) +
                          m.get(m.id.dm_write_reject[kSessionMismatchIdx]);
  const double interval_s =
      static_cast<double>(opts_.interval) / 1e6; // sim us -> sim seconds

  JsonWriter w(true);
  w.begin_object();
  w.kv("t", static_cast<int64_t>(at));
  w.kv("commits", commits);
  w.kv("aborts", aborts);
  w.kv("session_rejects", rejects);
  // Per-interval rates in events per sim-second: integer deltas divided by
  // a fixed interval, hence bit-identical across backends.
  w.kv("commit_rate", static_cast<double>(commits - last_commits_) / interval_s);
  w.kv("abort_rate", static_cast<double>(aborts - last_aborts_) / interval_s);
  w.kv("reject_rate", static_cast<double>(rejects - last_rejects_) / interval_s);
  w.kv("queue_depth", rt_.pending_site_events());
  if (opts_.include_host) w.kv("rss_kb", peak_rss_kb());

  int64_t active_work = 0;
  w.key("sites");
  w.begin_array();
  for (SiteId s = 0; s < rt_.n_sites(); ++s) {
    Site& site = rt_.site(s);
    const auto active = static_cast<int64_t>(site.dm().active_txn_count());
    active_work += active;
    w.begin_object();
    w.kv("site", static_cast<int64_t>(s));
    w.kv("mode", to_string(site.state().mode));
    w.kv("session", site.state().session);
    w.kv("backlog", static_cast<uint64_t>(site.dm().kv().unreadable_count()));
    w.kv("active_txns", active);
    w.kv("parked_reads", static_cast<uint64_t>(site.dm().parked_read_count()));
    w.kv("type1_attempts",
         static_cast<int64_t>(site.rm().milestones().type1_attempts));
    w.kv("rpc_pending", static_cast<uint64_t>(site.rpc().pending_count()));
    // Storage-reboot progress (always zero under the in-memory engine and
    // outside the replay window, so the field set stays schema-stable).
    const StorageEngine& eng = site.storage_engine();
    if (eng.replaying()) {
      w.kv("replaying", true);
      w.kv("replay_done", eng.replay_done());
      w.kv("replay_total", eng.replay_total());
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  buffer_ += w.str();
  buffer_ += "\n";
  if (out_ != nullptr) *out_ << w.str() << "\n";

  if (opts_.watchdog) check_watchdog(at, commits, active_work);

  last_commits_ = commits;
  last_aborts_ = aborts;
  last_rejects_ = rejects;

  if (on_tick) on_tick(*this);
  if (armed_ && !stalled()) schedule_next(at + opts_.interval);
}

void TelemetryStream::check_watchdog(SimTime at, int64_t commits,
                                     int64_t active_work) {
  std::vector<StallEvent> found;

  // No commit has landed for the whole budget while transactional work is
  // demonstrably in flight. An idle cluster (no active DM contexts) is
  // quiet, not stuck -- the progress clock follows it forward.
  if (commits > last_commits_ || active_work == 0) commits_last_advanced_ = at;
  if (opts_.no_commit_budget > 0 &&
      at - commits_last_advanced_ >= opts_.no_commit_budget) {
    found.push_back(StallEvent{at, "no-commit-progress", kInvalidSite,
                               static_cast<int64_t>(at -
                                                    commits_last_advanced_)});
  }

  for (SiteId s = 0; s < rt_.n_sites(); ++s) {
    Site& site = rt_.site(s);
    if (site.state().mode != SiteMode::kRecovering) continue;
    const RecoveryManager::Milestones& ms = site.rm().milestones();
    // A single recovery episode exceeding its phase budget.
    if (opts_.recovery_phase_budget > 0 && ms.started != kNoTime &&
        at - ms.started >= opts_.recovery_phase_budget) {
      found.push_back(StallEvent{at, "recovery-phase-budget", s,
                                 static_cast<int64_t>(at - ms.started)});
    }
    // Type-1 control retries piling up without the site ever coming up.
    if (opts_.control_retry_budget > 0 &&
        ms.type1_attempts >= opts_.control_retry_budget) {
      found.push_back(StallEvent{at, "control-retry-climb", s,
                                 static_cast<int64_t>(ms.type1_attempts)});
    }
  }

  if (found.empty()) return;

  stalls_ = std::move(found);
  for (const StallEvent& e : stalls_) {
    JsonWriter w(true);
    w.begin_object();
    w.kv("t", static_cast<int64_t>(e.at));
    w.key("stall");
    write_stall(w, e);
    w.end_object();
    buffer_ += w.str();
    buffer_ += "\n";
    if (out_ != nullptr) *out_ << w.str() << "\n";
  }

  bundle_json_ = build_diagnostic_bundle(rt_, opts_, stalls_);
  if (!opts_.bundle_path.empty()) {
    std::ofstream out(opts_.bundle_path);
    if (out) {
      out << bundle_json_;
      DDBS_WARN << "watchdog: stall detected at t=" << at
                << "; diagnostic bundle written to " << opts_.bundle_path;
    } else {
      DDBS_WARN << "watchdog: cannot write bundle to " << opts_.bundle_path;
    }
  }
  if (on_stall) on_stall(stalls_.front());
}

std::string build_diagnostic_bundle(ClusterRuntime& rt,
                                    const TelemetryOptions& opts,
                                    const std::vector<StallEvent>& stalls) {
  JsonWriter w;
  w.begin_object();
  w.kv("tool", "ddbs-watchdog");
  w.kv("bundle_version", 3);
  w.kv("at", static_cast<int64_t>(rt.now()));
  w.key("config");
  write_config(w, rt.config());

  w.key("stalls");
  w.begin_array();
  for (const StallEvent& e : stalls) write_stall(w, e);
  w.end_array();

  w.key("sites");
  w.begin_array();
  for (SiteId s = 0; s < rt.n_sites(); ++s) {
    Site& site = rt.site(s);
    const RecoveryManager::Milestones& ms = site.rm().milestones();
    w.begin_object();
    w.kv("site", static_cast<int64_t>(s));
    w.kv("mode", to_string(site.state().mode));
    w.kv("session", site.state().session);
    w.kv("active_txns", static_cast<uint64_t>(site.dm().active_txn_count()));
    w.kv("parked_reads", static_cast<uint64_t>(site.dm().parked_read_count()));
    w.kv("backlog", static_cast<uint64_t>(site.dm().kv().unreadable_count()));
    w.kv("type1_attempts", static_cast<int64_t>(ms.type1_attempts));
    w.key("recovery_started");
    w.time_or_null(ms.started);
    w.kv("rpc_pending", static_cast<uint64_t>(site.rpc().pending_count()));

    // This site's local view of the nominal session vector.
    w.key("ns_vector");
    w.begin_array();
    for (SessionNum n : peek_ns_vector(site.dm().kv(), rt.n_sites())) {
      w.value(n);
    }
    w.end_array();

    // Waits-for edges of the local lock table: [waiter, holder] pairs.
    // Always present (possibly empty) so bundle consumers need no probing.
    w.key("waits_for");
    w.begin_array();
    for (const auto& [waiter, holder] : site.dm().locks().wait_edges()) {
      w.begin_array();
      w.value(static_cast<uint64_t>(waiter));
      w.value(static_cast<uint64_t>(holder));
      w.end_array();
    }
    w.end_array();

    // Who holds each NS[k] lock here -- the first thing to look at for a
    // control-transaction livelock.
    w.key("ns_lock_holders");
    w.begin_array();
    for (SiteId k = 0; k < rt.n_sites(); ++k) {
      const auto holders = site.dm().locks().holders_of(ns_item(k));
      if (holders.empty()) continue;
      w.begin_object();
      w.kv("ns_site", static_cast<int64_t>(k));
      w.key("holders");
      w.begin_array();
      for (const auto& [txn, mode] : holders) {
        w.begin_object();
        w.kv("txn", static_cast<uint64_t>(txn));
        w.kv("mode", mode == LockMode::kExclusive ? "X" : "S");
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("trace_tail");
  w.begin_array();
  for (const TraceEvent& e : rt.trace_tail(opts.bundle_trace_tail)) {
    w.begin_object();
    w.kv("at", static_cast<int64_t>(e.at));
    w.kv("kind", to_string(e.kind));
    w.kv("phase", to_string(e.phase));
    w.kv("span", static_cast<uint64_t>(e.span));
    w.kv("parent", static_cast<uint64_t>(e.parent));
    w.kv("site", static_cast<int64_t>(e.site));
    w.kv("txn", static_cast<uint64_t>(e.txn));
    w.kv("a", e.a);
    w.kv("b", e.b);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str() + "\n";
}

int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  if (!status) return -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

} // namespace ddbs
