// Live telemetry stream + no-progress watchdog.
//
// TelemetryStream rides the ClusterRuntime's global-action lane: a
// self-rescheduling schedule_global() tick fires every `interval` sim
// microseconds -- lane-0 on the DES, at an epoch-window boundary on the
// parallel backend -- so both backends snapshot at identical sim times
// with identical pre-states, and the emitted JSONL is byte-identical
// under the DES-twin contract (workload_shards=K vs n_threads=K).
// Host-side values (RSS) are nondeterministic and therefore gated behind
// TelemetryOptions::include_host, off by default.
//
// Each line is one compact JSON object: cumulative counters, per-interval
// rates, the site-event queue depth, and a per-site block (mode, session,
// copier backlog, active/parked txn work, type-1 retry count, pending
// RPCs).
//
// The watchdog turns the same snapshots into a stall verdict:
//   no-commit-progress   commits flat for `no_commit_budget` while user
//                        work is demonstrably in flight
//   recovery-phase-budget one site stuck in kRecovering longer than
//                        `recovery_phase_budget`
//   control-retry-climb  type-1 attempts at or past `control_retry_budget`
//                        with the site still not up
// On the first stall tick it freezes a diagnostic bundle (config echo,
// trace/span ring tails, per-site waits-for edges, NS-lock holders,
// session vectors, pending RPC counts), optionally writes it to
// `bundle_path`, fires on_stall, and stops ticking; the driving tool
// aborts the run with a distinct exit code (4 in ddbs_sim/ddbs_soak).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/report.h"
#include "common/types.h"

namespace ddbs {

class ClusterRuntime;

struct TelemetryOptions {
  SimTime interval = 250'000; // tick period, sim microseconds
  // Host-side fields (rss_kb). Nondeterministic: enabling breaks JSONL
  // byte-identity between backends, so it is opt-in (soak ceiling checks).
  bool include_host = false;

  // Watchdog. Individual conditions disable at budget 0.
  bool watchdog = false;
  SimTime no_commit_budget = 2'000'000;
  SimTime recovery_phase_budget = 8'000'000;
  int64_t control_retry_budget = 64;

  // Diagnostic bundle shape.
  size_t bundle_trace_tail = 512; // ring events, spans and DM work included
  std::string bundle_path; // "" = keep in memory only
};

struct StallEvent {
  SimTime at = 0;
  std::string reason; // no-commit-progress | recovery-phase-budget |
                      // control-retry-climb
  SiteId site = kInvalidSite; // offending site (kInvalidSite = cluster-wide)
  int64_t value = 0;          // stalled duration (us) or attempt count
};

class TelemetryStream {
 public:
  // The stream must outlive every tick it schedules: destroy it only
  // after the runtime stops executing events (both CLI layouts satisfy
  // this by declaring the stream after the runtime).
  TelemetryStream(ClusterRuntime& rt, TelemetryOptions opts);

  // Arm the tick chain; the first tick fires at now() + interval. Call
  // after bootstrap, before driving the workload.
  void start();
  // Disarm: pending ticks become no-ops.
  void stop() { armed_ = false; }

  // Also write each line (newline-terminated) here as it is produced.
  void set_output(std::ostream* out) { out_ = out; }

  const std::string& jsonl() const { return buffer_; }
  uint64_t ticks() const { return ticks_; }
  const std::vector<StallEvent>& stalls() const { return stalls_; }
  bool stalled() const { return !stalls_.empty(); }
  // The diagnostic bundle frozen at the first stall tick ("" = none).
  const std::string& bundle_json() const { return bundle_json_; }

  // Fired after each snapshot line (soak hooks its RSS ceiling here).
  std::function<void(const TelemetryStream&)> on_tick;
  // Fired once, on the tick that first detected a stall, after the
  // bundle was captured.
  std::function<void(const StallEvent&)> on_stall;

 private:
  void schedule_next(SimTime at);
  void tick(SimTime at);
  void check_watchdog(SimTime at, int64_t commits, int64_t active_user_work);

  ClusterRuntime& rt_;
  TelemetryOptions opts_;
  std::ostream* out_ = nullptr;
  std::string buffer_;
  std::string bundle_json_;
  std::vector<StallEvent> stalls_;
  bool armed_ = false;
  uint64_t ticks_ = 0;
  int64_t last_commits_ = 0;
  int64_t last_aborts_ = 0;
  int64_t last_rejects_ = 0;
  SimTime commits_last_advanced_ = 0;
};

// Freeze the runtime's current state into a replayable diagnostic JSON
// document: config echo, stall verdicts, per-site protocol state
// (mode/session/NS vector, waits-for edges, NS-lock holders, pending
// RPCs), trace-ring and span-ring tails. Standalone so tests can dump a
// bundle without arming a stream.
std::string build_diagnostic_bundle(ClusterRuntime& rt,
                                    const TelemetryOptions& opts,
                                    const std::vector<StallEvent>& stalls);

// Peak resident set (VmHWM) of this process in kB from /proc/self/status;
// -1 when unavailable (non-Linux). Process-wide, so parallel soak cells
// share one ceiling.
int64_t peak_rss_kb();

} // namespace ddbs
