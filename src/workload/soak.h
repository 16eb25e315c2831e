// Long-horizon soak driver: one long-lived Cluster driven through many
// crash/recover/load rounds with the OnlineVerifier attached. Each round
// ends at a settled boundary where the verifier's checkpoint and
// quiescence oracles are consulted and the consumed history prefix is
// pruned -- so a soak of tens of millions of committed transactions runs
// in bounded memory, which a whole-history check (O(history) per pass)
// cannot do. This is the payoff of the online verifier: the explorer
// shakes out short adversarial interleavings, the soak shakes out rare
// ones that only show up at scale.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "common/telemetry.h"
#include "explore/oracles.h"
#include "workload/workload_gen.h"

namespace ddbs {

struct SoakOptions {
  Config cfg;            // record_history + online_verify are forced on
  uint64_t seed = 1;
  int rounds = 50;
  SimTime round_duration = 2'000'000; // load window per round (us)
  int clients_per_site = 2;
  SimTime think_time = 1'000;
  WorkloadParams workload;
  // Per-round fault injection against a rotating victim site
  // (round % n_sites): crash at `crash_at`, recover at `recover_at`,
  // both relative to the round start. crash_at < 0 disables faults.
  SimTime crash_at = 200'000;
  SimTime recover_at = 1'200'000;
  SimTime settle_budget = 60'000'000;
  // Stop once this many transactions have committed (0 = run all rounds).
  uint64_t target_committed = 0;

  // Live telemetry + watchdog (common/telemetry.h). One stream is armed
  // for the whole soak and ticks through every round; a watchdog stall
  // ends the soak mid-round via the Runner's stop_check.
  bool enable_telemetry = false;
  TelemetryOptions telemetry;
  std::ostream* telemetry_out = nullptr; // live JSONL sink (may be null)
  // RSS ceiling, checked on every telemetry tick so a blow-up trips
  // DURING the round that caused it, not at the post-run summary. 0 = off.
  // Implies telemetry even when enable_telemetry is false.
  int64_t rss_limit_kb = 0;
};

struct SoakResult {
  int rounds_run = 0;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  uint64_t commits_verified = 0;   // commit records the verifier ingested
  uint64_t prunes = 0;             // rounds that pruned the history prefix
  uint64_t records_pruned = 0;     // total records dropped by pruning
  size_t max_retained_records = 0; // high-water mark of retained history
  size_t max_graph_nodes = 0;      // high-water mark of live 1-STG nodes
  std::vector<Violation> violations; // first violation ends the soak
  // Watchdog verdicts (empty on a clean run) and the diagnostic bundle
  // frozen when the first stall was declared.
  std::vector<StallEvent> stalls;
  std::string bundle_json;
  std::string telemetry_jsonl; // buffered stream (when telemetry enabled)
  bool rss_exceeded = false;   // the per-tick RSS ceiling tripped
  uint64_t telemetry_ticks = 0;

  bool ok() const { return violations.empty(); }
  bool stalled() const { return !stalls.empty(); }
};

SoakResult run_soak(const SoakOptions& opts);

// Canonical JSON for one soak cell. Deterministic (no wall-clock/RSS
// numbers) so parallel cells serialize identically to serial runs.
std::string soak_report_json(const std::string& label,
                             const SoakOptions& opts, const SoakResult& res);

} // namespace ddbs
