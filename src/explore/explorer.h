// One adversarial exploration run: a nemesis applies a fault Schedule to
// a deterministic Cluster while synthetic clients generate load; the
// cluster's OnlineVerifier judges fixed checkpoints and the quiesced end.
// The entire run is a pure function of (ExploreOptions, Schedule, seed) --
// the returned report string is byte-identical across replays, which is
// what makes shrunk repro artifacts trustworthy.
//
// Two deliberate run-semantics choices keep the oracles sound under
// *arbitrary* (shrunk, hand-edited) schedules:
//   - clients never submit at a partition-isolated site: concurrent
//     two-sided writes during a partition are the paper's excluded case
//     (Section 6), and flagging them would blame the schedule, not the
//     protocol;
//   - at the horizon every network-level fault is force-cleared (heal,
//     loss restored, latency restored), so a schedule that lost its heal
//     action to shrinking still ends in a world where convergence is due.
//     Crashed sites are NOT force-rebooted: oracles skip down sites, and
//     a reboot's presence/absence is part of the schedule under test.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "common/telemetry.h"
#include "explore/oracles.h"
#include "explore/schedule.h"
#include "workload/workload_gen.h"

namespace ddbs {

struct ExploreOptions {
  // cfg.record_history and cfg.online_verify are forced on: the cluster's
  // OnlineVerifier judges every checkpoint and the quiescent end state.
  Config cfg;
  int clients_per_site = 1;
  SimTime think_time = 2'000;
  WorkloadParams workload;
  SimTime horizon = 2'000'000;        // load + fault window
  SimTime checkpoint_every = 250'000; // mid-run oracle cadence
  SimTime settle_budget = 60'000'000; // quiescence bound after the horizon
  // Buffer the run's telemetry JSONL into ExploreRunResult. Deliberately
  // NOT part of the repro artifact round-trip: capturing telemetry does
  // not perturb the run, so replays stay byte-identical either way.
  bool capture_telemetry = false;
  TelemetryOptions telemetry;
};

struct ExploreRunResult {
  bool violated = false;
  std::vector<Violation> violations;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  std::string report; // canonical JSON; byte-identical on replay
  std::string telemetry_jsonl; // "" unless ExploreOptions::capture_telemetry
};

// Execute `schedule` against a fresh cluster seeded with `seed`.
// Deterministic and self-contained: safe to call from worker threads.
ExploreRunResult run_schedule(const ExploreOptions& opts,
                              const Schedule& schedule, uint64_t seed);

} // namespace ddbs
