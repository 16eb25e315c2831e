// Delta-debugging shrinker for failing nemesis schedules (Zeller's ddmin
// over the action list, then single-action elimination to a fixpoint).
// The test predicate is "does re-running this subset still violate any
// oracle" -- runs are deterministic, so the predicate is too. Under a
// planted bug the subset must also run clean with the bug off, so the
// shrinker never drifts from the bug to a fault of the protocol itself
// (a site left down for good, say, which can block 2PC forever). Subsets
// are always valid schedules because every nemesis action is a safe no-op
// out of context (crash of a down site, heal with no partition, ...).
#pragma once

#include "explore/explorer.h"
#include "explore/schedule.h"

namespace ddbs {

struct ShrinkResult {
  Schedule schedule;       // minimized failing schedule
  ExploreRunResult result; // the run on `schedule` (violated == true)
  int runs = 0;            // executions spent shrinking
  bool minimal = false;    // 1-minimal (budget not exhausted mid-pass)
};

// Shrink `failing` (which must violate under (opts, seed), and under a
// planted bug run clean without it) to a smaller schedule that still does.
// Spends at most `max_runs` executions.
ShrinkResult shrink_schedule(const ExploreOptions& opts,
                             const Schedule& failing, uint64_t seed,
                             int max_runs = 200);

} // namespace ddbs
