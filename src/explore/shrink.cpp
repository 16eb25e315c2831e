#include "explore/shrink.h"

#include <algorithm>

namespace ddbs {
namespace {

// Drop actions [begin, end) from `s`.
Schedule without_range(const Schedule& s, size_t begin, size_t end) {
  Schedule out;
  out.reserve(s.size() - (end - begin));
  for (size_t i = 0; i < s.size(); ++i) {
    if (i < begin || i >= end) out.push_back(s[i]);
  }
  return out;
}

} // namespace

ShrinkResult shrink_schedule(const ExploreOptions& opts,
                             const Schedule& failing, uint64_t seed,
                             int max_runs) {
  ShrinkResult res;
  res.schedule = failing;

  ExploreRunResult best; // result of the current (smallest known) failure
  ExploreOptions unplanted = opts;
  unplanted.cfg.planted_bug = PlantedBug::kNone;
  auto violates = [&](const Schedule& s, ExploreRunResult* out) {
    ++res.runs;
    ExploreRunResult r = run_schedule(opts, s, seed);
    if (out != nullptr) *out = r;
    if (!r.violated || opts.cfg.planted_bug == PlantedBug::kNone) {
      return r.violated;
    }
    ++res.runs;
    return !run_schedule(unplanted, s, seed).violated;
  };

  // The caller asserts `failing` violates, but verify: the shrinker's
  // contract ("result.violated == true") must not rest on stale input.
  if (!violates(res.schedule, &best)) {
    res.result = best;
    return res;
  }

  // ddmin: try removing ever-finer chunks; restart the pass whenever a
  // removal keeps the failure (the classic complement-reduction loop).
  size_t chunks = 2;
  while (res.schedule.size() >= 2 && res.runs < max_runs) {
    const size_t n = res.schedule.size();
    const size_t chunk = std::max<size_t>(1, (n + chunks - 1) / chunks);
    bool reduced = false;
    for (size_t begin = 0; begin < n && res.runs < max_runs; begin += chunk) {
      const size_t end = std::min(n, begin + chunk);
      Schedule candidate = without_range(res.schedule, begin, end);
      if (candidate.empty()) continue;
      ExploreRunResult r;
      if (violates(candidate, &r)) {
        res.schedule = std::move(candidate);
        best = std::move(r);
        chunks = std::max<size_t>(2, chunks - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk <= 1) break; // every single action is load-bearing
      chunks = std::min(res.schedule.size(), chunks * 2);
    }
  }

  // Final single-action elimination to a fixpoint: ddmin above stops at
  // chunk granularity 1, but a fresh elementwise pass after each removal
  // is what makes the result 1-minimal.
  bool changed = true;
  while (changed && res.runs < max_runs) {
    changed = false;
    for (size_t i = 0; i < res.schedule.size() && res.runs < max_runs; ++i) {
      if (res.schedule.size() == 1) break;
      Schedule candidate = without_range(res.schedule, i, i + 1);
      ExploreRunResult r;
      if (violates(candidate, &r)) {
        res.schedule = std::move(candidate);
        best = std::move(r);
        changed = true;
        break;
      }
    }
  }

  res.minimal = res.runs < max_runs;
  res.result = std::move(best);
  return res;
}

} // namespace ddbs
