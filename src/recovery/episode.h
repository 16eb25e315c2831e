// Folds the live trace stream into per-site recovery episodes -- the one
// per-recovery record (run reports, ddbs_sim's summary, benches, tests).
//
// Registered as a TraceSink on the cluster Tracer, so it observes every
// event online -- a wrapped trace ring cannot lose the early (most
// interesting) events of a long recovery. One episode spans
//   crash -> declared-down -> type-2 commit -> reboot -> type-1 attempts
//   -> nominally-up -> missed-copy drain -> fully-current
// and a site can contribute several episodes per run (a second crash
// mid-recovery closes the open episode as incomplete and opens a new
// one). A false declaration opens an episode with no crash_at; the
// forced restart then fills it in.
#pragma once

#include <vector>

#include "common/report.h"
#include "sim/trace.h"

namespace ddbs {

class EpisodeTracker : public TraceSink {
 public:
  explicit EpisodeTracker(int n_sites);

  void on_trace(const TraceEvent& e) override;

  // Finished episodes in closure order, then still-open episodes in site
  // order (marked incomplete). Deterministic for a fixed seed.
  std::vector<RecoveryEpisode> episodes() const;
  // Site `s`'s most recent episode (its open one, if any); an empty
  // episode (site kInvalidSite, every milestone kNoTime) when it has none.
  RecoveryEpisode latest(SiteId s) const;

  // Episodes silently discarded once the finished list hit its cap (long
  // soak runs crash/recover thousands of times; reports keep the earliest
  // episodes plus this count instead of growing without bound).
  uint64_t finished_dropped() const { return finished_dropped_; }

  void clear();

 private:
  // Backlog curves are capped so a 10k-copier drain cannot bloat the
  // report; once full, the newest point keeps overwriting the last slot
  // so the curve always ends at the current state.
  static constexpr size_t kMaxBacklogPoints = 256;
  // Cap on retained finished episodes (soak runs close one per
  // crash/recover round; memory must stay bounded over millions of txns).
  static constexpr size_t kMaxFinishedEpisodes = 4096;

  RecoveryEpisode& open_for(SiteId s);
  void push_backlog(RecoveryEpisode& ep, SimTime at, int64_t remaining);
  void close(SiteId s);

  std::vector<RecoveryEpisode> finished_;
  std::vector<RecoveryEpisode> open_;
  std::vector<char> has_open_;
  uint64_t finished_dropped_ = 0;
};

} // namespace ddbs
