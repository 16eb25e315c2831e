#include "recovery/episode.h"

#include <algorithm>

namespace ddbs {

EpisodeTracker::EpisodeTracker(int n_sites)
    : open_(static_cast<size_t>(n_sites)),
      has_open_(static_cast<size_t>(n_sites), 0) {}

RecoveryEpisode& EpisodeTracker::open_for(SiteId s) {
  auto& ep = open_[static_cast<size_t>(s)];
  if (!has_open_[static_cast<size_t>(s)]) {
    ep = RecoveryEpisode{};
    ep.site = s;
    has_open_[static_cast<size_t>(s)] = 1;
  }
  return ep;
}

void EpisodeTracker::push_backlog(RecoveryEpisode& ep, SimTime at,
                                  int64_t remaining) {
  if (ep.backlog.size() < kMaxBacklogPoints) {
    ep.backlog.push_back({at, remaining});
  } else {
    ep.backlog.back() = {at, remaining};
  }
}

void EpisodeTracker::close(SiteId s) {
  if (!has_open_[static_cast<size_t>(s)]) return;
  if (finished_.size() < kMaxFinishedEpisodes) {
    finished_.push_back(std::move(open_[static_cast<size_t>(s)]));
  } else {
    ++finished_dropped_;
  }
  has_open_[static_cast<size_t>(s)] = 0;
}

void EpisodeTracker::on_trace(const TraceEvent& e) {
  const auto in_range = [&](SiteId s) {
    return s >= 0 && static_cast<size_t>(s) < open_.size();
  };
  switch (e.kind) {
    case TraceKind::kSiteCrash: {
      if (!in_range(e.site)) return;
      auto& slot = open_[static_cast<size_t>(e.site)];
      if (has_open_[static_cast<size_t>(e.site)] && slot.crash_at != kNoTime) {
        // Second crash mid-recovery: the old episode ends here, incomplete.
        close(e.site);
      }
      RecoveryEpisode& ep = open_for(e.site);
      if (ep.crash_at == kNoTime) ep.crash_at = e.at;
      break;
    }
    case TraceKind::kDetectorDeclare: {
      const SiteId target = static_cast<SiteId>(e.a);
      if (!in_range(target)) return;
      RecoveryEpisode& ep = open_for(target);
      if (ep.declared_down_at == kNoTime) ep.declared_down_at = e.at;
      break;
    }
    case TraceKind::kControlDownStart: {
      const SiteId target = static_cast<SiteId>(e.a);
      if (!in_range(target) || !has_open_[static_cast<size_t>(target)]) return;
      ++open_[static_cast<size_t>(target)].type2_rounds;
      break;
    }
    case TraceKind::kControlDownCommit: {
      const SiteId target = static_cast<SiteId>(e.a);
      if (!in_range(target)) return;
      RecoveryEpisode& ep = open_for(target);
      if (ep.type2_commit_at == kNoTime) ep.type2_commit_at = e.at;
      break;
    }
    case TraceKind::kSiteRecover: {
      // Power-on. Under the durable engine this precedes kRecoveryStarted
      // by the whole storage replay; under the in-memory engine both fire
      // at the same instant, so reboot_at is unchanged there.
      if (!in_range(e.site)) return;
      RecoveryEpisode& ep = open_for(e.site);
      if (ep.reboot_at == kNoTime) ep.reboot_at = e.at;
      break;
    }
    case TraceKind::kReplayDone: {
      if (!in_range(e.site) || !has_open_[static_cast<size_t>(e.site)]) return;
      RecoveryEpisode& ep = open_[static_cast<size_t>(e.site)];
      if (ep.replay_done_at == kNoTime) {
        ep.replay_done_at = e.at;
        ep.replay_records = e.a;
      }
      break;
    }
    case TraceKind::kRecoveryStarted: {
      if (!in_range(e.site)) return;
      RecoveryEpisode& ep = open_for(e.site);
      if (ep.reboot_at == kNoTime) ep.reboot_at = e.at;
      break;
    }
    case TraceKind::kControlUpStart: {
      if (!in_range(e.site) || !has_open_[static_cast<size_t>(e.site)]) return;
      ++open_[static_cast<size_t>(e.site)].type1_attempts;
      break;
    }
    case TraceKind::kNominallyUp: {
      if (!in_range(e.site)) return;
      RecoveryEpisode& ep = open_for(e.site);
      ep.nominally_up_at = e.at;
      ep.session = e.a;
      ep.marked_unreadable = e.b;
      push_backlog(ep, e.at, e.b);
      break;
    }
    case TraceKind::kCopierCommit: {
      if (!in_range(e.site) || !has_open_[static_cast<size_t>(e.site)]) return;
      RecoveryEpisode& ep = open_[static_cast<size_t>(e.site)];
      if (ep.nominally_up_at == kNoTime) return;
      ++ep.copier_commits;
      push_backlog(ep, e.at,
                   std::max<int64_t>(0, ep.marked_unreadable -
                                            ep.copier_commits));
      break;
    }
    case TraceKind::kFullyCurrent: {
      if (!in_range(e.site) || !has_open_[static_cast<size_t>(e.site)]) return;
      RecoveryEpisode& ep = open_[static_cast<size_t>(e.site)];
      ep.fully_current_at = e.at;
      ep.complete = true;
      push_backlog(ep, e.at, 0);
      close(e.site);
      break;
    }
    default:
      break;
  }
}

std::vector<RecoveryEpisode> EpisodeTracker::episodes() const {
  std::vector<RecoveryEpisode> out = finished_;
  for (size_t s = 0; s < open_.size(); ++s) {
    if (has_open_[s]) out.push_back(open_[s]);
  }
  return out;
}

RecoveryEpisode EpisodeTracker::latest(SiteId s) const {
  if (s < 0 || static_cast<size_t>(s) >= open_.size()) return {};
  if (has_open_[static_cast<size_t>(s)]) return open_[static_cast<size_t>(s)];
  for (auto it = finished_.rbegin(); it != finished_.rend(); ++it) {
    if (it->site == s) return *it;
  }
  return {};
}

void EpisodeTracker::clear() {
  finished_.clear();
  finished_dropped_ = 0;
  std::fill(has_open_.begin(), has_open_.end(), 0);
}

} // namespace ddbs
