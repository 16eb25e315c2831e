// Spool table for the redo baseline (paper Section 1, citing Hammer &
// Shipman's SDD-1 reliability mechanism): updates addressed to a nominally
// down site are saved at the writing sites ("multiple spoolers") and the
// recovering site replays them before resuming normal operation.
//
// The spool keeps one record per (down site, item) -- the highest version
// wins, since items are whole-value and a later write supersedes earlier
// ones. The table is modeled as durable (the paper's spoolers save updates
// "reliably"); concurrency follows the same per-down-site lock items as the
// missing list (see DataManager).
//
// A record handed to the recovering site by the pre-type-1 prefetch is
// flagged with that response's serve token. If the recovering site
// reports the token back, the type-1 ships only the records that do not
// carry it: records added (or superseded) since, and any the response did
// not hold. A later add() clears the flag, and so does a crash of this
// site; a crash of the recovering site clears its record of the token.
// Tokens are never reissued, so a stale flag can only match the response
// that set it.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace ddbs {

class StorageSink;

class SpoolTable {
 public:
  // Keep rec if it is newer than what is already spooled for (site, item).
  void add(SiteId for_site, const SpoolRecord& rec);

  // Every record for `site`, each flagged as served under `token`.
  std::vector<SpoolRecord> serve(SiteId site, uint64_t token);

  // The records for `site` not flagged with `served` (all of them when
  // `served` is 0).
  std::vector<SpoolRecord> records_for(SiteId site, uint64_t served = 0) const;

  // Clear every served flag.
  void forget_served();

  void trim(SiteId site);

  size_t total_records() const;
  size_t records_count_for(SiteId site) const;

  // Mutation observer (durable engine); null = no notifications.
  void set_sink(StorageSink* sink) { sink_ = sink; }
  // Drop everything (durable-engine crash discards the RAM image). Not a
  // sink-visible mutation.
  void wipe() { spool_.clear(); }

 private:
  struct Entry {
    SpoolRecord rec;
    uint64_t served = 0; // serve token, 0 = not served
  };

  std::map<SiteId, std::map<ItemId, Entry>> spool_;
  StorageSink* sink_ = nullptr;
};

} // namespace ddbs
