// Per-site bookkeeping that identifies out-of-date copies (paper Section 5).
//
// Missing list (ML): precise set of (item X, site k) pairs, meaning "x_k
// missed an update that this site's copy of X received". Maintained by
// write commits, consumed and cleared by the recovering site's type-1
// control transaction.
//
// Fail-lock set: the coarser mechanism of reference [5] (a working paper):
// item-granular -- "X was updated while at least one site was nominally
// down". A recovering site marks every fail-locked item it hosts, which
// over-marks under interleaved multi-site failures; E3 measures exactly
// that cost. Cleared only when no site remains nominally down.
//
// Both structures are volatile ("need be stored in volatile storage only"):
// a crash wipes them, and the crashed site's own view is rebuilt from the
// other operational sites during its recovery.
//
// Concurrency: access is serialized through the lock manager using the
// per-down-site lock items status_item(d). Writers that skip d's copy
// take it in shared mode (additions commute). The type-1 control
// transaction of site d takes it in exclusive mode with one StatusTakeReq
// per site, which reads the entries and stages their removal; the removal
// is applied if the type-1 commits. See DataManager::on_status_take.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace ddbs {

class StatusTable {
 public:
  // ---- missing list ----
  void ml_add(ItemId item, SiteId missed_site);
  void ml_remove(ItemId item, SiteId written_site);
  void ml_remove_all_for(SiteId site);
  std::vector<StatusEntry> ml_entries() const;
  std::vector<ItemId> ml_items_for(SiteId site) const;
  void ml_insert_bulk(const std::vector<StatusEntry>& entries);
  size_t ml_size() const;

  // ---- fail-lock set ----
  void fl_add(ItemId item);
  std::vector<ItemId> fl_items() const;
  void fl_clear();
  size_t fl_size() const { return fail_locked_.size(); }

  void clear(); // site crash (volatile storage)

 private:
  std::map<SiteId, std::set<ItemId>> ml_; // missed_site -> items
  std::set<ItemId> fail_locked_;
};

} // namespace ddbs
