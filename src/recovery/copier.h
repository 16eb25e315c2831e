// Copier transactions (paper Section 3.2): refresh one unreadable physical
// copy at this site by reading a readable copy at an operational site and
// installing its value+version locally. Copiers run *after* the recovering
// site is operational, concurrently with user transactions, under the same
// concurrency control and commit protocol.
#pragma once

#include "txn/txn_coordinator.h"

namespace ddbs {

class CopierCoordinator : public CoordinatorBase {
 public:
  CopierCoordinator(TxnId txn, const CoordinatorEnv& env, ItemId item);

  void start() override;

  ItemId item() const { return item_; }

 private:
  // The item's resident sites plus self, ascending (all_sites() when
  // footprint_ns is off): sources and the local write target are all
  // drawn from them, so no other NS entry is frozen.
  std::vector<SiteId> host_set() const;
  void try_source(size_t idx);
  // One-read batch of item_ at `src`. k gets the op's code and result, or
  // the transport code and null when the RPC itself failed.
  void send_read(SiteId src, ReadMode mode,
                 std::function<void(Code, const BatchOpResult*)> k);
  void write_local(Value value, Version version);
  // Resolution protocol for "every copy is marked" (the paper defers this
  // to "a separate protocol", Section 3.2): when ALL resident sites are
  // nominally up and every copy is unreadable, the copy with the highest
  // version tag is the latest committed state -- a committed write always
  // reached every nominally-up copy, marks never erase data, and a down
  // site that might hold something newer would show in the view. Read all
  // remote copies mark-or-not, take the max with the local copy, install
  // it, unmark.
  void resolve_all_marked(size_t idx);

  ItemId item_;
  std::vector<SiteId> sources_;
  size_t unreadable_sources_ = 0;
  Value best_value_ = 0;
  Version best_version_;
  bool have_best_ = false;
};

} // namespace ddbs
