// Control transactions (paper Section 3.3): the only writers of the
// nominal session numbers.
//
// Type 1 ("site k is nominally up", ControlUpCoordinator) is initiated by
// the recovering site itself. In one atomic transaction it: reads the NS
// vector at a sponsor site; reads-and-clears the status tables (missing
// lists / fail-lock sets / spools) at every nominally-up site under
// exclusive per-down-site locks; refreshes its own NS copy (acting as a
// copier for the other entries); writes a freshly allocated session number
// into ns_j[k] at every nominally-up site j and locally; and stages the
// local unreadable marks / ML rebuild / spool replay, applied at commit.
// Folding the status collection into the transaction is what makes steps 2
// and 3 of the paper's procedure atomic against concurrent user writes
// (see DESIGN.md "Faithfulness notes").
//
// Type 2 ("sites D are nominally down", ControlDownCoordinator) can be
// initiated by any site that is certain D is down (failure detector, or a
// recovering site whose type-1 attempt hit a dead participant). It writes
// 0 into every available copy of NS[d], d in D.
#pragma once

#include <functional>
#include <memory>

#include "txn/data_manager.h"
#include "txn/txn_coordinator.h"

namespace ddbs {

struct ControlUpResult {
  bool ok = false;
  SessionNum session = 0;
  // Sites that timed out during the attempt; the recovery procedure must
  // exclude them with a type-2 control transaction and retry (step 4).
  std::vector<SiteId> suspected_down;
  bool no_operational_site = false;
};

class ControlUpCoordinator : public CoordinatorBase {
 public:
  using UpDoneFn = std::function<void(const ControlUpResult&)>;

  ControlUpCoordinator(TxnId txn, const CoordinatorEnv& env,
                       DataManager& local_dm, UpDoneFn done);

  void start() override;

 private:
  void pick_sponsor();
  void after_view();
  void collect_status();
  void stage_and_write();
  void fail(Code reason);
  // Cold start after a TOTAL failure (outside the paper's model, which
  // requires one operational site): when no site is operational but this
  // is the lowest-id alive site, re-found the cluster -- claim every other
  // site nominally down and itself up, in one local control transaction.
  // All local copies are conservatively marked unreadable first (volatile
  // missing lists did not survive a total failure); the all-marked
  // resolution protocol drains them as peers rejoin.
  void bootstrap_cold_start();

  const CoordinatorEnv env_;
  // Expires with this coordinator: the silent-site check's pings are not
  // swept by ~CoordinatorBase.
  std::shared_ptr<char> life_ = std::make_shared<char>();
  DataManager& dm_;
  UpDoneFn up_done_;
  std::vector<SiteId> ping_candidates_;
  std::vector<SiteId> operational_; // O: nominally-up sites per the view
  bool others_down_ = false;        // some other site is nominally down
  SiteId sponsor_ = kInvalidSite;
  std::vector<StatusEntry> collected_;
  std::vector<SpoolRecord> spool_collected_;
  std::vector<SiteId> suspected_;
  SessionNum new_session_ = 0;
};

// ---------------------------------------------------------------------------

struct ControlDownResult {
  bool ok = false;
  std::vector<SiteId> additional_suspects; // participants that also died
};

class ControlDownCoordinator : public CoordinatorBase {
 public:
  using DownDoneFn = std::function<void(const ControlDownResult&)>;

  // The NS vector is read at the initiator inside the transaction.
  ControlDownCoordinator(TxnId txn, const CoordinatorEnv& env,
                         std::vector<SiteId> down, DownDoneFn done);

  void start() override;

 private:
  void write_zeroes();
  void fail(Code reason);

  std::vector<SiteId> down_;
  DownDoneFn down_done_;
  std::vector<SiteId> suspected_;
};

} // namespace ddbs
