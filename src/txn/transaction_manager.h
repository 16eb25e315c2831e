// The transaction manager (TM) of one site: "supervises the execution of
// transactions and interprets logical operations into requests for
// physical operations" (paper Section 2). Owns the per-transaction
// coordinators, allocates transaction ids, and refuses user transactions
// unless the site is operational.
#pragma once

#include <memory>
#include <unordered_map>

#include "recovery/control_txn.h"
#include "recovery/copier.h"
#include "txn/txn_coordinator.h"

namespace ddbs {

class TransactionManager {
 public:
  TransactionManager(const CoordinatorEnv& env);

  // User transactions: rejected immediately while as[k] == 0.
  void submit_user(TxnSpec spec, CoordinatorBase::DoneFn done);

  void run_copier(ItemId item, CoordinatorBase::DoneFn done);
  void run_control_up(ControlUpCoordinator::UpDoneFn done);
  void run_control_down(std::vector<SiteId> down,
                        ControlDownCoordinator::DownDoneFn done);

  void set_suspect_fn(CoordinatorBase::SuspectFn fn) {
    suspect_fn_ = std::move(fn);
  }
  void set_local_dm(DataManager* dm) { dm_ = dm; }

  // Site crash: every coordinator dies silently (its transactions resolve
  // via presumed abort / cooperative termination at the participants).
  void crash();

  size_t active_coordinators() const { return coords_.size(); }
  // True until the coordinator of `txn` (one of ours) retires or dies.
  bool coordinating(TxnId txn) const { return coords_.count(txn) > 0; }

 private:
  TxnId next_id() { return make_txn_id(env_.self, ++seq_); }
  void launch(std::unique_ptr<CoordinatorBase> coord);

  CoordinatorEnv env_;
  DataManager* dm_ = nullptr;
  CoordinatorBase::SuspectFn suspect_fn_;
  std::unordered_map<TxnId, std::unique_ptr<CoordinatorBase>> coords_;
  uint64_t seq_ = 0;
};

} // namespace ddbs
