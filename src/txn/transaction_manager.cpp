#include "txn/transaction_manager.h"

#include <cassert>

#include "common/logging.h"

namespace ddbs {

TransactionManager::TransactionManager(const CoordinatorEnv& env)
    : env_(env) {}

void TransactionManager::launch(std::unique_ptr<CoordinatorBase> coord) {
  CoordinatorBase* raw = coord.get();
  raw->set_suspect_fn(suspect_fn_);
  raw->set_retire_fn([this](TxnId txn) { coords_.erase(txn); });
  coords_.emplace(raw->id(), std::move(coord));
  raw->launch_start();
}

void TransactionManager::submit_user(TxnSpec spec,
                                     CoordinatorBase::DoneFn done) {
  if (env_.state->mode != SiteMode::kUp) {
    // "User transactions can not be processed at site k while as[k] is 0"
    // (Section 3.1).
    TxnResult res;
    res.committed = false;
    res.reason = Code::kSiteNotOperational;
    env_.metrics->inc(env_.metrics->id.tm_rejected_not_operational);
    done(res);
    return;
  }
  auto coord =
      std::make_unique<UserTxnCoordinator>(next_id(), env_, std::move(spec));
  coord->set_done(std::move(done));
  env_.metrics->inc(env_.metrics->id.tm_user_submitted);
  launch(std::move(coord));
}

void TransactionManager::run_copier(ItemId item,
                                    CoordinatorBase::DoneFn done) {
  auto coord = std::make_unique<CopierCoordinator>(next_id(), env_, item);
  coord->set_done(std::move(done));
  launch(std::move(coord));
}

void TransactionManager::run_control_up(
    ControlUpCoordinator::UpDoneFn done) {
  assert(dm_ != nullptr);
  auto coord = std::make_unique<ControlUpCoordinator>(next_id(), env_, *dm_,
                                                      std::move(done));
  launch(std::move(coord));
}

void TransactionManager::run_control_down(
    std::vector<SiteId> down, ControlDownCoordinator::DownDoneFn done) {
  auto coord = std::make_unique<ControlDownCoordinator>(
      next_id(), env_, std::move(down), std::move(done));
  launch(std::move(coord));
}

void TransactionManager::crash() { coords_.clear(); }

} // namespace ddbs
