// One DDBS site: storage + TM + DM + recovery manager + failure detector,
// wired to the simulated network. The Site object persists across crashes;
// crash()/recover() flip its volatile state and transport liveness, exactly
// like a machine power-cycling while its disks survive.
#pragma once

#include <memory>

#include "common/config.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "recovery/failure_detector.h"
#include "recovery/recovery_manager.h"
#include "replication/catalog.h"
#include "replication/session.h"
#include "sim/disk_model.h"
#include "storage/durable/durable_engine.h"
#include "storage/stable_storage.h"
#include "txn/data_manager.h"
#include "txn/transaction_manager.h"
#include "verify/history.h"

namespace ddbs {

class Site {
 public:
  Site(SiteId id, const Config& cfg, Scheduler& sched, Network& net,
       const Catalog& cat, Metrics& metrics, HistoryRecorder* recorder,
       Tracer* tracer = nullptr);

  // Cold start at t=0: create local copies (data items hosted here plus
  // the full NS vector, everyone at session 1), go straight to operational.
  void bootstrap_up(Value initial_value = 0);

  // Fail-stop crash: volatile state vanishes, transport goes dark.
  void crash();

  // Power the site back on; the recovery procedure runs from here.
  void recover();

  SiteId id() const { return id_; }

  // Reaction to a DeclaredDown notice arriving while operational: restart
  // and re-integrate (see site.cpp for the rationale).
  void on_declared_down();

  SiteState& state() { return state_; }
  const SiteState& state() const { return state_; }
  StableStorage& stable() { return stable_; }
  const StableStorage& stable() const { return stable_; }
  StorageEngine& storage_engine() { return *engine_; }
  const StorageEngine& storage_engine() const { return *engine_; }
  DataManager& dm() { return *dm_; }
  TransactionManager& tm() { return *tm_; }
  RecoveryManager& rm() { return *rm_; }
  FailureDetector& detector() { return *fd_; }
  RpcEndpoint& rpc() { return rpc_; }
  const RpcEndpoint& rpc() const { return rpc_; }

 private:
  SiteId id_;
  const Config& cfg_;
  Scheduler& sched_;
  Network& net_;
  const Catalog& cat_;
  Metrics& metrics_;
  Tracer* tracer_;

  SiteState state_;
  StableStorage stable_;
  // Device + engine must outlive stable_'s users and are per-site, so the
  // parallel backend's per-shard schedulers drive them transparently.
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<StorageEngine> engine_;
  RpcEndpoint rpc_;
  std::unique_ptr<DataManager> dm_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<RecoveryManager> rm_;
  std::unique_ptr<FailureDetector> fd_;
};

} // namespace ddbs
