#include "core/site.h"

#include <cassert>

#include "common/logging.h"

namespace ddbs {

Site::Site(SiteId id, const Config& cfg, Scheduler& sched, Network& net,
           const Catalog& cat, Metrics& metrics, HistoryRecorder* recorder,
           Tracer* tracer)
    : id_(id),
      cfg_(cfg),
      sched_(sched),
      net_(net),
      cat_(cat),
      metrics_(metrics),
      tracer_(tracer),
      rpc_(id, net, sched) {
  if (cfg_.storage_engine == StorageEngineKind::kDurable) {
    disk_ = std::make_unique<DiskModel>(sched_, cfg_, metrics_);
    engine_ = std::make_unique<DurableEngine>(id_, cfg_, sched_, *disk_,
                                              stable_, metrics_, tracer);
  } else {
    engine_ = std::make_unique<InMemoryEngine>();
  }
  stable_.set_engine(engine_.get());
  rpc_.set_tracer(tracer);
  CoordinatorEnv env;
  env.self = id_;
  env.cfg = &cfg_;
  env.sched = &sched_;
  env.rpc = &rpc_;
  env.cat = &cat_;
  env.stable = &stable_;
  env.state = &state_;
  env.metrics = &metrics_;
  env.recorder = recorder;
  env.tracer = tracer;

  dm_ = std::make_unique<DataManager>(id_, cfg_, sched_, rpc_, stable_,
                                      state_, metrics_, recorder, tracer);
  tm_ = std::make_unique<TransactionManager>(env);
  tm_->set_local_dm(dm_.get());
  rm_ = std::make_unique<RecoveryManager>(env, *dm_, *tm_);
  fd_ = std::make_unique<FailureDetector>(env, *tm_);

  tm_->set_suspect_fn([this](SiteId s) { fd_->suspect(s); });
  dm_->set_unreadable_hook([this](ItemId item) {
    rm_->on_demand_copier(item);
  });
  dm_->set_coordinating_fn(
      [this](TxnId txn) { return tm_->coordinating(txn); });
  rm_->set_on_operational([this](SessionNum) { fd_->start(); });

  rpc_.start([this](Envelope& env2) {
    if (std::holds_alternative<DeclaredDown>(env2.payload)) {
      on_declared_down();
      return;
    }
    dm_->handle_request(std::move(env2));
  });
}

void Site::on_declared_down() {
  // A type-2 control transaction declared this site nominally down while
  // it is alive -- only possible when the fail-stop assumption was
  // violated (e.g. message loss starved the declarer's pings). Continuing
  // to operate would fork the replicated state: user transactions here
  // still see themselves as up while everyone else skips this site's
  // copies. The safe reaction is process suicide + normal re-integration.
  if (state_.mode != SiteMode::kUp) return;
  metrics_.inc(metrics_.id.site_false_declaration_restart);
  DDBS_WARN << "site " << id_
            << " learned it was declared down while alive; restarting";
  sched_.after(1, [this]() {
    if (state_.mode != SiteMode::kUp) return;
    crash();
    recover(); // re-integrate right away through the normal procedure
  });
}

void Site::bootstrap_up(Value initial_value) {
  for (ItemId item : cat_.items_at(id_)) {
    stable_.kv().create(item, initial_value);
  }
  for (SiteId k = 0; k < cfg_.n_sites; ++k) {
    stable_.kv().create(ns_item(k), 1);
  }
  // Every site starts in operational session 1; advance the stable counter
  // past it so the first recovery allocates session 2.
  while (stable_.last_session_number() < 1) stable_.next_session_number();
  state_.mode = SiteMode::kUp;
  state_.session = 1;
  net_.set_alive(id_, true);
  fd_->start();
}

void Site::crash() {
  assert(state_.mode != SiteMode::kDown && "crashing a down site");
  DDBS_INFO << "site " << id_ << " CRASH at " << sched_.now();
  metrics_.inc(metrics_.id.site_crashes);
  Tracer::emit(tracer_, TraceKind::kSiteCrash, id_);
  net_.set_alive(id_, false);
  rpc_.reset();
  fd_->stop();
  tm_->crash();
  dm_->crash();
  rm_->on_crash();
  // Last, after every component finished its teardown mutations: the
  // durable engine discards the RAM image of stable state here (the
  // in-memory engine keeps it, as the legacy model always did).
  engine_->on_crash();
  state_.mode = SiteMode::kDown;
  state_.session = 0;
}

void Site::recover() {
  assert(state_.mode == SiteMode::kDown && "recovering a non-down site");
  DDBS_INFO << "site " << id_ << " powering up at " << sched_.now();
  metrics_.inc(metrics_.id.site_recovers);
  Tracer::emit(tracer_, TraceKind::kSiteRecover, id_);
  state_.mode = SiteMode::kRecovering;
  state_.session = 0; // as[k] = 0: control transactions only (step 1)
  // The storage engine rebuilds the stable image first (checkpoint load +
  // redo replay under the durable engine; inline under in-memory). The
  // site stays network-dark until the image is consistent -- a rebooting
  // machine answers no queries, and in particular must not answer an
  // OutcomeQuery from a half-rebuilt outcome table.
  engine_->reboot([this]() {
    if (state_.mode != SiteMode::kRecovering) return; // crashed mid-replay
    net_.set_alive(id_, true);
    dm_->boot();
    rm_->begin_recovery();
  });
}

} // namespace ddbs
