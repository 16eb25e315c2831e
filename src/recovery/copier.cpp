#include "recovery/copier.h"

#include <algorithm>

#include "common/logging.h"
#include "replication/interpreter.h"

namespace ddbs {

CopierCoordinator::CopierCoordinator(TxnId txn, const CoordinatorEnv& env,
                                     ItemId item)
    : CoordinatorBase(txn, TxnKind::kCopier, env), item_(item) {}

void CopierCoordinator::start() {
  schedule(cfg_.txn_timeout, [this]() {
    if (!decided_) abort_txn(Code::kTimeout);
  });
  metrics_.inc(metrics_.id.copier_started);
  trace_begin(item_);
  // Copiers follow the same convention: read the local NS vector first,
  // then locate a readable source among nominally-up resident sites.
  auto resume = [this](bool ok) {
    if (decided_) return;
    if (!ok) {
      abort_txn(Code::kAborted);
      return;
    }
    sources_.clear();
    for (SiteId s : cat_.sites_of(item_)) {
      if (s != self_ && view_.session(s) != 0) {
        sources_.push_back(s);
      }
    }
    try_source(0);
  };
  read_ns_entries(self_, host_set(), state_.session, std::move(resume));
}

std::vector<SiteId> CopierCoordinator::host_set() const {
  if (!cfg_.footprint_ns) return all_sites();
  const auto resident = cat_.sites_of(item_);
  std::vector<SiteId> hosts(resident.begin(), resident.end());
  hosts.push_back(self_);
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return hosts;
}

void CopierCoordinator::try_source(size_t idx) {
  if (decided_) return;
  if (idx >= sources_.size()) {
    // "If the copier cannot find a readable copy ... among the currently
    // operational sites, this item is considered totally failed" (S. 3.2).
    // Resolution (the paper's deferred "separate protocol"): when every
    // resident site is nominally up and every copy is merely MARKED, the
    // max-version copy is the latest committed state -- resolve from it.
    bool all_resident_up = true;
    for (SiteId s : cat_.sites_of(item_)) {
      if (view_.session(s) == 0) all_resident_up = false;
    }
    if (all_resident_up && unreadable_sources_ == sources_.size() &&
        !sources_.empty()) {
      metrics_.inc(metrics_.id.copier_resolutions);
      resolve_all_marked(0);
      return;
    }
    metrics_.inc(metrics_.id.copier_totally_failed);
    abort_txn(Code::kTotallyFailed);
    return;
  }
  const SiteId src = sources_[idx];
  send_read(src, ReadMode::kReject,
            [this, idx, src](Code rc, const BatchOpResult* res) {
              switch (rc) {
                case Code::kOk:
                  record_read(src, item_, res->version);
                  write_local(res->value, res->version);
                  return;
                case Code::kUnreadable: // source itself is still refreshing
                  ++unreadable_sources_;
                  try_source(idx + 1);
                  return;
                case Code::kSessionMismatch: // stale view for this source
                case Code::kSiteNotOperational:
                  try_source(idx + 1);
                  return;
                case Code::kTimeout:
                  suspect(src);
                  try_source(idx + 1);
                  return;
                default:
                  abort_txn(rc);
                  return;
              }
            });
}

void CopierCoordinator::resolve_all_marked(size_t idx) {
  if (decided_) return;
  if (idx >= sources_.size()) {
    if (!have_best_) {
      // Everything raced away beneath us; give up this round.
      metrics_.inc(metrics_.id.copier_totally_failed);
      abort_txn(Code::kTotallyFailed);
      return;
    }
    // The local copy competes too. When it is the newest, the install
    // finds the same write and only clears the mark; a user write that
    // lands before the install unmarks the copy, and the install is then
    // skipped as well.
    const Copy* local = stable_.kv().find(item_);
    if (local != nullptr && best_version_ < local->version) {
      best_value_ = local->value;
      best_version_ = local->version;
    }
    write_local(best_value_, best_version_);
    return;
  }
  const SiteId src = sources_[idx];
  send_read(src, ReadMode::kServe,
            [this, idx, src](Code rc, const BatchOpResult* res) {
              if (rc == Code::kOk) {
                record_read(src, item_, res->version);
                if (!have_best_ || best_version_ < res->version) {
                  have_best_ = true;
                  best_value_ = res->value;
                  best_version_ = res->version;
                }
              } else if (rc == Code::kTimeout) {
                suspect(src);
                // A resident site died mid-resolution: the soundness
                // argument needs every resident copy visible; abort and
                // retry later.
                abort_txn(Code::kTotallyFailed);
                return;
              }
              resolve_all_marked(idx + 1);
            });
}

void CopierCoordinator::send_read(
    SiteId src, ReadMode mode,
    std::function<void(Code, const BatchOpResult*)> k) {
  BatchReq req = batch_header(view_.session(src));
  BatchOp op;
  op.item = item_;
  op.read_mode = mode;
  req.ops.push_back(std::move(op));
  send_request(src, std::move(req), cfg_.lock_timeout + cfg_.rpc_timeout,
               [this, k = std::move(k)](Code code, const Payload* payload) {
                 if (decided_) return;
                 const BatchOpResult* res = nullptr;
                 if (code == Code::kOk && payload != nullptr) {
                   res = &std::get<BatchResp>(*payload).results[0];
                   code = res->code;
                 }
                 k(code, res);
               });
}

void CopierCoordinator::write_local(Value value, Version version) {
  // Version-compare refinement (Section 5): when the local tag already
  // matches the source, no payload needs to move -- the commit merely
  // clears the unreadable mark. We count avoided transfers for E3.
  if (cfg_.outdated_strategy == OutdatedStrategy::kMarkAllVersionCmp) {
    const Copy* local = stable_.kv().find(item_);
    if (local != nullptr && local->version == version) {
      metrics_.inc(metrics_.id.copier_payload_avoided_vcmp);
    } else {
      metrics_.inc(metrics_.id.copier_payload_copies);
    }
  } else {
    metrics_.inc(metrics_.id.copier_payload_copies);
  }
  BatchReq req = batch_header(view_.session(self_));
  BatchOp op;
  op.op = BatchOpKind::kWrite;
  op.item = item_;
  op.value = value;
  op.is_copier_write = true;
  op.copier_version = version;
  req.ops.push_back(std::move(op));
  send_request(
      self_, std::move(req), cfg_.lock_timeout + cfg_.rpc_timeout,
      [this](Code code, const Payload* payload) {
        if (decided_) return;
        Code rc = code;
        if (code == Code::kOk && payload != nullptr) {
          rc = std::get<BatchResp>(*payload).code;
        }
        if (rc != Code::kOk) {
          abort_txn(rc);
          return;
        }
        run_commit([this](bool committed) {
          if (committed) {
            metrics_.inc(metrics_.id.copier_committed);
            trace(TraceKind::kCopierCommit, item_);
            report_committed({});
          } else {
            report_aborted(Code::kAborted);
          }
        });
      });
}

} // namespace ddbs
