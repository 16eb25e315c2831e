#include "verify/history.h"

#include <algorithm>
#include <cstddef>

namespace ddbs {

// Events may arrive for a transaction after its commit() was recorded: the
// coordinator commits when 2PC completes, but participants apply (and
// record) their staged writes when the CommitReq reaches them, later in sim
// time. record_of() therefore resolves a txn to its in-flight record OR its
// already-committed slot.
TxnRecord& HistoryRecorder::record_of(TxnId txn) {
  if (auto it = committed_idx_.find(txn); it != committed_idx_.end()) {
    return committed_.txns[it->second];
  }
  TxnRecord& rec = pending_[txn];
  rec.txn = txn;
  return rec;
}

HistoryRecorder::Stub* HistoryRecorder::stub_of(TxnId txn) {
  if (stubs_.empty()) return nullptr;
  uint32_t* i = stub_idx_.find(txn + 1);
  return i == nullptr ? nullptr : &stubs_[*i];
}

void HistoryRecorder::set_kind(TxnId txn, TxnKind kind) {
  MaybeLock lock(mu_.get());
  if (!enabled_) return;
  record_of(txn).kind = kind;
}

void HistoryRecorder::add_read(TxnId txn, SiteId site, ItemId item,
                               TxnId from_writer, uint64_t from_counter) {
  MaybeLock lock(mu_.get());
  if (!enabled_) return;
  const ReadEvent r{site, item, from_writer, from_counter};
  if (const Stub* st = stub_of(txn)) {
    if (sink_ != nullptr) {
      sink_->on_late_read(TxnRecord{txn, st->kind, st->commit_time, {}, {}},
                          r);
    }
    return;
  }
  const bool late = committed_idx_.count(txn) > 0;
  TxnRecord& rec = record_of(txn);
  rec.reads.push_back(r);
  if (late && sink_ != nullptr) sink_->on_late_read(rec, r);
}

void HistoryRecorder::add_write(TxnId txn, SiteId site, ItemId item,
                                uint64_t counter, Value value,
                                bool copier_install) {
  MaybeLock lock(mu_.get());
  if (!enabled_) return;
  const WriteEvent w{site, item, counter, value, copier_install};
  if (const Stub* st = stub_of(txn)) {
    if (sink_ != nullptr) {
      sink_->on_late_write(TxnRecord{txn, st->kind, st->commit_time, {}, {}},
                           w);
    }
    return;
  }
  const bool late = committed_idx_.count(txn) > 0;
  TxnRecord& rec = record_of(txn);
  rec.writes.push_back(w);
  if (late && sink_ != nullptr) sink_->on_late_write(rec, w);
}

void HistoryRecorder::commit(TxnId txn, SimTime at) {
  MaybeLock lock(mu_.get());
  if (!enabled_) return;
  // Re-commit: update the time.
  if (Stub* st = stub_of(txn)) {
    st->commit_time = at;
    return;
  }
  if (auto it = committed_idx_.find(txn); it != committed_idx_.end()) {
    committed_.txns[it->second].commit_time = at;
    sorted_ = false;
    return;
  }
  TxnRecord rec;
  if (auto it = pending_.find(txn); it != pending_.end()) {
    rec = std::move(it->second);
    pending_.erase(it);
  }
  rec.txn = txn;
  rec.commit_time = at;
  ++total_committed_;
  if (sink_ != nullptr) {
    // Streaming: the sink takes the record, the recorder keeps a stub.
    sink_->on_commit(rec);
    stub_idx_.insert(txn + 1, static_cast<uint32_t>(stubs_.size()));
    stubs_.push_back(Stub{txn, at, rec.kind});
    return;
  }
  committed_idx_.emplace(txn, committed_.txns.size());
  committed_.txns.push_back(std::move(rec));
  sorted_ = false;
}

void HistoryRecorder::abort(TxnId txn) {
  MaybeLock lock(mu_.get());
  if (!enabled_) return;
  pending_.erase(txn);
}

size_t HistoryRecorder::clear_pending() {
  MaybeLock lock(mu_.get());
  const size_t n = pending_.size();
  pending_.clear();
  return n;
}

const History& HistoryRecorder::view() const {
  MaybeLock lock(mu_.get());
  return view_locked();
}

const History& HistoryRecorder::view_locked() const {
  if (!sorted_) {
    // Commits are recorded in nondecreasing sim-time order, so this is a
    // near-sorted pass; ties broken by txn id for determinism.
    std::sort(committed_.txns.begin(), committed_.txns.end(),
              [](const TxnRecord& a, const TxnRecord& b) {
                if (a.commit_time != b.commit_time)
                  return a.commit_time < b.commit_time;
                return a.txn < b.txn;
              });
    committed_idx_.clear();
    for (size_t i = 0; i < committed_.txns.size(); ++i) {
      committed_idx_.emplace(committed_.txns[i].txn, i);
    }
    sorted_ = true;
  }
  return committed_;
}

History HistoryRecorder::snapshot() const { return view(); }

size_t HistoryRecorder::committed_count() const {
  return committed_.txns.size() + stubs_.size();
}

// Put the stubs in (commit time, txn) order, as view() orders records (a
// re-commit or a tie can disturb it), and rebuild their index.
void HistoryRecorder::sort_stubs() {
  std::sort(stubs_.begin(), stubs_.end(), [](const Stub& a, const Stub& b) {
    if (a.commit_time != b.commit_time) return a.commit_time < b.commit_time;
    return a.txn < b.txn;
  });
  stub_idx_.clear();
  for (size_t i = 0; i < stubs_.size(); ++i) {
    stub_idx_.insert(stubs_[i].txn + 1, static_cast<uint32_t>(i));
  }
}

void HistoryRecorder::prune_committed_prefix(size_t n) {
  MaybeLock lock(mu_.get());
  if (n == 0) return;
  view_locked(); // establish the canonical (commit_time, txn) order first
  const size_t records = std::min(n, committed_.txns.size());
  committed_.txns.erase(committed_.txns.begin(),
                        committed_.txns.begin() +
                            static_cast<std::ptrdiff_t>(records));
  committed_idx_.clear();
  for (size_t i = 0; i < committed_.txns.size(); ++i) {
    committed_idx_.emplace(committed_.txns[i].txn, i);
  }
  const size_t stubs = std::min(n - records, stubs_.size());
  if (stubs == stubs_.size()) {
    stubs_ = {}; // all of them: give the memory back
    stub_idx_ = {};
  } else if (stubs > 0) {
    sort_stubs();
    stubs_.erase(stubs_.begin(),
                 stubs_.begin() + static_cast<std::ptrdiff_t>(stubs));
    sort_stubs(); // re-index the survivors
  }
  pruned_committed_ += records + stubs;
}

} // namespace ddbs
