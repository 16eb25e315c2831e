// Global execution-history recorder feeding the serializability checkers
// (paper Section 4). Records *physical* reads and writes of committed
// transactions; aborted transactions contribute nothing (they are atomic,
// Section 2). The recorder is outside the protocol -- an omniscient
// observer used by tests, examples and the anomaly demo.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/u64_table.h"

namespace ddbs {

struct ReadEvent {
  SiteId site = kInvalidSite;
  ItemId item = 0;
  TxnId from_writer = 0;      // version.writer observed (0 = initial state)
  uint64_t from_counter = 0;  // version.counter observed
};

struct WriteEvent {
  SiteId site = kInvalidSite;
  ItemId item = 0;
  uint64_t counter = 0; // final version counter installed
  Value value = 0;
  bool copier_install = false; // installed by copier semantics
};

struct TxnRecord {
  TxnId txn = 0;
  TxnKind kind = TxnKind::kUser;
  SimTime commit_time = kNoTime;
  std::vector<ReadEvent> reads;
  std::vector<WriteEvent> writes;
};

// Copiers and control transactions are not part of the one-copy serial
// history (Section 4.1): with respect to DB, control transactions perform
// no data-item operations at all, and copiers only re-publish a version
// some other transaction wrote.
inline bool is_copierish(TxnKind kind) {
  return kind == TxnKind::kCopier || kind == TxnKind::kControlUp ||
         kind == TxnKind::kControlDown;
}

struct History {
  std::vector<TxnRecord> txns; // committed only, by commit time
};

// Observer of the recorder's committed-transaction stream. on_commit fires
// with the full record as known at commit time; events that land on an
// already-committed record afterwards (participant applies, WAL redo after
// recovery, spool replay) arrive as on_late_*, with the recorder's stub of
// the record (txn, kind and commit time; no events). A sink sees exactly
// the same events a post-hoc pass over a sink-less recorder's view() would,
// just incrementally -- which is what lets OnlineVerifier keep judging
// while the recorder keeps no events, and lets a recorded History be
// replayed through it.
class HistorySink {
 public:
  virtual ~HistorySink() = default;
  virtual void on_commit(const TxnRecord& rec) = 0;
  virtual void on_late_read(const TxnRecord& rec, const ReadEvent& r) = 0;
  virtual void on_late_write(const TxnRecord& rec, const WriteEvent& w) = 0;
};

class HistoryRecorder {
 public:
  void set_kind(TxnId txn, TxnKind kind);
  void add_read(TxnId txn, SiteId site, ItemId item, TxnId from_writer,
                uint64_t from_counter);
  void add_write(TxnId txn, SiteId site, ItemId item, uint64_t counter,
                 Value value, bool copier_install);
  void commit(TxnId txn, SimTime at);
  void abort(TxnId txn);

  bool enabled() const { return enabled_; }
  void set_enabled(bool e) { enabled_ = e; }

  // Parallel backend: sites on different shard threads record through one
  // recorder, so serialize every mutation (and sink callback) behind a
  // mutex. Off by default -- the single-threaded DES pays nothing but a
  // predicted-false branch.
  void set_thread_safe(bool on) {
    if (on && !mu_) mu_ = std::make_unique<std::mutex>();
    if (!on) mu_.reset();
  }

  // At most one sink (the online verifier); nullptr detaches. While a sink
  // is attached the recorder streams: commit() hands the full record to
  // the sink and keeps only a stub (txn, kind, commit time), and a late
  // read or write goes to the sink with a record holding just that stub.
  // Memory then grows with the unpruned commit count, not the events.
  void set_sink(HistorySink* sink) { sink_ = sink; }

  // Committed transactions ordered by commit time, borrowed from the
  // recorder -- no copy. The reference stays valid until the next commit().
  // Checkers take `const History&`, so this is the preferred entry point.
  // It holds only what committed while no sink was attached: a streaming
  // recorder keeps stubs, not records.
  const History& view() const;

  // Owned copy of view(), for callers that outlive the recorder or mutate
  // the history. Same caveat as view().
  History snapshot() const;

  // Committed records and stubs not yet pruned.
  size_t committed_count() const;

  // Drops the first `n` committed transactions in (commit time, txn)
  // order: the prefix an online checker has fully consumed and
  // acknowledged, bounding memory over long runs. Records go before stubs
  // (a recorder that always streams holds only stubs). Checkers that later
  // call view() see only the retained suffix, so callers must prune only
  // prefixes whose verdicts are already banked.
  void prune_committed_prefix(size_t n);

  // Records still buffered for in-flight (uncommitted) transactions. A
  // settled cluster should hold none; the online verifier refuses to prune
  // while any remain.
  size_t pending_count() const { return pending_.size(); }

  // Drops every in-flight record. Only sound at a settled boundary (no
  // active coordinators anywhere): the survivors are then orphans of
  // crashed coordinators, which presumed-abort 2PC can never commit, so
  // they would otherwise pin the pending map forever. Returns the count.
  size_t clear_pending();

  // Total commits observed and records dropped by pruning, for reports and
  // boundedness assertions: committed_count() == total - pruned.
  uint64_t total_committed() const { return total_committed_; }
  uint64_t pruned_committed() const { return pruned_committed_; }

 private:
  // What a streaming recorder keeps of a committed transaction.
  struct Stub {
    TxnId txn = 0;
    SimTime commit_time = kNoTime;
    TxnKind kind = TxnKind::kUser;
  };

  TxnRecord& record_of(TxnId txn);
  const History& view_locked() const;
  // The stub of a streamed commit, or nullptr.
  Stub* stub_of(TxnId txn);
  void sort_stubs();

  // Lock mu_ if thread safety was requested; no-op otherwise.
  struct MaybeLock {
    explicit MaybeLock(std::mutex* m) : m_(m) {
      if (m_ != nullptr) m_->lock();
    }
    ~MaybeLock() {
      if (m_ != nullptr) m_->unlock();
    }
    MaybeLock(const MaybeLock&) = delete;
    MaybeLock& operator=(const MaybeLock&) = delete;
    std::mutex* m_;
  };

  // In-flight transactions accumulate here; commit() moves the record into
  // committed_ (so a checker pass never re-copies the whole history), or
  // hands it to the sink and keeps a stub, and abort() just drops it. committed_idx_ maps a committed txn back to its
  // slot so participant writes that land after the coordinator's commit
  // still reach the record; view() re-sorts lazily and rebuilds the index.
  std::unordered_map<TxnId, TxnRecord> pending_;
  mutable std::unordered_map<TxnId, size_t> committed_idx_;
  mutable History committed_;
  mutable bool sorted_ = true;
  // Streamed commits, indexed by txn + 1 (the table reserves key 0).
  std::vector<Stub> stubs_;
  U64Table<uint32_t> stub_idx_;
  bool enabled_ = true;
  HistorySink* sink_ = nullptr;
  std::unique_ptr<std::mutex> mu_;
  uint64_t total_committed_ = 0;
  uint64_t pruned_committed_ = 0;
};

} // namespace ddbs
