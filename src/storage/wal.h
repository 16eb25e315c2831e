// Write-ahead log for a participant's part in two-phase commit. The log is
// the stable record that lets a recovering site resolve *in-doubt*
// transactions (prepared, outcome unknown) via the cooperative termination
// protocol -- the paper assumes this "transaction resolution" layer exists
// (Section 1); we build it.
//
// The log is an in-memory vector standing in for a durable device (the
// durable storage engine journals it for real through the StorageSink
// hooks). Commit/abort records for resolved transactions let it be
// checkpointed down to just the live prefix.
//
// An open-prepare index (txn -> log position of the unresolved kPrepare
// record) is maintained on append, so in_doubt() and truncate_resolved()
// cost O(live prepares), not O(log); the full log is never rescanned.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/small_vec.h"
#include "common/types.h"

namespace ddbs {

class StorageSink;

struct WalWrite {
  ItemId item = 0;
  Value value = 0;
  bool is_copier_write = false;
  Version copier_version;
  SiteVec missed_sites; // fail-lock/ML bookkeeping to redo
};

struct WalRecord {
  enum class Kind : uint8_t { kPrepare, kCommit, kAbort };
  Kind kind = Kind::kPrepare;
  TxnId txn = 0;
  TxnKind txn_kind = TxnKind::kUser;
  SiteId coordinator = kInvalidSite;
  std::vector<WalWrite> writes;                          // kPrepare only
  std::vector<std::pair<ItemId, uint64_t>> new_counters; // kCommit only
};

class Wal {
 public:
  void append(WalRecord rec);

  // Prepared transactions with no commit/abort record yet, in log order.
  std::vector<WalRecord> in_doubt() const;

  // Drop records of resolved transactions (checkpoint).
  void truncate_resolved();

  size_t size() const { return records_.size(); }
  const std::vector<WalRecord>& records() const { return records_; }

  // Mutation observer (durable engine); null = no notifications.
  void set_sink(StorageSink* sink) { sink_ = sink; }
  // Replace the whole log (durable-engine checkpoint restore). Rebuilds
  // the open-prepare index; not a sink-visible mutation.
  void restore(std::vector<WalRecord> records);
  void wipe() { restore({}); }

 private:
  std::vector<WalRecord> records_;
  // Unresolved kPrepare records: txn -> index into records_. Every
  // non-prepare append resolves its txn, so this holds exactly the
  // in-doubt set at all times.
  std::unordered_map<TxnId, uint32_t> open_prepares_;
  StorageSink* sink_ = nullptr;
};

} // namespace ddbs
