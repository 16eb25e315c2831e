#include "storage/durable/durable_engine.h"

#include <algorithm>
#include <utility>

namespace ddbs {

// ---- modeled sizes --------------------------------------------------------
// Deterministic integer estimates of the on-device footprint; used only to
// drive the disk model, never for correctness.

int64_t DurableEngine::bytes_of(const WalRecord& rec) {
  int64_t b = 48;
  b += 32 * static_cast<int64_t>(rec.writes.size());
  b += 16 * static_cast<int64_t>(rec.new_counters.size());
  return b;
}

int64_t DurableEngine::bytes_of(const RedoRecord& rec) {
  switch (rec.kind) {
    case RedoRecord::Kind::kWalAppend:
      return 32 + bytes_of(rec.wal);
    case RedoRecord::Kind::kOutcome:
      return 48 + 16 * static_cast<int64_t>(rec.outcome.new_counters.size()) +
             8 * static_cast<int64_t>(rec.outcome.unacked.size());
    case RedoRecord::Kind::kSpoolAdd:
      return 64;
    default:
      return 32;
  }
}

int64_t DurableEngine::image_bytes() const {
  int64_t b = kSectorBytes; // superblock
  b += 48 * static_cast<int64_t>(stable_.kv().size());
  for (const WalRecord& r : stable_.wal().records()) b += bytes_of(r);
  for (const auto& [txn, rec] : stable_.outcomes()) {
    b += 48 + 16 * static_cast<int64_t>(rec.new_counters.size());
  }
  b += 64 * static_cast<int64_t>(stable_.spool().total_records());
  return b;
}

// ---- journaling -----------------------------------------------------------

void DurableEngine::append(RedoRecord rec) {
  if (suspended_) return; // replay/restore re-applying: already journaled
  unflushed_bytes_ += bytes_of(rec);
  log_.push_back(std::move(rec));
  metrics_.inc(metrics_.id.storage_log_records);
  maybe_checkpoint();
}

void DurableEngine::on_kv_create(ItemId item, Value v) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kKvCreate;
  r.item = item;
  r.value = v;
  append(std::move(r));
}

void DurableEngine::on_kv_install(ItemId item, Value v, const Version& ver) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kKvInstall;
  r.item = item;
  r.value = v;
  r.version = ver;
  append(std::move(r));
}

void DurableEngine::on_kv_mark(ItemId item) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kKvMark;
  r.item = item;
  append(std::move(r));
}

void DurableEngine::on_kv_clear_mark(ItemId item) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kKvClearMark;
  r.item = item;
  append(std::move(r));
}

void DurableEngine::on_wal_append(const WalRecord& rec) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kWalAppend;
  r.wal = rec;
  append(std::move(r));
}

void DurableEngine::on_wal_truncate(size_t /*dropped*/) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kWalTruncate;
  append(std::move(r));
}

void DurableEngine::on_outcome(TxnId txn, const OutcomeRec& rec) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kOutcome;
  r.txn = txn;
  r.outcome = rec;
  append(std::move(r));
}

void DurableEngine::on_forget_outcome(TxnId txn) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kForgetOutcome;
  r.txn = txn;
  append(std::move(r));
}

void DurableEngine::on_spool_add(SiteId for_site, const SpoolRecord& rec) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kSpoolAdd;
  r.spool_site = for_site;
  r.spool = rec;
  append(std::move(r));
}

void DurableEngine::on_spool_trim(SiteId for_site) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kSpoolTrim;
  r.spool_site = for_site;
  append(std::move(r));
}

void DurableEngine::on_session_advance(SessionNum n) {
  RedoRecord r;
  r.kind = RedoRecord::Kind::kSession;
  r.session = n;
  append(std::move(r));
}

// ---- flush barrier --------------------------------------------------------

void DurableEngine::flush(std::function<void()> done) {
  // Group-commit write of everything appended since the last barrier; a
  // barrier with nothing pending still pays one sector (the device does
  // not write less than a sector, and callers asked for a round trip).
  const int64_t bytes = std::max(unflushed_bytes_, kSectorBytes);
  unflushed_bytes_ = 0;
  disk_.submit(DiskModel::Op::kWrite, bytes, std::move(done));
}

// ---- checkpointing --------------------------------------------------------

void DurableEngine::maybe_checkpoint() {
  if (cfg_.checkpoint_interval <= 0) return;
  if (ckpt_in_flight_ || replaying_) return;
  if (static_cast<int64_t>(log_.size()) < cfg_.checkpoint_interval) return;

  // Snapshot the image as of this log position; the site keeps running
  // (and appending past the cut) while the image write is on the device.
  ckpt_in_flight_ = true;
  ckpt_cut_ = log_.size();
  pending_.kv = stable_.kv();
  pending_.wal = stable_.wal().records();
  pending_.spool = stable_.spool();
  pending_.outcomes = stable_.outcomes();
  pending_.session = stable_.last_session_number();
  pending_.bytes = image_bytes();

  const uint64_t epoch = epoch_;
  disk_.submit(DiskModel::Op::kWrite, pending_.bytes, [this, epoch]() {
    if (epoch != epoch_) return; // crash mid-write: counted in on_crash()
    ckpt_ = std::move(pending_);
    pending_ = Checkpoint{};
    has_ckpt_ = true;
    log_.erase(log_.begin(),
               log_.begin() + static_cast<std::ptrdiff_t>(ckpt_cut_));
    metrics_.inc(metrics_.id.storage_checkpoints);
    metrics_.inc(metrics_.id.storage_log_truncated,
                 static_cast<int64_t>(ckpt_cut_));
    ckpt_in_flight_ = false;
    maybe_checkpoint(); // records kept appending during the write
  });
}

// ---- crash / reboot -------------------------------------------------------

void DurableEngine::on_crash() {
  ++epoch_; // kills in-flight disk completions and replay continuations
  if (ckpt_in_flight_) {
    metrics_.inc(metrics_.id.storage_checkpoint_dropped);
    ckpt_in_flight_ = false;
    pending_ = Checkpoint{};
  }
  disk_.reset();
  unflushed_bytes_ = 0;
  replaying_ = false;
  replay_done_ = 0;
  replay_total_ = 0;
  // The RAM image is a cache of the device; power loss discards it.
  suspended_ = true;
  stable_.wipe_image();
  suspended_ = false;
}

void DurableEngine::install_image() {
  suspended_ = true;
  if (has_ckpt_) {
    stable_.kv() = ckpt_.kv;
    stable_.wal().restore(ckpt_.wal);
    stable_.spool() = ckpt_.spool;
    stable_.restore_outcomes(ckpt_.outcomes);
    stable_.restore_session_counter(ckpt_.session);
  }
  // Re-wire sinks: the copied components carry snapshot-time pointers.
  stable_.set_engine(this);
  suspended_ = false;
}

void DurableEngine::apply(const RedoRecord& rec) {
  switch (rec.kind) {
    case RedoRecord::Kind::kKvCreate:
      stable_.kv().create(rec.item, rec.value);
      break;
    case RedoRecord::Kind::kKvInstall:
      stable_.kv().install(rec.item, rec.value, rec.version);
      break;
    case RedoRecord::Kind::kKvMark:
      stable_.kv().mark_unreadable(rec.item);
      break;
    case RedoRecord::Kind::kKvClearMark:
      stable_.kv().clear_mark(rec.item);
      break;
    case RedoRecord::Kind::kWalAppend:
      stable_.wal().append(rec.wal);
      break;
    case RedoRecord::Kind::kWalTruncate:
      stable_.wal().truncate_resolved();
      break;
    case RedoRecord::Kind::kOutcome:
      stable_.record_outcome(rec.txn, rec.outcome);
      break;
    case RedoRecord::Kind::kForgetOutcome:
      stable_.forget_outcome(rec.txn);
      break;
    case RedoRecord::Kind::kSpoolAdd:
      stable_.spool().add(rec.spool_site, rec.spool);
      break;
    case RedoRecord::Kind::kSpoolTrim:
      stable_.spool().trim(rec.spool_site);
      break;
    case RedoRecord::Kind::kSession:
      stable_.restore_session_counter(rec.session);
      break;
  }
}

void DurableEngine::reboot(std::function<void()> done) {
  replaying_ = true;
  replay_done_ = 0;
  replay_total_ = static_cast<int64_t>(log_.size());
  replay_start_ = sched_.now();
  const uint64_t epoch = epoch_;
  // Read the checkpoint image (or just the superblock on a virgin disk),
  // install it, then chew through the redo suffix batch by batch.
  disk_.submit(DiskModel::Op::kRead, has_ckpt_ ? ckpt_.bytes : kSectorBytes,
               [this, epoch, done = std::move(done)]() mutable {
                 if (epoch != epoch_) return;
                 install_image();
                 replay_batch(0, std::move(done));
               });
}

void DurableEngine::replay_batch(size_t idx, std::function<void()> done) {
  if (idx >= log_.size()) {
    finish_replay(std::move(done));
    return;
  }
  const size_t n = std::min(kReplayBatch, log_.size() - idx);
  int64_t bytes = 0;
  for (size_t i = idx; i < idx + n; ++i) bytes += bytes_of(log_[i]);
  const uint64_t epoch = epoch_;
  disk_.submit(DiskModel::Op::kRead, bytes,
               [this, epoch, idx, n, done = std::move(done)]() mutable {
                 if (epoch != epoch_) return;
                 suspended_ = true;
                 for (size_t i = idx; i < idx + n; ++i) apply(log_[i]);
                 suspended_ = false;
                 replay_done_ += static_cast<int64_t>(n);
                 metrics_.inc(metrics_.id.rec_replay_batches);
                 replay_batch(idx + n, std::move(done));
               });
}

void DurableEngine::finish_replay(std::function<void()> done) {
  replaying_ = false;
  const SimTime took = sched_.now() - replay_start_;
  metrics_.hist(metrics_.id.h_replay_records)
      .add(static_cast<double>(replay_total_));
  metrics_.hist(metrics_.id.h_replay_us).add(static_cast<double>(took));
  Tracer::emit(tracer_, TraceKind::kReplayDone, self_, 0, replay_total_,
               static_cast<int64_t>(took));
  done();
}

} // namespace ddbs
