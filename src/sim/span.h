// Causal span log. Every logical unit of work -- a user transaction, a
// type-1/type-2 control transaction, a copier, a detector verify chain, a
// recovery episode -- opens a span; per-site DM work (lock waits, staging,
// applies, session rejects) nests under the span of the coordinator that
// caused it. Spans propagate across the simulated network by stamping the
// current span id into every Envelope, so causality survives RPC hops
// without any global state beyond this log.
//
// Recording reuses the Tracer's discipline: a fixed-capacity ring of POD
// events, no allocation on the hot path, null-safe static helpers so every
// call site stays a one-liner when the log is disabled. The sim is single
// threaded, so "current span" is a plain ambient variable managed by the
// RAII SpanScope.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace ddbs {

class Scheduler;
class Tracer;

enum class SpanKind : uint8_t {
  kUserTxn,        // coordinator of an ordinary transaction
  kCopier,         // copier transaction refreshing one copy
  kControlUp,      // type-1 control transaction
  kControlDown,    // type-2 control transaction
  kRecovery,       // whole recovery episode of one site (reboot -> current)
  kDetectorVerify, // failure-detector verify chain for one suspect
  kLockWait,       // DM: chain blocked waiting for locks
  kStage,          // DM: write staged into a txn context (instant)
  kApply,          // DM: commit applied to stable storage (instant)
  kSessionReject,  // DM: operation rejected by the session-number check
};

const char* to_string(SpanKind k);

// phase: 0 = begin, 1 = end, 2 = instant. One event per transition keeps
// the ring entry fixed-size; begin/end pairs are stitched back into
// duration spans at export time.
struct SpanEvent {
  SimTime at = 0;
  SpanId span = 0;
  SpanId parent = 0;
  SpanKind kind = SpanKind::kUserTxn;
  uint8_t phase = 0;
  SiteId site = kInvalidSite;
  TxnId txn = 0;
  int64_t arg = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Scheduler& sched, size_t capacity = 1 << 15);

  // Open a span whose parent is the ambient current span (begin) or an
  // explicit one (begin_under). Returns the new span id; ids are assigned
  // from a deterministic counter, so fixed-seed runs produce identical
  // span logs.
  SpanId begin(SpanKind kind, SiteId site, TxnId txn = 0, int64_t arg = 0);
  SpanId begin_under(SpanId parent, SpanKind kind, SiteId site,
                     TxnId txn = 0, int64_t arg = 0);
  void end(SpanId id);
  // Point event attached to the ambient span (instant) or an explicit
  // parent (instant_under).
  void instant(SpanKind kind, SiteId site, TxnId txn = 0, int64_t arg = 0);
  void instant_under(SpanId parent, SpanKind kind, SiteId site,
                     TxnId txn = 0, int64_t arg = 0);

  SpanId current() const { return current_; }

  // Partition the id space for per-shard logs: ids become
  // offset + 1 + k * stride, so shard-local allocation stays globally
  // unique without synchronization. Call before the first begin().
  void set_id_stride(SpanId stride, SpanId offset) {
    next_span_ = offset + 1;
    stride_ = stride;
  }

  // Null-safe helpers mirroring Tracer::emit.
  static SpanId open(SpanLog* log, SpanKind kind, SiteId site,
                     TxnId txn = 0, int64_t arg = 0) {
    return log ? log->begin(kind, site, txn, arg) : 0;
  }
  static void close(SpanLog* log, SpanId id) {
    if (log && id) log->end(id);
  }
  static void note(SpanLog* log, SpanKind kind, SiteId site,
                   TxnId txn = 0, int64_t arg = 0) {
    if (log) log->instant(kind, site, txn, arg);
  }
  static void note_under(SpanLog* log, SpanId parent, SpanKind kind,
                         SiteId site, TxnId txn = 0, int64_t arg = 0) {
    if (log) log->instant_under(parent, kind, site, txn, arg);
  }

  size_t capacity() const { return ring_.size(); }
  uint64_t recorded() const { return next_; }
  uint64_t dropped() const {
    return next_ > ring_.size() ? next_ - ring_.size() : 0;
  }
  size_t size() const { return next_ < ring_.size() ? next_ : ring_.size(); }

  // Visit retained events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const size_t n = size();
    const size_t start = next_ - n;
    for (size_t i = 0; i < n; ++i)
      fn(ring_[(start + i) % ring_.size()]);
  }
  std::vector<SpanEvent> snapshot() const;
  void clear();

  // Chrome trace_event JSON (the "JSON Array Format" with a traceEvents
  // wrapper) of `logs`, log by log, loadable in Perfetto /
  // chrome://tracing. Begin/end pairs become "X" complete events (pid =
  // site, tid = root span of the causal tree within that log); instants
  // become "i" events. Each log's events are followed by the retained flat
  // trace events of tracers[i], when given, as additional instants so one
  // file carries the whole picture. Output is deterministic for a fixed
  // seed.
  static std::string to_chrome_json(
      const std::vector<const SpanLog*>& logs,
      const std::vector<const Tracer*>& tracers = {});

 private:
  friend struct SpanScope;
  // Append this log's events (and `tracer`'s) to a to_chrome_json body.
  void append_chrome(std::string& out, bool& first,
                     const Tracer* tracer) const;
  void record(const SpanEvent& e) { ring_[next_ % ring_.size()] = e; ++next_; }

  Scheduler& sched_;
  std::vector<SpanEvent> ring_;
  uint64_t next_ = 0;     // total events recorded
  SpanId next_span_ = 1;  // deterministic id counter
  SpanId stride_ = 1;     // id step (shard count when sharded)
  SpanId current_ = 0;    // ambient span (single-threaded sim)
};

// RAII "run under this span". Null-safe: a null log makes it a no-op, so
// call sites never branch on whether tracing is enabled.
struct SpanScope {
  SpanScope(SpanLog* log, SpanId span) : log_(log) {
    if (log_) {
      prev_ = log_->current_;
      log_->current_ = span;
    }
  }
  ~SpanScope() {
    if (log_) log_->current_ = prev_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  SpanId prev_ = 0;
};

} // namespace ddbs
