// The event ring of one shard: structured, causally linked trace events
// for the simulated DDBS.
//
// Every logical unit of work -- a user transaction, a type-1/type-2
// control transaction, a copier, a detector verify chain, a recovery
// episode -- opens a span; its begin event IS the step's trace event
// (txn_begin, copier_start, ...). Per-site DM work (lock waits, stages,
// applies, session rejects) nests under the span of the coordinator that
// caused it. Spans propagate across the simulated network by stamping the
// current span id into every Envelope, so causality survives RPC hops
// without any global state beyond this ring.
//
// Recording is cheap (one struct copy, no allocation after construction)
// so it can sit on transaction hot paths; when the ring wraps, the oldest
// events are overwritten and `dropped()` counts them. Producers hold a
// `Tracer*` that may be null (tracing disabled) -- use the null-safe
// static helpers (emit, emit_under, open, close) so every call site stays
// a one-liner. The sim is single threaded per shard, so "current span" is
// a plain ambient variable managed by the RAII SpanScope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/scheduler.h"

namespace ddbs {

enum class TraceKind : uint8_t {
  kTxnBegin = 0,    // span begin: user transaction; b = TxnKind
  kTxnCommit,
  kTxnAbort,        // a = abort Code
  kSessionReject,   // a = rejected-at site's expected session, b = carried
  kControlUpStart,  // span begin: type-1 control transaction; a = attempt #
  kControlUpCommit,
  kControlDownStart, // span begin (first of a batch): type-2 control
                     // transaction; a = suspect site, b = batch size
  kControlDownCommit,
  kCopierStart,  // span begin: copier; a = item id
  kCopierCommit, // a = item id
  kDetectorVerify,  // span begin: verify chain; a = suspect site
  kDetectorDeclare, // a = declared-down site
  kRecoveryStarted, // span begin: whole recovery episode of one site
  kNominallyUp,   // a = session granted, b = copies marked unreadable
  kFullyCurrent,  // last unreadable copy refreshed (no payload)
  kCopierStarved, // a = item id, b = escalated delay (us)
  kSiteCrash,     // site failed (fail-stop)
  kSiteRecover,   // site rebooted (not yet operational)
  kReplayDone,    // storage-engine reboot replay finished;
                  // a = redo records replayed, b = duration (us)
  // DM-local kinds: kept in the ring for the Chrome export and the
  // diagnostic tails, never delivered to sinks.
  kLockWait,      // span: chain blocked waiting for locks; a = item id
};

// Kinds from here on are DM-local.
inline constexpr TraceKind kFirstLocalKind = TraceKind::kLockWait;

const char* to_string(TraceKind k);

// One event per transition keeps the ring entry fixed-size; begin/end
// pairs are stitched back into duration spans at export time.
enum class TracePhase : uint8_t { kInstant = 0, kBegin, kEnd };

const char* to_string(TracePhase p);

struct TraceEvent {
  SimTime at = 0;
  SpanId span = 0;   // the span a begin/end event opens/closes (0: instant)
  SpanId parent = 0; // enclosing span of a begin or instant (0: root)
  TxnId txn = 0;     // 0 when not transaction-scoped
  int64_t a = 0;     // kind-specific (see TraceKind comments)
  int64_t b = 0;
  SiteId site = kInvalidSite; // site where the event happened
  TraceKind kind = TraceKind::kTxnBegin;
  TracePhase phase = TracePhase::kInstant;
};

// At 56 bytes the default 32 Ki-event ring takes 1.8 MB per shard.
static_assert(sizeof(TraceEvent) <= 56);

// Online observer of the trace stream. Sinks see every begin and instant
// of the non-local kinds as it is recorded, before the ring can wrap -- so
// folded products (recovery episodes, time series) never lose early events
// to overwrites even when the ring does. Span ends and DM-local kinds are
// not delivered.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_trace(const TraceEvent& e) = 0;
};

class Tracer {
 public:
  explicit Tracer(Scheduler& sched, size_t capacity = 1 << 15)
      : sched_(sched), ring_(capacity ? capacity : 1) {}

  // Instant event under the ambient span (record) or an explicit parent
  // (record_under).
  void record(TraceKind kind, SiteId site, TxnId txn = 0, int64_t a = 0,
              int64_t b = 0) {
    push(TracePhase::kInstant, 0, current_, kind, site, txn, a, b);
  }
  void record_under(SpanId parent, TraceKind kind, SiteId site,
                    TxnId txn = 0, int64_t a = 0, int64_t b = 0) {
    push(TracePhase::kInstant, 0, parent, kind, site, txn, a, b);
  }

  // Open a span whose begin event is `kind`, under the ambient span
  // (begin) or an explicit one (begin_under). Returns the new span id;
  // ids come from a deterministic counter, so fixed-seed runs produce
  // identical rings.
  SpanId begin(TraceKind kind, SiteId site, TxnId txn = 0, int64_t a = 0,
               int64_t b = 0) {
    return begin_under(current_, kind, site, txn, a, b);
  }
  SpanId begin_under(SpanId parent, TraceKind kind, SiteId site,
                     TxnId txn = 0, int64_t a = 0, int64_t b = 0) {
    const SpanId id = reserve();
    open_reserved(id, parent, kind, site, txn, a, b);
    return id;
  }
  // Allocate a span id now and record its begin later: a coordinator needs
  // its id from construction on but begins when it starts.
  SpanId reserve() {
    const SpanId id = next_span_;
    next_span_ += stride_;
    return id;
  }
  void open_reserved(SpanId id, SpanId parent, TraceKind kind, SiteId site,
                     TxnId txn = 0, int64_t a = 0, int64_t b = 0) {
    push(TracePhase::kBegin, id, parent, kind, site, txn, a, b);
  }
  // Close span `id`; kind/site/txn repeat the begin's so the event reads
  // on its own in a tail.
  void end(SpanId id, TraceKind kind, SiteId site, TxnId txn = 0) {
    push(TracePhase::kEnd, id, 0, kind, site, txn, 0, 0);
  }

  SpanId current() const { return current_; }

  // Partition the id space for per-shard rings: ids become
  // offset + 1 + k * stride, so shard-local allocation stays globally
  // unique without synchronization. Call before the first begin().
  void set_id_stride(SpanId stride, SpanId offset) {
    next_span_ = offset + 1;
    stride_ = stride;
  }

  // Register an observer; not owned, must outlive the Tracer's producers.
  void add_sink(TraceSink* s) { sinks_.push_back(s); }

  // Null-safe helpers so producers don't litter `if (tracer_)` everywhere.
  static void emit(Tracer* t, TraceKind kind, SiteId site, TxnId txn = 0,
                   int64_t a = 0, int64_t b = 0) {
    if (t != nullptr) t->record(kind, site, txn, a, b);
  }
  static void emit_under(Tracer* t, SpanId parent, TraceKind kind,
                         SiteId site, TxnId txn = 0, int64_t a = 0,
                         int64_t b = 0) {
    if (t != nullptr) t->record_under(parent, kind, site, txn, a, b);
  }
  static SpanId open(Tracer* t, TraceKind kind, SiteId site, TxnId txn = 0,
                     int64_t a = 0, int64_t b = 0) {
    return t != nullptr ? t->begin(kind, site, txn, a, b) : 0;
  }
  static void close(Tracer* t, SpanId id, TraceKind kind, SiteId site,
                    TxnId txn = 0) {
    if (t != nullptr && id != 0) t->end(id, kind, site, txn);
  }

  size_t capacity() const { return ring_.size(); }
  // Events currently held (<= capacity).
  size_t size() const { return next_ < ring_.size() ? next_ : ring_.size(); }
  // Events recorded in total, including overwritten ones.
  uint64_t recorded() const { return next_; }
  uint64_t dropped() const {
    return next_ > ring_.size() ? next_ - ring_.size() : 0;
  }
  // Of recorded(): the events delivered to sinks (the trace stream), and
  // the span begin/end events.
  uint64_t delivered() const { return delivered_; }
  uint64_t span_events() const { return span_events_; }

  // Visit retained events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const size_t n = size();
    const size_t first = next_ > ring_.size() ? next_ % ring_.size() : 0;
    for (size_t i = 0; i < n; ++i) fn(ring_[(first + i) % ring_.size()]);
  }
  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> snapshot() const;

  // Forget the retained events and counters; span ids stay unique.
  void clear() { next_ = delivered_ = span_events_ = 0; }

  // Chrome trace_event JSON (the "JSON Array Format" with a traceEvents
  // wrapper) of the retained events of `tracers`, ring by ring, loadable
  // in Perfetto / chrome://tracing. Begin/end pairs become "X" complete
  // events named after the begin's kind (pid = site, tid = root span of
  // the causal tree within that ring); instants become "i" events. Output
  // is deterministic for a fixed seed.
  static std::string to_chrome_json(const std::vector<const Tracer*>& tracers);

 private:
  friend struct SpanScope;
  // Append this ring's events to a to_chrome_json body.
  void append_chrome(std::string& out, bool& first) const;

  void push(TracePhase phase, SpanId span, SpanId parent, TraceKind kind,
            SiteId site, TxnId txn, int64_t a, int64_t b) {
    TraceEvent& e = ring_[next_ % ring_.size()];
    e = {sched_.now(), span, parent, txn, a, b, site, kind, phase};
    ++next_;
    if (phase != TracePhase::kInstant) ++span_events_;
    if (phase == TracePhase::kEnd || kind >= kFirstLocalKind) return;
    ++delivered_;
    for (TraceSink* s : sinks_) s->on_trace(e);
  }

  Scheduler& sched_;
  std::vector<TraceEvent> ring_;
  std::vector<TraceSink*> sinks_;
  uint64_t next_ = 0; // total events ever recorded; write cursor mod size
  uint64_t delivered_ = 0;
  uint64_t span_events_ = 0;
  SpanId next_span_ = 1; // deterministic id counter
  SpanId stride_ = 1;    // id step (shard count when sharded)
  SpanId current_ = 0;   // ambient span (single-threaded shard)
};

// RAII "run under this span". Null-safe: a null tracer makes it a no-op,
// so call sites never branch on whether tracing is enabled.
struct SpanScope {
  SpanScope(Tracer* t, SpanId span) : t_(t) {
    if (t_) {
      prev_ = t_->current_;
      t_->current_ = span;
    }
  }
  ~SpanScope() {
    if (t_) t_->current_ = prev_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  SpanId prev_ = 0;
};

} // namespace ddbs
