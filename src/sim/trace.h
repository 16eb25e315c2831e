// Structured trace events for the simulated DDBS.
//
// The Tracer is a fixed-capacity ring buffer of typed events stamped with
// the sim clock. Recording is cheap (one struct copy, no allocation after
// construction) so it can sit on transaction hot paths; when the ring
// wraps, the oldest events are overwritten and `dropped()` counts them.
// Producers hold a `Tracer*` that may be null (tracing disabled) — use
// TRACE-style null-checked calls via `Tracer::emit`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/scheduler.h"

namespace ddbs {

enum class TraceKind : uint8_t {
  kTxnBegin = 0,
  kTxnCommit,
  kTxnAbort,        // a = abort Code
  kSessionReject,   // a = rejected-at site's expected session, b = carried
  kControlUpStart,  // type-1 control transaction round; a = attempt #
  kControlUpCommit,
  kControlDownStart, // type-2 control transaction; a = suspect site
  kControlDownCommit,
  kCopierStart,  // a = item id
  kCopierCommit, // a = item id
  kDetectorVerify,  // a = suspect site
  kDetectorDeclare, // a = declared-down site
  kRecoveryStarted,
  kNominallyUp,   // a = session granted, b = copies marked unreadable
  kFullyCurrent,  // last unreadable copy refreshed (no payload)
  kCopierStarved, // a = item id, b = escalated delay (us)
  kSiteCrash,     // site failed (fail-stop)
  kSiteRecover,   // site rebooted (not yet operational)
  kReplayDone,    // storage-engine reboot replay finished;
                  // a = redo records replayed, b = duration (us)
};

const char* to_string(TraceKind k);

struct TraceEvent {
  SimTime at = 0;
  TraceKind kind = TraceKind::kTxnBegin;
  SiteId site = kInvalidSite; // site where the event happened
  TxnId txn = 0;         // 0 when not transaction-scoped
  int64_t a = 0;         // kind-specific (see TraceKind comments)
  int64_t b = 0;
};

// Online observer of trace events. Sinks see every record() call as it
// happens, before the ring can wrap -- so folded products (recovery
// episodes, time series) never lose early events to overwrites even when
// the ring does.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_trace(const TraceEvent& e) = 0;
};

class Tracer {
 public:
  explicit Tracer(Scheduler& sched, size_t capacity = 1 << 14)
      : sched_(sched), ring_(capacity ? capacity : 1) {}

  void record(TraceKind kind, SiteId site, TxnId txn = 0, int64_t a = 0,
              int64_t b = 0) {
    TraceEvent& e = ring_[next_ % ring_.size()];
    e.at = sched_.now();
    e.kind = kind;
    e.site = site;
    e.txn = txn;
    e.a = a;
    e.b = b;
    ++next_;
    for (TraceSink* s : sinks_) s->on_trace(e);
  }

  // Register an observer; not owned, must outlive the Tracer's producers.
  void add_sink(TraceSink* s) { sinks_.push_back(s); }

  // Null-safe helper so producers don't litter `if (tracer_)` everywhere.
  static void emit(Tracer* t, TraceKind kind, SiteId site, TxnId txn = 0,
                   int64_t a = 0, int64_t b = 0) {
    if (t != nullptr) t->record(kind, site, txn, a, b);
  }

  size_t capacity() const { return ring_.size(); }
  // Events currently held (<= capacity).
  size_t size() const { return next_ < ring_.size() ? next_ : ring_.size(); }
  // Events recorded in total, including overwritten ones.
  uint64_t recorded() const { return next_; }
  uint64_t dropped() const {
    return next_ > ring_.size() ? next_ - ring_.size() : 0;
  }

  // Visit retained events oldest-first.
  void for_each(const std::function<void(const TraceEvent&)>& fn) const;
  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> snapshot() const;

  void clear() { next_ = 0; }

  // Serialize the retained events of `tracers` as one JSON array (one
  // object per event), tracer by tracer.
  static std::string to_json(const std::vector<const Tracer*>& tracers);

 private:
  Scheduler& sched_;
  std::vector<TraceEvent> ring_;
  std::vector<TraceSink*> sinks_;
  uint64_t next_ = 0; // total events ever recorded; write cursor mod size
};

} // namespace ddbs
