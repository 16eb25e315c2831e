#include "sim/span.h"

#include <unordered_map>

#include "sim/scheduler.h"
#include "sim/trace.h"

namespace ddbs {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kUserTxn: return "user_txn";
    case SpanKind::kCopier: return "copier";
    case SpanKind::kControlUp: return "control_up";
    case SpanKind::kControlDown: return "control_down";
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kDetectorVerify: return "detector_verify";
    case SpanKind::kLockWait: return "lock_wait";
    case SpanKind::kStage: return "stage";
    case SpanKind::kApply: return "apply";
    case SpanKind::kSessionReject: return "session_reject";
  }
  return "?";
}

SpanLog::SpanLog(Scheduler& sched, size_t capacity)
    : sched_(sched), ring_(capacity ? capacity : 1) {}

SpanId SpanLog::begin(SpanKind kind, SiteId site, TxnId txn, int64_t arg) {
  return begin_under(current_, kind, site, txn, arg);
}

SpanId SpanLog::begin_under(SpanId parent, SpanKind kind, SiteId site,
                            TxnId txn, int64_t arg) {
  const SpanId id = next_span_;
  next_span_ += stride_;
  record({sched_.now(), id, parent, kind, 0, site, txn, arg});
  return id;
}

void SpanLog::end(SpanId id) {
  record({sched_.now(), id, 0, SpanKind::kUserTxn, 1, kInvalidSite, 0, 0});
}

void SpanLog::instant(SpanKind kind, SiteId site, TxnId txn, int64_t arg) {
  instant_under(current_, kind, site, txn, arg);
}

void SpanLog::instant_under(SpanId parent, SpanKind kind, SiteId site,
                            TxnId txn, int64_t arg) {
  record({sched_.now(), 0, parent, kind, 2, site, txn, arg});
}

std::vector<SpanEvent> SpanLog::snapshot() const {
  std::vector<SpanEvent> out;
  out.reserve(size());
  for_each([&](const SpanEvent& e) { out.push_back(e); });
  return out;
}

void SpanLog::clear() {
  next_ = 0;
  next_span_ = 1;
  current_ = 0;
}

namespace {

struct OpenSpan {
  SimTime begin = 0;
  SimTime end = kNoTime; // kNoTime == still open at export
  SpanId parent = 0;
  SpanKind kind = SpanKind::kUserTxn;
  SiteId site = kInvalidSite;
  TxnId txn = 0;
  int64_t arg = 0;
};

void append_i64(std::string& s, int64_t v) { s += std::to_string(v); }

} // namespace

std::string SpanLog::to_chrome_json(const std::vector<const SpanLog*>& logs,
                                    const std::vector<const Tracer*>& tracers) {
  size_t events = 0;
  for (const SpanLog* log : logs) events += log->size();
  std::string out;
  out.reserve(256 + events * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < logs.size(); ++i) {
    logs[i]->append_chrome(out, first,
                           i < tracers.size() ? tracers[i] : nullptr);
  }
  out += "\n]}\n";
  return out;
}

void SpanLog::append_chrome(std::string& out, bool& first,
                            const Tracer* tracer) const {
  // First pass: index begins and ends so begin/end pairs can be stitched
  // into "X" complete events. A begin whose end fell off the ring (or
  // never happened) is closed at the current sim time; an end whose begin
  // was overwritten is dropped -- without the begin there is nothing to
  // anchor the slice to.
  std::unordered_map<SpanId, OpenSpan> spans;
  for_each([&](const SpanEvent& e) {
    if (e.phase == 0) {
      spans[e.span] = {e.at, kNoTime, e.parent, e.kind, e.site, e.txn, e.arg};
    } else if (e.phase == 1) {
      auto it = spans.find(e.span);
      if (it != spans.end()) it->second.end = e.at;
    }
  });

  // The tid lane is the root of the causal tree, so a coordinator and all
  // the per-site work it caused share one row in the viewer.
  auto root_of = [&](SpanId id) {
    SpanId cur = id;
    for (int depth = 0; depth < 64; ++depth) {
      auto it = spans.find(cur);
      if (it == spans.end() || it->second.parent == 0) return cur;
      cur = it->second.parent;
    }
    return cur;
  };

  auto event_head = [&](const char* name, const char* cat, const char* ph,
                        SimTime ts, SiteId site, SpanId tid) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += name;
    out += "\",\"cat\":\"";
    out += cat;
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"ts\":";
    append_i64(out, ts);
    out += ",\"pid\":";
    append_i64(out, site);
    out += ",\"tid\":";
    append_i64(out, static_cast<int64_t>(tid));
  };

  // Emit in ring order (deterministic for a fixed seed): slices at their
  // begin event, instants in place.
  for_each([&](const SpanEvent& e) {
    if (e.phase == 0) {
      auto it = spans.find(e.span);
      if (it == spans.end()) return;
      const OpenSpan& s = it->second;
      const SimTime end = s.end == kNoTime ? sched_.now() : s.end;
      event_head(to_string(s.kind), "span", "X", s.begin, s.site,
                 root_of(e.span));
      out += ",\"dur\":";
      append_i64(out, end > s.begin ? end - s.begin : 0);
      out += ",\"args\":{\"span\":";
      append_i64(out, static_cast<int64_t>(e.span));
      out += ",\"parent\":";
      append_i64(out, static_cast<int64_t>(s.parent));
      out += ",\"txn\":";
      append_i64(out, static_cast<int64_t>(s.txn));
      out += ",\"arg\":";
      append_i64(out, s.arg);
      out += "}}";
    } else if (e.phase == 2) {
      event_head(to_string(e.kind), "span", "i", e.at, e.site,
                 e.parent ? root_of(e.parent) : 0);
      out += ",\"s\":\"t\",\"args\":{\"parent\":";
      append_i64(out, static_cast<int64_t>(e.parent));
      out += ",\"txn\":";
      append_i64(out, static_cast<int64_t>(e.txn));
      out += ",\"arg\":";
      append_i64(out, e.arg);
      out += "}}";
    }
  });

  if (tracer) {
    tracer->for_each([&](const TraceEvent& e) {
      event_head(to_string(e.kind), "trace", "i", e.at, e.site, 0);
      out += ",\"s\":\"t\",\"args\":{\"txn\":";
      append_i64(out, static_cast<int64_t>(e.txn));
      out += ",\"a\":";
      append_i64(out, e.a);
      out += ",\"b\":";
      append_i64(out, e.b);
      out += "}}";
    });
  }
}

} // namespace ddbs
