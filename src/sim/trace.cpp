#include "sim/trace.h"

#include <unordered_map>

namespace ddbs {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kTxnBegin: return "txn_begin";
    case TraceKind::kTxnCommit: return "txn_commit";
    case TraceKind::kTxnAbort: return "txn_abort";
    case TraceKind::kSessionReject: return "session_reject";
    case TraceKind::kControlUpStart: return "control_up_start";
    case TraceKind::kControlUpCommit: return "control_up_commit";
    case TraceKind::kControlDownStart: return "control_down_start";
    case TraceKind::kControlDownCommit: return "control_down_commit";
    case TraceKind::kCopierStart: return "copier_start";
    case TraceKind::kCopierCommit: return "copier_commit";
    case TraceKind::kDetectorVerify: return "detector_verify";
    case TraceKind::kDetectorDeclare: return "detector_declare";
    case TraceKind::kRecoveryStarted: return "recovery_started";
    case TraceKind::kNominallyUp: return "nominally_up";
    case TraceKind::kFullyCurrent: return "fully_current";
    case TraceKind::kCopierStarved: return "copier_starved";
    case TraceKind::kSiteCrash: return "site_crash";
    case TraceKind::kSiteRecover: return "site_recover";
    case TraceKind::kReplayDone: return "replay_done";
    case TraceKind::kLockWait: return "lock_wait";
  }
  return "?";
}

const char* to_string(TracePhase p) {
  switch (p) {
    case TracePhase::kInstant: return "instant";
    case TracePhase::kBegin: return "begin";
    case TracePhase::kEnd: return "end";
  }
  return "?";
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

namespace {

struct OpenSpan {
  SimTime end = kNoTime; // kNoTime == still open at export
  SpanId parent = 0;
};

void append_i64(std::string& s, int64_t v) { s += std::to_string(v); }

} // namespace

std::string Tracer::to_chrome_json(const std::vector<const Tracer*>& tracers) {
  size_t events = 0;
  for (const Tracer* t : tracers) events += t->size();
  std::string out;
  out.reserve(256 + events * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Tracer* t : tracers) t->append_chrome(out, first);
  out += "\n]}\n";
  return out;
}

void Tracer::append_chrome(std::string& out, bool& first) const {
  // First pass: index begins and ends so begin/end pairs can be stitched
  // into "X" complete events. A begin whose end fell off the ring (or
  // never happened) is closed at the current sim time; an end whose begin
  // was overwritten is dropped -- without the begin there is nothing to
  // anchor the slice to.
  std::unordered_map<SpanId, OpenSpan> spans;
  for_each([&](const TraceEvent& e) {
    if (e.phase == TracePhase::kBegin) {
      spans[e.span] = {kNoTime, e.parent};
    } else if (e.phase == TracePhase::kEnd) {
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

  // Emit in ring order (deterministic for a fixed seed): slices at their
  // begin event, instants in place.
  for_each([&](const TraceEvent& e) {
    if (e.phase == TracePhase::kEnd) return;
    const bool slice = e.phase == TracePhase::kBegin;
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += to_string(e.kind);
    out += slice ? "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":"
                 : "\",\"cat\":\"trace\",\"ph\":\"i\",\"ts\":";
    append_i64(out, e.at);
    out += ",\"pid\":";
    append_i64(out, e.site);
    out += ",\"tid\":";
    const SpanId lane = slice ? e.span : e.parent;
    append_i64(out, static_cast<int64_t>(lane ? root_of(lane) : 0));
    if (slice) {
      const SimTime end = spans[e.span].end;
      const SimTime until = end == kNoTime ? sched_.now() : end;
      out += ",\"dur\":";
      append_i64(out, until > e.at ? until - e.at : 0);
      out += ",\"args\":{\"span\":";
      append_i64(out, static_cast<int64_t>(e.span));
      out += ",";
    } else {
      out += ",\"s\":\"t\",\"args\":{";
    }
    out += "\"parent\":";
    append_i64(out, static_cast<int64_t>(e.parent));
    out += ",\"txn\":";
    append_i64(out, static_cast<int64_t>(e.txn));
    out += ",\"a\":";
    append_i64(out, e.a);
    out += ",\"b\":";
    append_i64(out, e.b);
    out += "}}";
  });
}

} // namespace ddbs
