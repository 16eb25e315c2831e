#include "sim/trace.h"

#include <sstream>

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
  }
  return "?";
}

void Tracer::for_each(const std::function<void(const TraceEvent&)>& fn) const {
  const size_t n = size();
  const size_t first = next_ > ring_.size() ? next_ % ring_.size() : 0;
  for (size_t i = 0; i < n; ++i) fn(ring_[(first + i) % ring_.size()]);
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

std::string Tracer::to_json(const std::vector<const Tracer*>& tracers) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Tracer* t : tracers) {
    t->for_each([&](const TraceEvent& e) {
      if (!first) os << ",";
      first = false;
      os << "\n  {\"at\":" << e.at << ",\"kind\":\"" << to_string(e.kind)
         << "\",\"site\":" << e.site;
      if (e.txn != 0) os << ",\"txn\":" << e.txn;
      if (e.a != 0) os << ",\"a\":" << e.a;
      if (e.b != 0) os << ",\"b\":" << e.b;
      os << "}";
    });
  }
  os << "\n]\n";
  return os.str();
}

} // namespace ddbs
