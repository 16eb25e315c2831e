// Wall-clock spans recorded by the benchmark around its calls into the
// library (construct, bootstrap, run_until slices, crash/recover, verifier
// checkpoint/prune, settle, oracles). Kept in memory and written out once
// the run ends, as Chrome trace-event JSON (load in Perfetto or
// chrome://tracing). A null SpanRecorder* means an untraced run: every
// helper is then a no-op, so the untraced path pays one branch per call.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Shortest round-trip text for a double; non-finite values become 0 so the
// output stays valid JSON.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int id = 0;
    int parent = 0; // 0 = root
    double start_us = 0;
    double end_us = 0;
  };
  // Work done in many small calls (the interposed verifier on_commit) is
  // aggregated rather than recorded one span per call.
  struct Aggregate {
    std::string name;
    int parent = 0;
    uint64_t calls = 0;
    double total_us = 0;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  int begin(std::string name) {
    const int id = static_cast<int>(spans_.size()) + 1;
    spans_.push_back(Span{std::move(name), id, top(), now_us(), 0});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<size_t>(id - 1)].end_us = now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  // A span whose interval was measured by the caller (e.g. a run_until
  // slice timed between two Runner callbacks), under the open span.
  int record(std::string name, double start_us, double end_us) {
    const int id = static_cast<int>(spans_.size()) + 1;
    spans_.push_back(Span{std::move(name), id, top(), start_us, end_us});
    return id;
  }
  // `calls` calls totalling `total_us`, made inside span `parent`.
  void aggregate(std::string name, int parent, uint64_t calls,
                 double total_us) {
    aggs_.push_back(Aggregate{std::move(name), parent, calls, total_us});
  }

  // Per span name: calls, total and self time (total minus the part its
  // direct children cover), in ms. Aggregates count as children of the
  // span they were recorded under.
  struct Row {
    uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> table() const {
    std::vector<double> child_us(spans_.size() + 1, 0);
    for (const Span& s : spans_) child_us[s.parent] += s.end_us - s.start_us;
    for (const Aggregate& a : aggs_) child_us[a.parent] += a.total_us;
    std::map<std::string, Row> rows;
    for (const Span& s : spans_) {
      Row& r = rows[s.name];
      const double dur = s.end_us - s.start_us;
      ++r.calls;
      r.total_ms += dur / 1000.0;
      r.self_ms += (dur - child_us[static_cast<size_t>(s.id)]) / 1000.0;
    }
    for (const Aggregate& a : aggs_) {
      Row& r = rows[a.name];
      r.calls += a.calls;
      r.total_ms += a.total_us / 1000.0;
      r.self_ms += a.total_us / 1000.0;
    }
    return rows;
  }

  // Chrome trace-event JSON: one "X" event per span (args carry id and
  // parent), aggregates as "X" events of their summed duration placed at
  // the end of their parent span.
  std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string& name, double ts, double dur, int id,
                    int parent, uint64_t calls) {
      if (!first) out += ",";
      first = false;
      out += "\n{\"name\":\"" + name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
      out += ",\"ts\":" + json_number(ts) + ",\"dur\":" + json_number(dur);
      out += ",\"args\":{\"id\":" + std::to_string(id) +
             ",\"parent\":" + std::to_string(parent) +
             ",\"calls\":" + std::to_string(calls) + "}}";
    };
    for (const Span& s : spans_)
      emit(s.name, s.start_us, s.end_us - s.start_us, s.id, s.parent, 1);
    for (const Aggregate& a : aggs_) {
      const double at =
          a.parent > 0 ? spans_[static_cast<size_t>(a.parent - 1)].end_us : 0;
      emit(a.name, at - a.total_us, a.total_us, 0, a.parent, a.calls);
    }
    out += "\n]}\n";
    return out;
  }

 private:
  int top() const { return stack_.empty() ? 0 : stack_.back(); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Aggregate> aggs_;
  std::vector<int> stack_;
};

// RAII span; null recorder => no-op.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec ? rec->begin(name) : 0) {}
  ~SpanScope() {
    if (rec_) rec_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

} // namespace perfbench
