// Machine-readable run reports (BENCH_*.json and --report-out).
//
// A RunReport collects, per measured run: a label, the config echo, scalar
// results, the full metrics dump, and one record per recovery episode.
// The writer is a small hand-rolled streaming JSON emitter — the repo has
// no JSON dependency and the schema is flat enough not to need one. The
// schema is documented in EXPERIMENTS.md; tests/test_trace_report.cpp
// round-trips it with a minimal parser.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "common/metrics.h"
#include "common/types.h"

namespace ddbs {

// Minimal streaming JSON writer: objects/arrays are explicit begin/end
// calls, commas and indentation are handled internally, strings are
// escaped. Misuse (value outside a container) is a programming error.
class JsonWriter {
 public:
  JsonWriter() = default;
  // compact = true emits no newlines or indentation -- one line total,
  // for JSONL streams (telemetry) where record == line.
  explicit JsonWriter(bool compact) : compact_(compact) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  // Introduce the next member of the enclosing object.
  void key(std::string_view k);
  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(int64_t v);
  void value(uint64_t v);
  void value(int v) { value(static_cast<int64_t>(v)); }
  void value(double v);
  void value(bool b);
  void value_null();
  // A sim-time milestone: kNoTime (not reached) serializes as null.
  void time_or_null(SimTime t) {
    if (t == kNoTime) {
      value_null();
    } else {
      value(static_cast<int64_t>(t));
    }
  }

  // Convenience: key + value in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  std::string str() const { return out_; }
  static std::string escape(std::string_view s);

 private:
  void comma_and_indent(bool is_value);
  std::string out_;
  std::vector<bool> needs_comma_; // per open container
  bool after_key_ = false;
  bool compact_ = false;
};

// One point of a recovering site's missed-copy backlog curve: how many
// copies were still unreadable at `at`.
struct BacklogPoint {
  SimTime at = 0;
  int64_t remaining = 0;
};

// One recovery episode of one site, folded from the trace stream by the
// EpisodeTracker: crash -> declared down -> reboot -> type-1 attempts ->
// nominally up -> copier drain -> fully current. kNoTime marks a phase
// not observed (e.g. a false declaration has no crash, an episode cut
// short by a second crash never reaches fully_current_at).
struct RecoveryEpisode {
  SiteId site = kInvalidSite;
  SimTime crash_at = kNoTime;
  SimTime declared_down_at = kNoTime; // first type-2 declaration observed
  SimTime type2_commit_at = kNoTime;  // type-2 excluding this site committed
  SimTime reboot_at = kNoTime;        // site powered on
  SimTime replay_done_at = kNoTime;   // storage reboot replay finished
                                      // (kNoTime: instantaneous engine)
  SimTime nominally_up_at = kNoTime;  // type-1 control txn committed
  SimTime fully_current_at = kNoTime; // last unreadable copy refreshed
  int64_t replay_records = 0;         // redo records replayed at reboot
  int64_t type1_attempts = 0;
  int64_t type2_rounds = 0;
  int64_t session = 0;            // session number granted by the type-1
  int64_t marked_unreadable = 0;  // backlog at nominally-up
  int64_t copier_commits = 0;
  bool complete = false; // reached fully-current within the run
  std::vector<BacklogPoint> backlog;
};

// Availability-over-time curves: per-bucket user commit/abort counts,
// session rejects, and the number of operational sites at each bucket's
// end. All vectors share one length; bucket b covers
// [b*bucket_width, (b+1)*bucket_width).
struct TimeSeriesData {
  SimTime bucket_width = 0;
  std::vector<int64_t> commits;
  std::vector<int64_t> aborts;
  std::vector<int64_t> session_rejects;
  std::vector<int64_t> sites_up;
};

// A report covers one bench binary: shared metadata plus one entry per
// measured run (a parameter-sweep cell).
class RunReport {
 public:
  explicit RunReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  struct Run {
    std::string label;
    Config cfg;
    std::vector<std::pair<std::string, double>> scalars;
    std::vector<std::pair<std::string, int64_t>> counters;
    // Latency distributions (schema v3). Serialized as count/min/max and
    // bucket-derived percentiles only -- never mean/sum, whose float
    // accumulation order differs between the single-instance DES and the
    // shard-merged parallel backend.
    std::vector<std::pair<std::string, Histogram>> histograms;
    std::vector<RecoveryEpisode> episodes;
    TimeSeriesData series;
    // Ring health, so a wrapped ring is visible in every report: events
    // delivered to trace sinks, ring overwrites, and span begin/end events.
    int64_t trace_recorded = 0;
    int64_t trace_dropped = 0;
    int64_t span_recorded = 0;
  };

  // Append a run. Scalars are the bench's headline numbers (availability,
  // latency percentiles, ...); add them via the returned reference.
  Run& add_run(std::string label, const Config& cfg);

  // Capture every non-zero counter from `m` into the run.
  static void capture_counters(Run& run, const Metrics& m);
  // Capture every non-empty histogram from `m` into the run.
  static void capture_histograms(Run& run, const Metrics& m);

  std::string to_json() const;

  // Write to `path`, or to "BENCH_<name>.json" under $DDBS_REPORT_DIR
  // (default: current directory) when path is empty. Returns false and
  // leaves a note on stderr if the file cannot be written.
  bool write(const std::string& path = "") const;

  const std::string& name() const { return bench_; }
  size_t run_count() const { return runs_.size(); }

 private:
  std::string bench_;
  std::vector<Run> runs_;
};

// Serialize one Config as a JSON object (shared by report + sim tool).
void write_config(JsonWriter& w, const Config& cfg);
// Serialize one histogram's deterministic view: count, exact min/max and
// bucket-derived percentiles (no mean/sum -- see Run::histograms).
void write_histogram(JsonWriter& w, const Histogram& h);
void write_episode(JsonWriter& w, const RecoveryEpisode& e);
void write_time_series(JsonWriter& w, const TimeSeriesData& s);

} // namespace ddbs
