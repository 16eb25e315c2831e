#include "common/report.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <variant>

namespace ddbs {

// ---------------------------------------------------------------- JsonWriter

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma_and_indent(bool is_value) {
  if (after_key_) {
    // Value completing a "key": pair — no comma, no newline.
    assert(is_value);
    after_key_ = false;
    return;
  }
  (void)is_value;
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ",";
    needs_comma_.back() = true;
    if (!compact_) {
      out_ += "\n";
      out_.append(2 * needs_comma_.size(), ' ');
    }
  }
}

void JsonWriter::begin_object() {
  comma_and_indent(true);
  out_ += "{";
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  assert(!needs_comma_.empty());
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  if (had_members && !compact_) {
    out_ += "\n";
    out_.append(2 * needs_comma_.size(), ' ');
  }
  out_ += "}";
}

void JsonWriter::begin_array() {
  comma_and_indent(true);
  out_ += "[";
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  assert(!needs_comma_.empty());
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  if (had_members && !compact_) {
    out_ += "\n";
    out_.append(2 * needs_comma_.size(), ' ');
  }
  out_ += "]";
}

void JsonWriter::key(std::string_view k) {
  comma_and_indent(false);
  out_ += "\"";
  out_ += escape(k);
  out_ += "\": ";
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  comma_and_indent(true);
  out_ += "\"";
  out_ += escape(s);
  out_ += "\"";
}

void JsonWriter::value(int64_t v) {
  comma_and_indent(true);
  out_ += std::to_string(v);
}

void JsonWriter::value(uint64_t v) {
  comma_and_indent(true);
  out_ += std::to_string(v);
}

void JsonWriter::value(double v) {
  comma_and_indent(true);
  std::ostringstream os;
  os << v;
  out_ += os.str();
}

void JsonWriter::value_null() {
  comma_and_indent(true);
  out_ += "null";
}

void JsonWriter::value(bool b) {
  comma_and_indent(true);
  out_ += b ? "true" : "false";
}

// ------------------------------------------------------------------- helpers

void write_config(JsonWriter& w, const Config& cfg) {
  w.begin_object();
  for (const ConfigField& f : config_fields()) {
    std::visit(
        [&](auto m) {
          if constexpr (ConfigEnum<std::decay_t<decltype(cfg.*m)>>) {
            w.kv(f.key, to_string(cfg.*m));
          } else {
            w.kv(f.key, cfg.*m);
          }
        },
        f.member);
  }
  w.end_object();
}

void write_histogram(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", static_cast<uint64_t>(h.count()));
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("p50", h.percentile(50));
  w.kv("p90", h.percentile(90));
  w.kv("p99", h.percentile(99));
  w.kv("p999", h.percentile(99.9));
  w.end_object();
}

void write_episode(JsonWriter& w, const RecoveryEpisode& e) {
  w.begin_object();
  w.kv("site", static_cast<int64_t>(e.site));
  w.key("crash_at");
  w.time_or_null(e.crash_at);
  w.key("declared_down_at");
  w.time_or_null(e.declared_down_at);
  w.key("type2_commit_at");
  w.time_or_null(e.type2_commit_at);
  w.key("reboot_at");
  w.time_or_null(e.reboot_at);
  w.key("replay_done_at");
  w.time_or_null(e.replay_done_at);
  w.key("nominally_up_at");
  w.time_or_null(e.nominally_up_at);
  w.key("fully_current_at");
  w.time_or_null(e.fully_current_at);
  // Phase durations, null while the bounding milestones are missing.
  auto dur = [&](std::string_view k, SimTime from, SimTime to) {
    w.key(k);
    if (from == kNoTime || to == kNoTime) {
      w.value_null();
    } else {
      w.value(static_cast<int64_t>(to - from));
    }
  };
  dur("declared_to_type2_us", e.declared_down_at, e.type2_commit_at);
  dur("reboot_replay_us", e.reboot_at, e.replay_done_at);
  dur("reboot_to_nominally_up_us", e.reboot_at, e.nominally_up_at);
  dur("nominally_up_to_current_us", e.nominally_up_at, e.fully_current_at);
  w.kv("replay_records", e.replay_records);
  w.kv("type1_attempts", e.type1_attempts);
  w.kv("type2_rounds", e.type2_rounds);
  w.kv("session", e.session);
  w.kv("marked_unreadable", e.marked_unreadable);
  w.kv("copier_commits", e.copier_commits);
  w.kv("complete", e.complete);
  w.key("backlog");
  w.begin_array();
  for (const BacklogPoint& p : e.backlog) {
    w.begin_object();
    w.kv("at", static_cast<int64_t>(p.at));
    w.kv("remaining", p.remaining);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_time_series(JsonWriter& w, const TimeSeriesData& s) {
  w.begin_object();
  w.kv("bucket_us", static_cast<int64_t>(s.bucket_width));
  auto arr = [&](std::string_view k, const std::vector<int64_t>& v) {
    w.key(k);
    w.begin_array();
    for (int64_t x : v) w.value(x);
    w.end_array();
  };
  arr("commits", s.commits);
  arr("aborts", s.aborts);
  arr("session_rejects", s.session_rejects);
  arr("sites_up", s.sites_up);
  w.end_object();
}

// ----------------------------------------------------------------- RunReport

RunReport::Run& RunReport::add_run(std::string label, const Config& cfg) {
  Run& run = runs_.emplace_back();
  run.label = std::move(label);
  run.cfg = cfg;
  return run;
}

void RunReport::capture_counters(Run& run, const Metrics& m) {
  for (size_t i = 0; i < m.counter_count(); ++i) {
    if (m.counter_value(i) != 0) {
      run.counters.emplace_back(std::string(m.counter_name(i)),
                                m.counter_value(i));
    }
  }
}

void RunReport::capture_histograms(Run& run, const Metrics& m) {
  for (size_t i = 0; i < m.hist_count(); ++i) {
    if (m.hist_value(i).count() > 0) {
      run.histograms.emplace_back(std::string(m.hist_name(i)),
                                  m.hist_value(i));
    }
  }
}

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("bench", bench_);
  w.kv("schema_version", 5);
  w.key("runs");
  w.begin_array();
  for (const Run& run : runs_) {
    w.begin_object();
    w.kv("label", run.label);
    w.key("config");
    write_config(w, run.cfg);
    w.key("scalars");
    w.begin_object();
    for (const auto& [k, v] : run.scalars) w.kv(k, v);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [k, v] : run.counters) w.kv(k, v);
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [k, h] : run.histograms) {
      w.key(k);
      write_histogram(w, h);
    }
    w.end_object();
    w.key("episodes");
    w.begin_array();
    for (const RecoveryEpisode& e : run.episodes) write_episode(w, e);
    w.end_array();
    w.key("time_series");
    write_time_series(w, run.series);
    w.key("trace");
    w.begin_object();
    w.kv("recorded", run.trace_recorded);
    w.kv("dropped", run.trace_dropped);
    w.kv("spans_recorded", run.span_recorded);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

bool RunReport::write(const std::string& path) const {
  std::string target = path;
  if (target.empty()) {
    std::string dir = ".";
    if (const char* env = std::getenv("DDBS_REPORT_DIR")) dir = env;
    target = dir + "/BENCH_" + bench_ + ".json";
  }
  std::ofstream out(target);
  if (!out) {
    std::fprintf(stderr, "report: cannot write %s\n", target.c_str());
    return false;
  }
  out << to_json();
  std::fprintf(stderr, "report: wrote %s (%zu runs)\n", target.c_str(),
               runs_.size());
  return static_cast<bool>(out);
}

} // namespace ddbs
