#include "explore/repro.h"

#include <cmath>
#include <limits>
#include <type_traits>
#include <variant>

#include "common/json.h"
#include "common/report.h"

namespace ddbs {
namespace {

// Reads one number field into an integer or double member: it must be a
// JSON number that the member's type holds exactly.
template <typename T>
bool read_number(const json::JsonValue& v, T* out) {
  if (!v.is_number()) return false;
  const double d = v.num();
  if constexpr (std::is_floating_point_v<T>) {
    *out = d;
    return true;
  } else {
    using L = std::numeric_limits<T>;
    if (!(d >= static_cast<double>(L::lowest()) &&
          d < std::ldexp(1.0, L::digits))) {
      return false;
    }
    *out = static_cast<T>(d);
    return static_cast<double>(*out) == d;
  }
}

// Inverse of write_config (report.cpp), row by row over the Config field
// table. Keys absent from the document keep their Config defaults, so
// older artifacts stay replayable as knobs are added; a present key of the
// wrong type or value is an error.
bool parse_config(const json::JsonValue& v, Config* out, std::string* error) {
  if (!v.is_object()) {
    if (error != nullptr) *error = "config is not an object";
    return false;
  }
  Config c = *out;
  // Absent means the artifact predates the footprint-proportional session
  // protocol: it was recorded under dense full-vector NS reads, and only
  // that protocol replays it byte-identically (the sparse one sends fewer
  // events, shifting every downstream timestamp).
  c.footprint_ns = false;
  for (const ConfigField& f : config_fields()) {
    const json::JsonValue* field = v.get(f.key);
    if (field == nullptr) continue;
    const bool ok = std::visit(
        [&](auto m) {
          using T = std::decay_t<decltype(c.*m)>;
          if constexpr (ConfigEnum<T>) {
            return field->is_string() && parse_enum(field->str(), &(c.*m));
          } else if constexpr (std::is_same_v<T, bool>) {
            if (!field->is_bool()) return false;
            c.*m = field->boolean();
            return true;
          } else {
            return read_number(*field, &(c.*m));
          }
        },
        f.member);
    if (!ok) {
      if (error != nullptr) {
        *error = std::string("bad value for config.") + f.key;
      }
      return false;
    }
  }
  *out = c;
  return true;
}

} // namespace

std::string to_json(const ReproArtifact& a) {
  JsonWriter w;
  w.begin_object();
  w.kv("tool", "ddbs_explore");
  w.kv("schema", 1);
  w.kv("kind", "repro");
  w.kv("seed", a.seed);
  w.key("config");
  write_config(w, a.opts.cfg);
  w.key("options");
  write_explore_options(w, a.opts);
  w.key("schedule");
  write_schedule(w, a.schedule);
  w.key("violation");
  w.begin_object();
  w.kv("oracle", a.violation.oracle);
  w.kv("at", static_cast<int64_t>(a.violation.at));
  w.kv("detail", a.violation.detail);
  w.end_object();
  w.kv("report", a.report);
  w.end_object();
  return w.str();
}

bool parse_repro(std::string_view text, ReproArtifact* out,
                 std::string* error) {
  bool ok = false;
  const json::JsonValue doc = json::parse(text, &ok);
  if (!ok || !doc.is_object()) {
    if (error != nullptr) *error = "not a JSON object";
    return false;
  }
  if (doc.str_or("kind", "") != "repro") {
    if (error != nullptr) *error = "kind != \"repro\"";
    return false;
  }
  ReproArtifact a;
  a.seed = static_cast<uint64_t>(doc.num_or("seed", 0));
  const json::JsonValue* cfg = doc.get("config");
  if (cfg == nullptr || !parse_config(*cfg, &a.opts.cfg, error)) {
    if (error != nullptr && error->empty()) *error = "missing config";
    return false;
  }
  if (const json::JsonValue* opts = doc.get("options"); opts != nullptr) {
    if (!parse_explore_options(*opts, &a.opts)) {
      if (error != nullptr) *error = "malformed options";
      return false;
    }
  }
  const json::JsonValue* sched = doc.get("schedule");
  if (sched == nullptr || !parse_schedule(*sched, &a.schedule)) {
    if (error != nullptr) *error = "missing or malformed schedule";
    return false;
  }
  if (const json::JsonValue* viol = doc.get("violation"); viol != nullptr) {
    a.violation.oracle = viol->str_or("oracle", "");
    a.violation.at = static_cast<SimTime>(viol->num_or("at", 0));
    a.violation.detail = viol->str_or("detail", "");
  }
  a.report = doc.str_or("report", "");
  *out = std::move(a);
  return true;
}

ReplayResult replay(const ReproArtifact& a) {
  ReplayResult r;
  r.run = run_schedule(a.opts, a.schedule, a.seed);
  r.violated = r.run.violated;
  r.byte_identical = !a.report.empty() && r.run.report == a.report;
  return r;
}

} // namespace ddbs
