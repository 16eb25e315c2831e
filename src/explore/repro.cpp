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

void write_explore_options(JsonWriter& w, const ExploreOptions& opts) {
  w.begin_object();
  w.kv("clients_per_site", opts.clients_per_site);
  w.kv("think_time", static_cast<int64_t>(opts.think_time));
  w.kv("horizon", static_cast<int64_t>(opts.horizon));
  w.kv("checkpoint_every", static_cast<int64_t>(opts.checkpoint_every));
  w.kv("settle_budget", static_cast<int64_t>(opts.settle_budget));
  w.key("workload");
  w.begin_object();
  w.kv("ops_per_txn", opts.workload.ops_per_txn);
  w.kv("read_fraction", opts.workload.read_fraction);
  w.kv("zipf_theta", opts.workload.zipf_theta);
  w.kv("n_items", opts.workload.n_items);
  w.end_object();
  w.end_object();
}

// Inverse of write_explore_options, with parse_config's rule: absent keys
// keep their defaults, a present key must be a number its member holds
// exactly and no smaller than the row's floor. The horizon and checkpoint
// cadence must be positive (a zero cadence never reaches the horizon).
// The "verify" key older artifacts carry is ignored.
bool parse_explore_options(const json::JsonValue& v, ExploreOptions* out,
                           std::string* error) {
  std::string bad;
  ExploreOptions o = *out; // keep caller-supplied Config
  auto read = [&bad](const json::JsonValue& obj, const char* prefix,
                     const char* key, auto* member, double floor) {
    const json::JsonValue* f = obj.get(key);
    if (f == nullptr || !bad.empty()) return;
    if (!read_number(*f, member) || static_cast<double>(*member) < floor) {
      bad = std::string(prefix) + key;
    }
  };
  constexpr double kAny = -std::numeric_limits<double>::infinity();
  if (!v.is_object()) bad = "options";
  read(v, "options.", "clients_per_site", &o.clients_per_site, 0);
  read(v, "options.", "think_time", &o.think_time, 0);
  read(v, "options.", "horizon", &o.horizon, 1);
  read(v, "options.", "checkpoint_every", &o.checkpoint_every, 1);
  read(v, "options.", "settle_budget", &o.settle_budget, 0);
  if (const json::JsonValue* wl = v.get("workload"); wl != nullptr) {
    if (!wl->is_object() && bad.empty()) bad = "options.workload";
    const char* pre = "options.workload.";
    read(*wl, pre, "ops_per_txn", &o.workload.ops_per_txn, 1);
    read(*wl, pre, "read_fraction", &o.workload.read_fraction, kAny);
    read(*wl, pre, "zipf_theta", &o.workload.zipf_theta, kAny);
    read(*wl, pre, "n_items", &o.workload.n_items, 0);
  }
  if (!bad.empty()) {
    if (error != nullptr) *error = "bad value for " + bad;
    return false;
  }
  *out = o;
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
  if (const json::JsonValue* seed = doc.get("seed");
      seed != nullptr && !read_number(*seed, &a.seed)) {
    if (error != nullptr) *error = "bad value for seed";
    return false;
  }
  const json::JsonValue* cfg = doc.get("config");
  if (cfg == nullptr || !parse_config(*cfg, &a.opts.cfg, error)) {
    if (error != nullptr && error->empty()) *error = "missing config";
    return false;
  }
  if (const json::JsonValue* opts = doc.get("options"); opts != nullptr) {
    if (!parse_explore_options(*opts, &a.opts, error)) return false;
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
