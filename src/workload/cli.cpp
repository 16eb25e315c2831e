#include "workload/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace ddbs {
namespace {

bool is_ms(std::string_view name) { return name.ends_with("-ms"); }

template <typename T>
bool parse_text(std::string_view s, bool ms, T* out) {
  if constexpr (ConfigEnum<T>) {
    return parse_enum(s, out);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s != "on" && s != "off") return false;
    *out = s == "on";
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = s;
    return true;
  } else {
    T v{};
    const char* end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || p != end) return false;
    if constexpr (std::is_integral_v<T>) {
      if (ms && __builtin_mul_overflow(v, T{1000}, &v)) return false;
    }
    *out = v;
    return true;
  }
}

template <typename T>
std::string show(const T& v, bool ms) {
  if constexpr (ConfigEnum<T>) {
    return cli_name(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "on" : "off";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_floating_point_v<T>) {
    std::ostringstream os;
    os << v;
    return os.str();
  } else {
    return std::to_string(ms ? v / 1000 : v);
  }
}

template <typename T>
std::string meta() {
  if constexpr (ConfigEnum<T>) {
    std::string m;
    for (const EnumName<T>& n : enum_names(T{})) {
      m += (m.empty() ? "" : "|") + std::string(n.cli);
    }
    return m;
  } else if constexpr (std::is_same_v<T, bool>) {
    return "on|off";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "PATH";
  } else {
    return std::is_floating_point_v<T> ? "F" : "N";
  }
}

} // namespace

bool set_config_field(const ConfigField& field, std::string_view text,
                      Config* cfg) {
  return std::visit(
      [&](auto m) { return parse_text(text, is_ms(field.flag), &(cfg->*m)); },
      field.member);
}

bool parse_site_at(const std::string& text, SiteId* site, SimTime* at) {
  const size_t sep = text.find('@');
  return sep != std::string::npos &&
         parse_text(std::string_view(text).substr(0, sep), false, site) &&
         parse_text(std::string_view(text).substr(sep + 1), true, at);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out(1);
  for (char c : s) {
    if (c == ',') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

bool write_file(const std::string& path, std::string_view body) {
  std::ofstream out(path, std::ios::binary);
  if (out) out << body;
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

void Cli::add_line(const std::string& spec, const char* doc,
                   const std::string& def) {
  constexpr size_t kDocColumn = 26;
  const std::string pad(kDocColumn, ' ');
  std::string line = "  --" + spec;
  line += line.size() < kDocColumn ? pad.substr(line.size()) : "\n" + pad;
  line += doc;
  if (!def.empty()) {
    const std::string tail = "(default " + def + ")";
    const bool fits = kDocColumn + std::strlen(doc) + tail.size() < 80;
    line += (fits ? " " : "\n" + pad) + tail;
  }
  usage_ += line + "\n";
}

template <typename T>
void Cli::describe(const std::string& name, const T& value, const char* doc) {
  // A bool that defaults off reads as a bare switch.
  if constexpr (std::is_same_v<T, bool>) {
    if (!value) return add_line(name, doc, "");
  }
  add_line(name + "=" + meta<T>(), doc, show(value, is_ms(name)));
}

void Cli::add_flag(const Flag& f) {
  std::visit(
      [&](auto target) {
        if constexpr (std::is_same_v<decltype(target), FlagSetter>) {
          add_line(std::string(f.name) + "=" + f.meta, f.doc, "");
          entries_.push_back({f.name, false, target});
        } else {
          using T = std::remove_pointer_t<decltype(target)>;
          describe(f.name, *target, f.doc);
          const bool ms = is_ms(f.name);
          entries_.push_back({f.name, std::is_same_v<T, bool>,
                              [target, ms](const std::string& v) {
                                return parse_text(v, ms, target);
                              }});
        }
      },
      f.target);
}

void Cli::add(const char* section, const std::vector<Flag>& flags) {
  usage_ += std::string(section) + "\n";
  for (const Flag& f : flags) add_flag(f);
}

void Cli::add_scenario(int* clients, WorkloadParams* workload,
                       SimTime* duration,
                       std::vector<FailureEvent>* schedule) {
  add("scenario:",
      {{"clients", clients, "closed-loop clients per site"},
       {"ops", &workload->ops_per_txn, "operations per transaction"},
       {"reads", &workload->read_fraction, "read fraction 0..1"},
       {"zipf", &workload->zipf_theta, "access skew theta; 0 = uniform"}});
  if (duration != nullptr) {
    add_flag({"duration-ms", duration, "workload duration"});
  }
  if (schedule == nullptr) return;
  auto event = [schedule](FailureEvent::What what) {
    return FlagSetter([schedule, what](const std::string& v) {
      FailureEvent ev;
      ev.what = what;
      if (!parse_site_at(v, &ev.site, &ev.at)) return false;
      schedule->push_back(ev);
      return true;
    });
  };
  add_flag({"crash", event(FailureEvent::What::kCrash),
            "crash site S at MS (repeatable)", "S@MS"});
  add_flag({"recover", event(FailureEvent::What::kRecover),
            "recover site S at MS (repeatable)", "S@MS"});
}

void Cli::add_config(Config* cfg, std::vector<ConfigAxis>* axes) {
  usage_ += axes == nullptr ? "config:\n"
                            : "config (a comma list makes a sweep axis):\n";
  for (const ConfigField& f : config_fields()) {
    if (f.flag == nullptr) continue;
    bool is_bool = false;
    std::visit(
        [&](auto m) {
          describe(f.flag, cfg->*m, f.doc);
          is_bool = std::is_same_v<std::decay_t<decltype(cfg->*m)>, bool>;
        },
        f.member);
    auto set = [cfg, axes, &f](const std::string& v) {
      if (axes == nullptr) return set_config_field(f, v, cfg);
      std::erase_if(*axes, [&](const ConfigAxis& a) { return a.field == &f; });
      if (v.find(',') == std::string::npos) {
        return set_config_field(f, v, cfg);
      }
      ConfigAxis axis{&f, split_commas(v)};
      Config scratch = *cfg;
      for (const std::string& x : axis.values) {
        if (!set_config_field(f, x, &scratch)) return false;
      }
      axes->push_back(std::move(axis));
      return true;
    };
    entries_.push_back({f.flag, is_bool, set});
  }
}

bool Cli::try_parse(int argc, char** argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string name, value;
    bool has_value = true;
    if (arg.starts_with("-j")) {
      name = "jobs";
      value = arg.size() > 2 ? arg.substr(2) : i + 1 < argc ? argv[++i] : "";
    } else if (arg.starts_with("--")) {
      const size_t eq = arg.find('=');
      name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      has_value = eq != std::string::npos;
      if (has_value) value = arg.substr(eq + 1);
    }
    const auto e = std::find_if(entries_.begin(), entries_.end(),
                                [&](const Entry& x) { return x.name == name; });
    if (name.empty() || e == entries_.end()) {
      *error = "unknown flag " + arg;
      return false;
    }
    if (!has_value && !e->is_switch) {
      *error = "--" + name + " needs a value";
      return false;
    }
    if (!e->set(has_value ? value : "on")) {
      *error = "bad value for --" + name + ": '" + value + "'";
      return false;
    }
  }
  return true;
}

void Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") usage(0);
  }
  std::string error;
  if (!try_parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv0_.c_str(), error.c_str());
    usage(2);
  }
}

void Cli::usage(int rc) const {
  std::printf("usage: %s [flags]\n%s", argv0_.c_str(), usage_.c_str());
  std::exit(rc);
}

} // namespace ddbs
