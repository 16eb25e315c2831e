// Shared command-line plumbing for the tools/ binaries (ddbs_sim,
// ddbs_sweep, ddbs_explore, ddbs_soak). A tool declares its own flags as
// {name, target, doc} rows; add_config() adds one flag per flagged row of
// the Config field table (common/config.h) and add_scenario() the shared
// workload flags. The usage text is generated from the same rows.
//
// Syntax: --name=value. A bool flag takes on|off, and the bare --name
// means on. An integer flag whose name ends in "-ms" reads milliseconds
// into a microsecond target. A flag named "jobs" also answers to -j N and
// -jN. Numbers must consume the whole value. --help prints the usage and
// exits 0; an unknown flag or a bad value prints the error and the usage
// and exits 2.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/config.h"
#include "workload/runner.h"

namespace ddbs {

// Where a tool-own flag's value goes: a typed variable, or a setter for
// values with a syntax of their own (S@MS pairs, lists, modes).
using FlagSetter = std::function<bool(const std::string&)>;
using FlagTarget = std::variant<int*, int64_t*, uint64_t*, double*, bool*,
                                std::string*, FlagSetter>;

struct Flag {
  const char* name; // without "--"
  FlagTarget target;
  const char* doc;
  const char* meta = "V"; // value placeholder in the usage (setters only)
};

// A Config flag given a comma list, on a tool that sweeps (ddbs_sweep).
struct ConfigAxis {
  const ConfigField* field;
  std::vector<std::string> values; // as typed
};

// Set `field` of *cfg from its CLI spelling; false on a malformed value.
bool set_config_field(const ConfigField& field, std::string_view text,
                      Config* cfg);

// "S@MS": a site and a time in milliseconds (stored in microseconds).
bool parse_site_at(const std::string& text, SiteId* site, SimTime* at);

std::vector<std::string> split_commas(const std::string& s);

// Write `body` to `path`; false, with a note on stderr, on failure.
bool write_file(const std::string& path, std::string_view body);

class Cli {
 public:
  explicit Cli(const char* argv0) : argv0_(argv0) {}

  // A usage section of tool-own flags.
  void add(const char* section, const std::vector<Flag>& flags);
  // --clients --ops --reads --zipf; --duration-ms and the repeatable
  // --crash/--recover=S@MS when those targets are given.
  void add_scenario(int* clients, WorkloadParams* workload,
                    SimTime* duration = nullptr,
                    std::vector<FailureEvent>* schedule = nullptr);
  // One flag per flagged Config field, into *cfg; the usage shows the
  // values *cfg holds now as defaults. With `axes`, a comma-listed value
  // becomes an axis (replacing any earlier one for the same field).
  void add_config(Config* cfg, std::vector<ConfigAxis>* axes = nullptr);

  bool try_parse(int argc, char** argv, std::string* error);
  void parse(int argc, char** argv);
  [[noreturn]] void usage(int rc) const;

 private:
  struct Entry {
    std::string name;
    bool is_switch; // bool flag: the bare form means on
    FlagSetter set;
  };
  void add_flag(const Flag& f);
  template <typename T>
  void describe(const std::string& name, const T& value, const char* doc);
  void add_line(const std::string& spec, const char* doc,
                const std::string& def);

  std::string argv0_;
  std::string usage_;
  std::vector<Entry> entries_;
};

} // namespace ddbs
