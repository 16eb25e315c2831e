// The Config field table (common/config.h) and the shared CLI parser
// built on it (workload/cli.h): every field survives the report echo ->
// repro parse round trip and the CLI flag parse, enum flags take exactly
// the canonical and short spellings, numeric flags consume their whole
// value, and ddbs_sweep-style comma lists become axes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/config.h"
#include "common/report.h"
#include "explore/repro.h"
#include "workload/cli.h"

namespace ddbs {
namespace {

// A value different from `v` that every codec can carry: integers move by
// 1000 so that millisecond flags stay exact.
template <typename T>
T other(T v) {
  if constexpr (ConfigEnum<T>) {
    const auto names = enum_names(v);
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i].value == v) return names[(i + 1) % names.size()].value;
    }
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_floating_point_v<T>) {
    return v + 0.25;
  } else {
    return v + 1000;
  }
}

Config mutate_all(Config c, bool flagged_only) {
  for (const ConfigField& f : config_fields()) {
    if (flagged_only && f.flag == nullptr) continue;
    std::visit([&](auto m) { c.*m = other(c.*m); }, f.member);
  }
  return c;
}

// The CLI spelling of one field's value in `c`.
std::string flag_text(const ConfigField& f, const Config& c) {
  return std::visit(
      [&](auto m) -> std::string {
        const auto v = c.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (ConfigEnum<T>) {
          return cli_name(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "on" : "off";
        } else if constexpr (std::is_floating_point_v<T>) {
          std::ostringstream os;
          os << v;
          return os.str();
        } else {
          return std::to_string(std::string_view(f.flag).ends_with("-ms")
                                    ? v / 1000
                                    : v);
        }
      },
      f.member);
}

// Keys of the fields where a and b differ ("" when equal).
std::string differing(const Config& a, const Config& b) {
  std::string out;
  for (const ConfigField& f : config_fields()) {
    std::visit(
        [&](auto m) {
          if (!(a.*m == b.*m)) out += std::string(f.key) + " ";
        },
        f.member);
  }
  return out;
}

// Runs the shared parser over `args` into *cfg (and *axes, when given).
bool parse_flags(const std::vector<std::string>& args, Config* cfg,
                 std::string* error,
                 std::vector<ConfigAxis>* axes = nullptr) {
  std::vector<char*> argv{const_cast<char*>("tool")};
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  Cli cli("tool");
  cli.add_config(cfg, axes);
  return cli.try_parse(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(ConfigSchema, EveryFieldRoundTrips) {
  const Config want = mutate_all(Config{}, false);
  EXPECT_FALSE(want == Config{});
  for (const ConfigField& f : config_fields()) {
    std::visit([&](auto m) { EXPECT_FALSE(want.*m == Config{}.*m) << f.key; },
               f.member);
  }
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "repro");
  w.key("config");
  write_config(w, want);
  w.key("schedule");
  w.begin_array();
  w.end_array();
  w.end_object();
  ReproArtifact a;
  std::string err;
  ASSERT_TRUE(parse_repro(w.str(), &a, &err)) << err;
  EXPECT_EQ(differing(a.opts.cfg, want), "");
  EXPECT_TRUE(a.opts.cfg == want);
}

TEST(ConfigSchema, EveryFlagRoundTrips) {
  const Config want = mutate_all(Config{}, true);
  std::vector<std::string> args;
  for (const ConfigField& f : config_fields()) {
    if (f.flag != nullptr) {
      args.push_back("--" + std::string(f.flag) + "=" + flag_text(f, want));
    }
  }
  Config got;
  std::string err;
  ASSERT_TRUE(parse_flags(args, &got, &err)) << err;
  EXPECT_EQ(differing(got, want), "");
  EXPECT_TRUE(got == want);
}

TEST(ConfigSchema, EnumFlagsTakeBothSpellingsAndRejectTheRest) {
  int enum_flags = 0;
  for (const ConfigField& f : config_fields()) {
    std::visit(
        [&](auto m) {
          using T = std::decay_t<decltype(Config{}.*m)>;
          if constexpr (ConfigEnum<T>) {
            ASSERT_NE(f.flag, nullptr) << f.key;
            ++enum_flags;
            const std::string flag = "--" + std::string(f.flag);
            for (const EnumName<T>& n : enum_names(T{})) {
              for (const char* spelling : {n.name, n.cli}) {
                Config c;
                std::string err;
                ASSERT_TRUE(parse_flags({flag + "=" + spelling}, &c, &err))
                    << err;
                EXPECT_EQ(c.*m, n.value) << flag << "=" << spelling;
              }
            }
            for (const char* bad : {"", "nope", "Mark-All", "on-demnd"}) {
              Config c;
              std::string err;
              EXPECT_FALSE(parse_flags({flag + "=" + bad}, &c, &err))
                  << flag << "=" << bad;
              EXPECT_NE(err.find(flag), std::string::npos) << err;
              EXPECT_TRUE(c == Config{}) << flag;
            }
          }
        },
        f.member);
  }
  EXPECT_EQ(enum_flags, 7);
}

TEST(ConfigSchema, NumericFlagsConsumeTheWholeValue) {
  for (const char* bad : {"--sites=abc", "--sites=4x", "--sites=", "--sites",
                          "--sites=4.0", "--items=-", "--loss=0.1x",
                          "--trace-cap=-1", "--bucket-ms=1e99",
                          "--footprint-ns=yes", "--no-such-flag=1"}) {
    Config c;
    std::string err;
    EXPECT_FALSE(parse_flags({bad}, &c, &err)) << bad;
    EXPECT_NE(err, "") << bad;
  }
  Config c;
  std::string err;
  ASSERT_TRUE(parse_flags({"--sites=4", "--loss=0.125", "--bucket-ms=3",
                           "--planted-stall", "--footprint-ns=off",
                           "--degree=-2"},
                          &c, &err))
      << err;
  EXPECT_EQ(c.n_sites, 4);
  EXPECT_EQ(c.msg_loss_prob, 0.125);
  EXPECT_EQ(c.timeseries_bucket, 3'000); // -ms flags read milliseconds
  EXPECT_TRUE(c.planted_stall);
  EXPECT_FALSE(c.footprint_ns);
  EXPECT_EQ(c.replication_degree, -2);
}

TEST(ConfigSchema, CommaListsBecomeSweepAxes) {
  Config base;
  std::vector<ConfigAxis> axes;
  std::string err;
  ASSERT_TRUE(parse_flags({"--strategy=mark-all,missing-list", "--sites=6",
                           "--degree=2,3", "--degree=4,5,6",
                           "--items=10,20", "--items=30"},
                          &base, &err, &axes))
      << err;
  EXPECT_EQ(base.n_sites, 6);
  EXPECT_EQ(base.n_items, 30); // a later single value replaces the axis
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_STREQ(axes[0].field->flag, "strategy");
  EXPECT_EQ(axes[0].values,
            (std::vector<std::string>{"mark-all", "missing-list"}));
  EXPECT_STREQ(axes[1].field->flag, "degree");
  EXPECT_EQ(axes[1].values, (std::vector<std::string>{"4", "5", "6"}));
  Config cell = base;
  ASSERT_TRUE(set_config_field(*axes[0].field, "missing-list", &cell));
  EXPECT_EQ(cell.outdated_strategy, OutdatedStrategy::kMissingList);

  EXPECT_FALSE(parse_flags({"--copier=eager,on-demnd"}, &base, &err, &axes));
  EXPECT_NE(err.find("--copier"), std::string::npos) << err;
}

TEST(ConfigSchema, ToolFlagsAndSharedHelpers) {
  int jobs = 1;
  bool fail_fast = false;
  std::vector<FailureEvent> schedule;
  RunnerParams rp;
  Cli cli("tool");
  cli.add("tool:", {{"jobs", &jobs, "pool size"},
                    {"fail-fast", &fail_fast, "stop early"}});
  cli.add_scenario(&rp.clients_per_site, &rp.workload, &rp.duration,
                   &rp.schedule);
  const char* argv[] = {"tool", "-j", "3", "--fail-fast", "--duration-ms=7",
                        "--crash=2@100", "--recover=2@250", "--zipf=0.5"};
  std::string err;
  ASSERT_TRUE(cli.try_parse(8, const_cast<char**>(argv), &err)) << err;
  EXPECT_EQ(jobs, 3);
  EXPECT_TRUE(fail_fast);
  EXPECT_EQ(rp.duration, 7'000);
  EXPECT_EQ(rp.workload.zipf_theta, 0.5);
  ASSERT_EQ(rp.schedule.size(), 2u);
  EXPECT_EQ(rp.schedule[0].what, FailureEvent::What::kCrash);
  EXPECT_EQ(rp.schedule[0].site, 2);
  EXPECT_EQ(rp.schedule[1].at, 250'000);

  const char* bad[] = {"tool", "--crash=2@x"};
  EXPECT_FALSE(cli.try_parse(2, const_cast<char**>(bad), &err));
  const char* bare[] = {"tool", "-j"};
  EXPECT_FALSE(cli.try_parse(2, const_cast<char**>(bare), &err));

  EXPECT_EQ(split_commas("a,,b"), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split_commas(""), (std::vector<std::string>{""}));
}

} // namespace
} // namespace ddbs
