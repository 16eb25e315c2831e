// Cluster-wide configuration knobs. One struct so benches can sweep any
// dimension; every field has a sensible default matching the paper's basic
// algorithm (ROWAA + session vectors + mark-all).
//
// Adding a knob means one member below plus one row in the field table
// (config_fields() in config.cpp). The table alone drives the report's
// config echo, repro parsing, every tool's CLI flag and usage line, and
// ddbs_sweep's axes; an enum member also needs its name table there.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <variant>

#include "common/types.h"

namespace ddbs {

// How logical operations are interpreted (paper Section 2).
enum class WriteScheme : uint8_t {
  kRowaStrict, // read-one / write-ALL: any down copy fails the write
  kRowaa,      // read-one / write-all-available under the NS convention
};

// How a recovering site is brought up to date (paper Section 1 survey).
enum class RecoveryScheme : uint8_t {
  kSessionVector, // the paper's algorithm (Section 3)
  kSpooler,       // redo baseline: replay spooled updates before going up
};

// How out-of-date copies are identified at recovery (paper Section 5).
enum class OutdatedStrategy : uint8_t {
  kMarkAll,            // pessimistic: every local copy marked unreadable
  kMarkAllVersionCmp,  // mark-all, but copiers skip when versions match
  kFailLock,           // per-down-site sets of fail-locked items
  kMissingList,        // precise (item, site) missing-list matrix
};

// When copier transactions run (paper Section 3.2: "may be initiated by the
// recovery procedure one by one ... or on a demand basis").
enum class CopierMode : uint8_t {
  kEager,    // background copiers launched right after the site goes up
  kOnDemand, // launched when a read request touches an unreadable copy
};

// What a read does when it touches an unreadable copy (paper Section 3.2:
// blocked until the copier finishes, or read some other copy instead).
enum class UnreadablePolicy : uint8_t {
  kBlock,    // DM queues the read behind the triggered copier
  kRedirect, // DM rejects; the TM retries at another readable copy
};

// Which stable-storage implementation backs a site (src/storage/durable/).
enum class StorageEngineKind : uint8_t {
  kInMemory, // legacy instantaneous stable storage: zero disk events
  kDurable,  // checkpoint + redo-log engine over the simulated disk
};

// Deliberate protocol mutations for self-validating the adversarial
// explorer (tools/ddbs_explore --planted-bug): each drops one safety
// mechanism the paper's correctness argument depends on, and the explorer
// must find the resulting invariant violation and shrink its schedule.
enum class PlantedBug : uint8_t {
  kNone,
  // The DM write path accepts requests whose session number does not
  // match as[k] (Section 3.2's rejection rule disabled on one path).
  kSkipSessionCheck,
  // Recovery skips marking one hosted item as out-of-date (mark-all step
  // 2 leaves the highest hosted item readable-but-possibly-stale).
  kSkipMark,
  // A copier keeps a marked copy whose version counter is at least the
  // source's, comparing counters across sites (the §5 short-circuit as it
  // was before it judged each copy alone).
  kCopierCounterCompare,
};

// Name table of one enum value: the canonical name (reports, repro
// artifacts) and the short CLI spelling. Both parse; to_string prints the
// canonical one.
template <typename E>
struct EnumName {
  E value;
  const char* name;
  const char* cli;
};

std::span<const EnumName<WriteScheme>> enum_names(WriteScheme);
std::span<const EnumName<RecoveryScheme>> enum_names(RecoveryScheme);
std::span<const EnumName<OutdatedStrategy>> enum_names(OutdatedStrategy);
std::span<const EnumName<CopierMode>> enum_names(CopierMode);
std::span<const EnumName<UnreadablePolicy>> enum_names(UnreadablePolicy);
std::span<const EnumName<StorageEngineKind>> enum_names(StorageEngineKind);
std::span<const EnumName<PlantedBug>> enum_names(PlantedBug);

template <typename E>
concept ConfigEnum = requires(E e) { enum_names(e); };

template <ConfigEnum E>
const char* to_string(E e) {
  for (const EnumName<E>& n : enum_names(e)) {
    if (n.value == e) return n.name;
  }
  return "?";
}

template <ConfigEnum E>
const char* cli_name(E e) {
  for (const EnumName<E>& n : enum_names(e)) {
    if (n.value == e) return n.cli;
  }
  return "?";
}

// Accepts either spelling; false (leaving *out untouched) on anything else.
template <ConfigEnum E>
bool parse_enum(std::string_view name, E* out) {
  for (const EnumName<E>& n : enum_names(E{})) {
    if (name == n.name || name == n.cli) {
      *out = n.value;
      return true;
    }
  }
  return false;
}

struct Config {
  // Topology.
  int n_sites = 5;

  // Execution backend. n_threads == 1 runs the classic single-threaded
  // deterministic DES (Cluster); n_threads > 1 selects the site-parallel
  // backend (ParallelCluster): sites are split into n_threads contiguous
  // shards, each driven by its own worker thread and private scheduler,
  // with cross-shard envelopes flowing through SPSC mailbox rings under
  // conservative epoch synchronization (lookahead = minimum network
  // latency). The shard map is part of the *configuration*, not the
  // backend: a single-threaded run with n_threads = 4 uses the 4-shard
  // map for workload decisions (client failover stays shard-local), so
  // it is event-for-event comparable with a real 4-thread run.
  int n_threads = 1;
  // Deterministic cross-backend event ordering. When set, every event
  // carries a (origin, counter) key minted per site instead of a global
  // insertion sequence, and the network samples latency/loss from a
  // counter-keyed hash instead of a shared sequential RNG. Execution then
  // depends only on per-site event streams -- never on how sites are
  // interleaved across shards -- so the single-threaded DES and the
  // parallel backend produce identical per-site histories and final
  // states (tests/test_parallel_differential.cpp holds them to it).
  // Forced on by the parallel backend; off preserves the legacy DES
  // ordering bit-for-bit.
  bool site_ordered_events = false;
  // Override for the shard map's fan-out (0 = follow n_threads). Lets a
  // single-threaded run (n_threads = 1) use the same shard map as an
  // n-thread run for shard-aware workload decisions, which is what the
  // differential tests compare against.
  int workload_shards = 0;
  int64_t n_items = 200;
  int replication_degree = 3; // copies per logical item (capped at n_sites)
  uint64_t placement_seed = 42;

  // Protocol selection.
  WriteScheme write_scheme = WriteScheme::kRowaa;
  RecoveryScheme recovery_scheme = RecoveryScheme::kSessionVector;
  OutdatedStrategy outdated_strategy = OutdatedStrategy::kMarkAll;
  CopierMode copier_mode = CopierMode::kEager;
  UnreadablePolicy unreadable_policy = UnreadablePolicy::kBlock;

  // Network model (microseconds).
  SimTime net_latency_min = 500;
  SimTime net_latency_max = 1'500;
  double msg_loss_prob = 0.0; // loss between live sites (retries mask it)

  // Timeouts (microseconds).
  SimTime rpc_timeout = 20'000;       // per-request timeout => suspect site
  SimTime lock_timeout = 200'000;     // backstop for distributed deadlocks
  SimTime txn_timeout = 1'000'000;    // overall transaction deadline
  SimTime detector_interval = 50'000; // failure-detector ping period

  // Recovery behaviour.
  int copier_concurrency = 4;     // eager copiers in flight per site
  int control_retry_limit = 16;   // type-1 retries before giving up
  bool user_txn_retry = false;    // auto-resubmit aborted user txns (runner)

  // Footprint-proportional session protocol: user transactions and copiers
  // read/freeze only the NS entries of sites hosting their read/write set
  // (their host set), so per-transaction NS cost is O(touched sites), not
  // O(n_sites). Semantically neutral -- the Section 3.2 per-site check
  // only ever consults ns_i[k] for sites whose copies the transaction
  // physically touches, and any such site is in the host set by
  // construction. Off makes every site the host set: the paper's dense
  // full-vector read on the same code path, for differential testing.
  // Control transactions always freeze the full vector (they make claims
  // about every site).
  bool footprint_ns = true;
  // Periodically probe NOMINALLY-DOWN sites; one that answers
  // "operational" has been falsely declared (fail-stop violated, e.g. a
  // healed partition) and is told to restart and re-integrate. This is the
  // one-directional integration the paper sketches in Section 6.
  bool reconcile_probes = true;

  // WAL checkpointing: truncate resolved records when the log exceeds
  // this many records (0 disables).
  size_t wal_checkpoint_threshold = 256;

  // Stable-storage backend. kInMemory keeps the legacy instantaneous
  // stable image (reboot costs ~zero events); kDurable routes every
  // stable mutation through a redo log + fuzzy checkpoints on the
  // simulated disk, and reboot becomes load-checkpoint + replay-suffix.
  StorageEngineKind storage_engine = StorageEngineKind::kInMemory;
  // Durable engine: snapshot a checkpoint once this many redo records
  // have accumulated since the last one (0 = never; reboot then replays
  // the entire log).
  int64_t checkpoint_interval = 2048;
  // Simulated disk device, one per site: each op costs a fixed seek
  // latency plus transfer time at `disk_bandwidth_mbps` (1 MB/s == 1
  // byte/us), with up to `disk_queue_depth` ops in service concurrently.
  SimTime disk_latency_us = 100;
  int64_t disk_bandwidth_mbps = 200;
  int disk_queue_depth = 4;

  // Local processing cost per physical operation (microseconds).
  SimTime local_op_cost = 50;

  // Observability. Capacity of each shard's event ring (events, not
  // bytes; the ring overwrites oldest-first and counts drops).
  // `timeseries_bucket` is the width of the availability time-series
  // buckets in microseconds; 0 disables the recorder.
  size_t trace_capacity = 1 << 15;
  SimTime timeseries_bucket = 250'000;

  // Verification.
  bool record_history = true; // feed the 1-SR checker (tests/examples)
  // Attach the OnlineVerifier to the history recorder: the revised 1-STG
  // is maintained incrementally as commits arrive and the consumed prefix
  // can be pruned, bounding memory over arbitrarily long runs. Requires
  // record_history.
  bool online_verify = false;
  // Protocol mutation for explorer self-validation; kNone in real runs.
  PlantedBug planted_bug = PlantedBug::kNone;
  // Watchdog self-validation: restore the historical type-1 retry
  // behavior (fixed 30ms backoff, permanent give-up after
  // control_retry_limit) that produced the NS-lock livelock fixed in an
  // earlier PR. A recovery that exhausts its retries then strands the
  // site in kRecovering forever -- exactly the signature the no-progress
  // watchdog (common/telemetry.h) must catch. Never set in real runs.
  bool planted_stall = false;

  int effective_replication() const {
    return replication_degree > n_sites ? n_sites : replication_degree;
  }

  // Writers that skip a nominally-down copy leave a status entry (a
  // fail-lock, a missing-list entry or a spool record) that the recovering
  // site's type-1 control transaction collects and clears (Section 5).
  bool keeps_status_tables() const {
    return recovery_scheme == RecoveryScheme::kSpooler ||
           outdated_strategy == OutdatedStrategy::kFailLock ||
           outdated_strategy == OutdatedStrategy::kMissingList;
  }

  // Shard map used by the parallel backend (and, for comparability, by
  // shard-aware workload decisions in single-threaded runs): n_threads
  // contiguous, balanced site ranges.
  int shard_count() const {
    int k = workload_shards > 0 ? workload_shards : n_threads;
    if (k < 1) k = 1;
    return k > n_sites ? (n_sites < 1 ? 1 : n_sites) : k;
  }
  int shard_of(SiteId s) const {
    return static_cast<int>(static_cast<int64_t>(s) * shard_count() /
                            n_sites);
  }

  bool operator==(const Config&) const = default;
};

// One row of the Config field table. Parsing and printing follow from
// the member's type (int, int64/SimTime, uint64/size_t, double, bool or a
// ConfigEnum); a CLI flag ending in "-ms" takes milliseconds for a
// microsecond member.
using ConfigMember =
    std::variant<int Config::*, int64_t Config::*, uint64_t Config::*,
                 double Config::*, bool Config::*, WriteScheme Config::*,
                 RecoveryScheme Config::*, OutdatedStrategy Config::*,
                 CopierMode Config::*, UnreadablePolicy Config::*,
                 StorageEngineKind Config::*, PlantedBug Config::*>;

struct ConfigField {
  const char* key;  // report/repro JSON key: the member's name
  const char* flag; // CLI flag without "--"; nullptr = not on the CLI
  ConfigMember member;
  const char* doc;  // usage text for flagged rows
};

// Every Config member, in report order.
std::span<const ConfigField> config_fields();

} // namespace ddbs
