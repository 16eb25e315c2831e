#include "common/config.h"

#include <type_traits>

namespace ddbs {

static_assert(std::is_same_v<size_t, uint64_t>,
              "size_t members share the uint64 field type");

namespace {

constexpr EnumName<WriteScheme> kWriteSchemes[] = {
    {WriteScheme::kRowaStrict, "ROWA-strict", "rowa"},
    {WriteScheme::kRowaa, "ROWAA", "rowaa"},
};
constexpr EnumName<RecoveryScheme> kRecoverySchemes[] = {
    {RecoveryScheme::kSessionVector, "session-vector", "session-vector"},
    {RecoveryScheme::kSpooler, "spooler-redo", "spooler"},
};
constexpr EnumName<OutdatedStrategy> kStrategies[] = {
    {OutdatedStrategy::kMarkAll, "mark-all", "mark-all"},
    {OutdatedStrategy::kMarkAllVersionCmp, "mark-all+vcmp", "vcmp"},
    {OutdatedStrategy::kFailLock, "fail-lock", "fail-lock"},
    {OutdatedStrategy::kMissingList, "missing-list", "missing-list"},
};
constexpr EnumName<CopierMode> kCopierModes[] = {
    {CopierMode::kEager, "eager", "eager"},
    {CopierMode::kOnDemand, "on-demand", "on-demand"},
};
constexpr EnumName<UnreadablePolicy> kPolicies[] = {
    {UnreadablePolicy::kBlock, "block", "block"},
    {UnreadablePolicy::kRedirect, "redirect", "redirect"},
};
constexpr EnumName<StorageEngineKind> kEngines[] = {
    {StorageEngineKind::kInMemory, "in-memory", "in-memory"},
    {StorageEngineKind::kDurable, "durable", "durable"},
};
constexpr EnumName<PlantedBug> kPlantedBugs[] = {
    {PlantedBug::kNone, "none", "none"},
    {PlantedBug::kSkipSessionCheck, "skip-session-check", "skip-session-check"},
    {PlantedBug::kSkipMark, "skip-mark", "skip-mark"},
    {PlantedBug::kCopierCounterCompare, "copier-counter-compare",
     "copier-counter-compare"},
};

using C = Config;

constexpr ConfigField kFields[] = {
    {"n_sites", "sites", &C::n_sites, "number of sites"},
    {"n_items", "items", &C::n_items, "number of logical items"},
    {"replication_degree", "degree", &C::replication_degree,
     "copies per item (capped at --sites)"},
    {"placement_seed", nullptr, &C::placement_seed, nullptr},
    {"write_scheme", "write-scheme", &C::write_scheme,
     "logical-write rule (Section 2)"},
    {"recovery_scheme", "scheme", &C::recovery_scheme,
     "session vectors or the spooler redo baseline"},
    {"outdated_strategy", "strategy", &C::outdated_strategy,
     "out-of-date copy identification (Section 5)"},
    {"copier_mode", "copier", &C::copier_mode,
     "when copier transactions run (Section 3.2)"},
    {"unreadable_policy", "policy", &C::unreadable_policy,
     "a read of an unreadable copy blocks or redirects"},
    {"net_latency_min", nullptr, &C::net_latency_min, nullptr},
    {"net_latency_max", nullptr, &C::net_latency_max, nullptr},
    {"msg_loss_prob", "loss", &C::msg_loss_prob, "message loss probability"},
    {"rpc_timeout", nullptr, &C::rpc_timeout, nullptr},
    {"lock_timeout", nullptr, &C::lock_timeout, nullptr},
    {"txn_timeout", nullptr, &C::txn_timeout, nullptr},
    {"detector_interval", nullptr, &C::detector_interval, nullptr},
    {"copier_concurrency", nullptr, &C::copier_concurrency, nullptr},
    {"control_retry_limit", "retry-limit", &C::control_retry_limit,
     "type-1 retries before giving up"},
    {"user_txn_retry", nullptr, &C::user_txn_retry, nullptr},
    {"footprint_ns", "footprint-ns", &C::footprint_ns,
     "user txns read only their host set's NS entries"},
    {"reconcile_probes", nullptr, &C::reconcile_probes, nullptr},
    {"wal_checkpoint_threshold", nullptr, &C::wal_checkpoint_threshold,
     nullptr},
    {"storage_engine", "storage-engine", &C::storage_engine,
     "stable-storage backend"},
    {"checkpoint_interval", "checkpoint-interval", &C::checkpoint_interval,
     "redo records between checkpoints (durable; 0 = never)"},
    {"disk_latency_us", "disk-latency-us", &C::disk_latency_us,
     "per-op disk latency (us)"},
    {"disk_bandwidth_mbps", "disk-bw-mbps", &C::disk_bandwidth_mbps,
     "disk bandwidth (MB/s)"},
    {"disk_queue_depth", "disk-queue-depth", &C::disk_queue_depth,
     "concurrent disk channels"},
    {"local_op_cost", nullptr, &C::local_op_cost, nullptr},
    {"trace_capacity", "trace-cap", &C::trace_capacity,
     "event ring capacity per shard (events)"},
    {"timeseries_bucket", "bucket-ms", &C::timeseries_bucket,
     "time-series bucket width (0 = off)"},
    {"record_history", nullptr, &C::record_history, nullptr},
    {"online_verify", "online-verify", &C::online_verify,
     "maintain the revised 1-STG incrementally"},
    {"n_threads", "threads", &C::n_threads,
     "cluster threads; >1 runs the site-parallel backend"},
    {"site_ordered_events", nullptr, &C::site_ordered_events, nullptr},
    {"workload_shards", nullptr, &C::workload_shards, nullptr},
    {"planted_bug", "planted-bug", &C::planted_bug,
     "protocol mutation (explorer self-check)"},
    {"planted_stall", "planted-stall", &C::planted_stall,
     "historical type-1 retry give-up (watchdog demo)"},
};

} // namespace

std::span<const EnumName<WriteScheme>> enum_names(WriteScheme) {
  return kWriteSchemes;
}
std::span<const EnumName<RecoveryScheme>> enum_names(RecoveryScheme) {
  return kRecoverySchemes;
}
std::span<const EnumName<OutdatedStrategy>> enum_names(OutdatedStrategy) {
  return kStrategies;
}
std::span<const EnumName<CopierMode>> enum_names(CopierMode) {
  return kCopierModes;
}
std::span<const EnumName<UnreadablePolicy>> enum_names(UnreadablePolicy) {
  return kPolicies;
}
std::span<const EnumName<StorageEngineKind>> enum_names(StorageEngineKind) {
  return kEngines;
}
std::span<const EnumName<PlantedBug>> enum_names(PlantedBug) {
  return kPlantedBugs;
}

std::span<const ConfigField> config_fields() { return kFields; }

} // namespace ddbs
