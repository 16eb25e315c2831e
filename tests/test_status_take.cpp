// The type-1 control transaction's status round (paper Section 5, and the
// spooler's locked spool handoff): one StatusTakeReq per operational site
// reads that site's entries for the recovering site under the exclusive
// status lock and stages their removal. The removal is applied when the
// type-1 commits and dropped when it aborts; the fail-lock set goes too
// only when no other site is nominally down.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "core/cluster.h"

namespace ddbs {
namespace {

struct StatusCase {
  RecoveryScheme scheme;
  OutdatedStrategy strategy;
  const char* name;
};

Config cfg_for(const StatusCase& c) {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  cfg.recovery_scheme = c.scheme;
  cfg.outdated_strategy = c.strategy;
  return cfg;
}

// What site s keeps that a type-1 of `recovering` collects or clears.
struct Tables {
  std::vector<ItemId> ml_for;     // missing-list items naming `recovering`
  std::vector<ItemId> fail_locks; // the whole fail-lock set
  std::vector<ItemId> spool_for;  // items spooled for `recovering`
  friend bool operator==(const Tables&, const Tables&) = default;
};

Tables tables_at(Cluster& cluster, SiteId s, SiteId recovering) {
  Tables t;
  StatusTable& st = cluster.site(s).dm().status_table();
  t.ml_for = st.ml_items_for(recovering);
  t.fail_locks = st.fl_items();
  for (const SpoolRecord& r :
       cluster.site(s).stable().spool().records_for(recovering)) {
    t.spool_for.push_back(r.item);
  }
  return t;
}

bool empty_for(const Tables& t) {
  return t.ml_for.empty() && t.spool_for.empty();
}

// Crash the given sites, let the detector declare them down, then write
// every item so each live copy's site records the ones they missed.
void crash_and_write(Cluster& cluster, const std::vector<SiteId>& down) {
  for (SiteId d : down) cluster.crash_site(d);
  cluster.run_until(cluster.now() + 800'000);
  for (ItemId x = 0; x < cluster.config().n_items; ++x) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 500 + x}}).committed);
  }
  cluster.settle();
}

class StatusTakeTest : public ::testing::TestWithParam<StatusCase> {};

// Every type-1 attempt sends exactly one status take to each operational
// site. The first attempt is made to abort after its status round (its
// first NS write is refused): when the second attempt's take reaches a
// site, that site's table and spool are still what they were before the
// recovery. The committing attempt then removes the recovering site's
// entries everywhere and, with no other site down, the fail-lock set.
TEST_P(StatusTakeTest, OneTakePerSiteAbortKeepsTablesCommitClears) {
  const Config cfg = cfg_for(GetParam());
  Cluster cluster(cfg, 21);
  cluster.bootstrap();
  const SiteId rec = 2;
  const std::vector<SiteId> operational = {0, 1, 3};
  crash_and_write(cluster, {rec});

  std::map<SiteId, Tables> before;
  bool recorded_any = false;
  for (SiteId s : operational) {
    before[s] = tables_at(cluster, s, rec);
    recorded_any = recorded_any || !empty_for(before[s]) ||
                   !before[s].fail_locks.empty();
  }
  ASSERT_TRUE(recorded_any);

  struct Tap {
    std::map<TxnId, std::vector<SiteId>> takes; // type-1 txn -> destinations
    TxnId refused = 0; // the attempt whose NS write was refused
    std::map<SiteId, Tables> at_retry; // tables when a later take arrived
  };
  auto tap = std::make_shared<Tap>();
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    cluster.site(s).rpc().start([&cluster, tap, s, rec](const Envelope& env) {
      if (const auto* t = std::get_if<StatusTakeReq>(&env.payload)) {
        EXPECT_EQ(t->recovering_site, rec);
        tap->takes[t->txn].push_back(s);
        if (tap->refused != 0 && t->txn != tap->refused &&
            tap->at_retry.count(s) == 0) {
          tap->at_retry[s] = tables_at(cluster, s, rec);
        }
      } else if (const auto* b = std::get_if<BatchReq>(&env.payload)) {
        const bool writes = !b->ops.empty() &&
                            b->ops.front().op == BatchOpKind::kWrite;
        if (b->kind == TxnKind::kControlUp && writes && tap->refused == 0 &&
            tap->takes.count(b->txn) != 0) {
          tap->refused = b->txn;
          BatchResp resp;
          resp.txn = b->txn;
          resp.code = Code::kAborted;
          resp.results.resize(b->ops.size());
          for (BatchOpResult& r : resp.results) r.code = Code::kAborted;
          cluster.site(s).rpc().respond(env, std::move(resp));
          return;
        }
      }
      cluster.site(s).dm().handle_request(env);
    });
  }
  cluster.recover_site(rec);
  cluster.settle();
  ASSERT_EQ(cluster.site(rec).state().mode, SiteMode::kUp);

  ASSERT_NE(tap->refused, 0u);
  ASSERT_GE(tap->takes.size(), 2u);
  for (auto& [txn, dests] : tap->takes) {
    std::sort(dests.begin(), dests.end());
    EXPECT_EQ(dests, operational) << "type-1 " << txn;
  }
  for (SiteId s : operational) {
    ASSERT_EQ(tap->at_retry.count(s), 1u) << "site " << s;
    EXPECT_EQ(tap->at_retry[s], before[s]) << "site " << s;
    const Tables after = tables_at(cluster, s, rec);
    EXPECT_TRUE(empty_for(after)) << "site " << s;
    EXPECT_TRUE(after.fail_locks.empty()) << "site " << s;
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

// With site 3 still down when site 2 recovers, site 2's type-1 removes
// only the entries naming site 2 and leaves the fail-lock set, which
// still covers site 3; site 3's own recovery then clears what is left.
TEST_P(StatusTakeTest, AnotherSiteDownKeepsItsEntriesAndTheFailLocks) {
  const Config cfg = cfg_for(GetParam());
  Cluster cluster(cfg, 22);
  cluster.bootstrap();
  crash_and_write(cluster, {2, 3});
  std::map<SiteId, Tables> for3;
  for (SiteId s : {0, 1}) for3[s] = tables_at(cluster, s, 3);
  if (cfg.outdated_strategy == OutdatedStrategy::kFailLock) {
    ASSERT_FALSE(for3[0].fail_locks.empty());
  }

  cluster.recover_site(2);
  cluster.settle();
  ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
  for (SiteId s : {0, 1}) {
    EXPECT_TRUE(empty_for(tables_at(cluster, s, 2))) << "site " << s;
    EXPECT_EQ(tables_at(cluster, s, 3), for3[s]) << "site " << s;
  }

  cluster.recover_site(3);
  cluster.settle();
  ASSERT_EQ(cluster.site(3).state().mode, SiteMode::kUp);
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    for (SiteId r : {2, 3}) {
      const Tables t = tables_at(cluster, s, r);
      EXPECT_TRUE(empty_for(t)) << "site " << s << " for " << r;
      EXPECT_TRUE(t.fail_locks.empty()) << "site " << s;
    }
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StatusTakeTest,
    ::testing::Values(
        StatusCase{RecoveryScheme::kSessionVector, OutdatedStrategy::kFailLock,
                   "fail_lock"},
        StatusCase{RecoveryScheme::kSessionVector,
                   OutdatedStrategy::kMissingList, "missing_list"},
        StatusCase{RecoveryScheme::kSpooler, OutdatedStrategy::kMarkAll,
                   "spooler"}),
    [](const auto& info) { return std::string(info.param.name); });

} // namespace
} // namespace ddbs
