// Coordinator edge cases: empty transactions, read-own-write, the commit's
// prepare set (read-only sites released at the lock point), transaction
// deadlines, read failover order, and the WAL checkpointing + outcome-log
// hygiene those paths rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/cluster.h"

namespace ddbs {
namespace {

Config cfg4() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 30;
  cfg.replication_degree = 3;
  return cfg;
}

TEST(CoordinatorEdges, EmptyTransactionCommits) {
  Cluster cluster(cfg4(), 1);
  cluster.bootstrap();
  // Only the implicit NS snapshot runs; it must still commit cleanly.
  auto res = cluster.run_txn(0, {});
  EXPECT_TRUE(res.committed);
  EXPECT_TRUE(res.reads.empty());
}

TEST(CoordinatorEdges, ReadOwnWriteSeesStagedValue) {
  Cluster cluster(cfg4(), 2);
  cluster.bootstrap();
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 5, 10}}).committed);
  auto res = cluster.run_txn(0, {{OpKind::kWrite, 5, 77},
                                 {OpKind::kRead, 5, 0}});
  ASSERT_TRUE(res.committed);
  ASSERT_EQ(res.reads.size(), 1u);
  EXPECT_EQ(res.reads[0], 77); // the staged value, not the committed 10
}

TEST(CoordinatorEdges, RepeatedWritesToSameItemLastWins) {
  Cluster cluster(cfg4(), 3);
  cluster.bootstrap();
  auto res = cluster.run_txn(0, {{OpKind::kWrite, 5, 1},
                                 {OpKind::kWrite, 5, 2},
                                 {OpKind::kWrite, 5, 3}});
  ASSERT_TRUE(res.committed);
  auto r = cluster.run_txn(1, {{OpKind::kRead, 5, 0}});
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.reads[0], 3);
}

// Every request delivered to a DM, in delivery order: each site's request
// handler is wrapped (DeclaredDown notices are not expected here).
struct Delivery {
  SimTime at = 0;
  SiteId site = kInvalidSite;
  Payload payload;
};

std::shared_ptr<std::vector<Delivery>> tap_requests(Cluster& cluster) {
  auto log = std::make_shared<std::vector<Delivery>>();
  for (SiteId s = 0; s < cluster.config().n_sites; ++s) {
    cluster.site(s).rpc().start([&cluster, log, s](const Envelope& env) {
      log->push_back(Delivery{cluster.now(), s, env.payload});
      cluster.site(s).dm().handle_request(env);
    });
  }
  return log;
}

template <typename T>
size_t count_of(const std::vector<Delivery>& log) {
  return static_cast<size_t>(
      std::count_if(log.begin(), log.end(), [](const Delivery& d) {
        return std::holds_alternative<T>(d.payload);
      }));
}

TEST(CoordinatorEdges, ReadOnlyOnePhaseSkipsVotes) {
  Cluster cluster(cfg4(), 4);
  cluster.bootstrap();
  auto log = tap_requests(cluster);
  auto res = cluster.run_txn(0, {{OpKind::kRead, 1, 0},
                                 {OpKind::kRead, 2, 0}});
  ASSERT_TRUE(res.committed);
  // Nothing staged: an empty prepare set, every participant released.
  EXPECT_EQ(count_of<PrepareReq>(*log), 0u);
  EXPECT_GE(count_of<CommitReq>(*log), 1u);
  EXPECT_EQ(cluster.metrics().get("dm.vote_no_unknown"), 0);
  // Locks drained everywhere.
  cluster.settle();
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(s).dm().active_txn_count(), 0u);
  }
}

TEST(CoordinatorEdges, MixedTxnStillUsesFull2pc) {
  // Two-phase commit still runs on the sites holding the writes and the NS
  // snapshot; a site that only served a read is released at the lock point.
  // Fixed latency: every message of one protocol step lands at once.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 6);
  cluster.bootstrap();
  // Site 0 reads `r` at its first copy q and writes `w`, which q does not
  // hold: q serves only a read.
  const Catalog& cat = cluster.catalog();
  auto hosts = [&cat](ItemId x, SiteId s) {
    const auto sites = cat.sites_of(x);
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  ItemId r = -1, w = -1;
  SiteId q = kInvalidSite;
  for (ItemId x = 0; x < cfg.n_items && w < 0; ++x) {
    if (hosts(x, 0)) continue;
    for (ItemId y = 0; y < cfg.n_items; ++y) {
      if (!hosts(y, cat.sites_of(x)[0])) {
        r = x;
        w = y;
        q = cat.sites_of(x)[0];
        break;
      }
    }
  }
  ASSERT_GE(w, 0);
  auto log = tap_requests(cluster);
  auto res = cluster.run_txn(0, {{OpKind::kRead, r, 0},
                                 {OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed);
  const auto n_targets = static_cast<int64_t>(cat.sites_of(w).size());
  size_t release = log->size(), first_prepare = log->size();
  size_t first_decision = log->size();
  for (size_t i = 0; i < log->size(); ++i) {
    const Delivery& d = (*log)[i];
    if (d.site == q) {
      EXPECT_FALSE(std::holds_alternative<PrepareReq>(d.payload));
    }
    if (const auto* p = std::get_if<PrepareReq>(&d.payload)) {
      // Released sites learn no outcome, so no prepare names them.
      EXPECT_EQ(std::count(p->participants.begin(), p->participants.end(), q),
                0);
      if (d.site != 0 && first_prepare == log->size()) first_prepare = i;
    }
    if (const auto* c = std::get_if<CommitReq>(&d.payload)) {
      if (d.site == q) {
        EXPECT_TRUE(c->new_counters.empty()); // a release, not a decision
        release = i;
        // Never before every operation was answered: all copies of `w`
        // are staged by the time the release lands.
        EXPECT_EQ(cluster.metrics().get("dm.writes_staged"), n_targets);
      } else if (!c->new_counters.empty() && first_decision == log->size()) {
        first_decision = i;
      }
    }
  }
  ASSERT_LT(release, log->size());
  ASSERT_LT(first_decision, log->size());
  // The release goes out with the prepares (compared with a remote one:
  // loopback latency differs) and lands before the decision.
  EXPECT_EQ((*log)[release].at, (*log)[first_prepare].at);
  EXPECT_LT(release, first_decision);
  cluster.settle();
  EXPECT_EQ(cluster.site(q).dm().active_txn_count(), 0u);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, CopierPreparesOnlyItsOwnSite) {
  Cluster cluster(cfg4(), 12);
  cluster.bootstrap();
  auto log = tap_requests(cluster);
  cluster.crash_site(3);
  cluster.run_until(cluster.now() + 800'000);
  for (ItemId x : cluster.catalog().items_at(3)) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, x, 5}}).committed);
  }
  cluster.recover_site(3);
  cluster.settle();
  ASSERT_GT(cluster.metrics().get("copier.committed"), 0);
  // Copier transactions, by the kind their physical ops carry.
  std::set<TxnId> copiers;
  for (const Delivery& d : *log) {
    if (const auto* b = std::get_if<BatchReq>(&d.payload)) {
      if (b->kind == TxnKind::kCopier) copiers.insert(b->txn);
    }
  }
  size_t copier_prepares = 0;
  for (const Delivery& d : *log) {
    const auto* p = std::get_if<PrepareReq>(&d.payload);
    if (p == nullptr || copiers.count(p->txn) == 0) continue;
    ++copier_prepares;
    // The source site only served a read: it is released, not prepared.
    EXPECT_EQ(d.site, p->coordinator);
    EXPECT_EQ(p->participants, std::vector<SiteId>{p->coordinator});
  }
  EXPECT_GT(copier_prepares, 0u);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, ReadPrefersLocalCopy) {
  Cluster cluster(cfg4(), 7);
  cluster.bootstrap();
  // Find an item hosted at site 0 and read it there: no remote data read
  // should be needed (8 loopback NS reads + 1 loopback data read).
  ItemId local_item = -1;
  for (ItemId x : cluster.catalog().items_at(0)) {
    local_item = x;
    break;
  }
  ASSERT_NE(local_item, -1);
  const uint64_t sent_before = cluster.network().messages_sent();
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kRead, local_item, 0}}).committed);
  const uint64_t sent = cluster.network().messages_sent() - sent_before;
  // NS snapshot (4 req+4 resp) + data read (2) + one-phase commit
  // (2 per participant, 1 participant) = 12 envelopes, all loopback.
  EXPECT_LE(sent, 14u);
}

TEST(CoordinatorEdges, DeadlineAbortsStuckTransaction) {
  Config cfg = cfg4();
  cfg.copier_mode = CopierMode::kOnDemand;
  cfg.unreadable_policy = UnreadablePolicy::kBlock;
  // Deadline BELOW the per-read timeout: a parked read cannot fail over
  // before the transaction's own deadline fires.
  cfg.txn_timeout = 100'000;
  Cluster cluster(cfg, 8);
  cluster.bootstrap();
  // Manufacture a parked read that can never be served: mark a copy whose
  // peers are all down.
  cluster.crash_site(1);
  cluster.crash_site(2);
  cluster.crash_site(3);
  cluster.run_until(cluster.now() + 800'000);
  ItemId item = -1;
  for (ItemId x : cluster.catalog().items_at(0)) {
    if (cluster.catalog().sites_of(x).size() > 1) {
      item = x;
      break;
    }
  }
  ASSERT_NE(item, -1);
  cluster.site(0).stable().kv().mark_unreadable(item);
  auto res = cluster.run_txn(0, {{OpKind::kRead, item, 0}});
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(res.reason, Code::kTimeout);
}

TEST(CoordinatorEdges, BlockedReadFailsOverAfterReadTimeout) {
  // Same scenario with a roomy deadline: the paper allows a blocked read
  // to "read some other copy instead"; with no other copy available the
  // logical READ fails rather than the transaction hanging.
  Config cfg = cfg4();
  cfg.copier_mode = CopierMode::kOnDemand;
  cfg.unreadable_policy = UnreadablePolicy::kBlock;
  Cluster cluster(cfg, 8);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.crash_site(2);
  cluster.crash_site(3);
  cluster.run_until(cluster.now() + 800'000);
  ItemId item = -1;
  for (ItemId x : cluster.catalog().items_at(0)) {
    if (cluster.catalog().sites_of(x).size() > 1) {
      item = x;
      break;
    }
  }
  ASSERT_NE(item, -1);
  cluster.site(0).stable().kv().mark_unreadable(item);
  auto res = cluster.run_txn(0, {{OpKind::kRead, item, 0}});
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(res.reason, Code::kNoCopyAvailable);
}

TEST(CoordinatorEdges, WalCheckpointTruncatesResolvedRecords) {
  Config cfg = cfg4();
  cfg.wal_checkpoint_threshold = 16;
  Cluster cluster(cfg, 9);
  cluster.bootstrap();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        cluster.run_txn(0, {{OpKind::kWrite, i % 30, i}}).committed);
  }
  cluster.settle();
  EXPECT_GT(cluster.metrics().get("dm.wal_checkpoints"), 0);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_LT(cluster.site(s).stable().wal().size(), 40u) << "site " << s;
  }
}

TEST(CoordinatorEdges, OutcomeLogStaysBounded) {
  Config cfg = cfg4();
  cfg.wal_checkpoint_threshold = 16; // checkpoint often => GC often
  Cluster cluster(cfg, 10);
  cluster.bootstrap();
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(
        cluster.run_txn(static_cast<SiteId>(i % 4),
                        {{OpKind::kWrite, i % 30, i}})
            .committed);
    ASSERT_TRUE(
        cluster.run_txn(static_cast<SiteId>(i % 4), {{OpKind::kRead, i % 30, 0}})
            .committed);
  }
  cluster.settle();
  // Coordinator records are dropped at ack collection, participant
  // records at WAL checkpoints, read-only txns never recorded: the log
  // stays bounded by the checkpoint threshold, not the txn count.
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_LE(cluster.site(s).stable().outcome_count(), 16u) << "site " << s;
  }
}

} // namespace
} // namespace ddbs
