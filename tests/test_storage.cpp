#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/spooler.h"
#include "core/cluster.h"
#include "recovery/status_tables.h"
#include "storage/stable_storage.h"

namespace ddbs {
namespace {

TEST(KvStore, CreateFindInstall) {
  KvStore kv;
  kv.create(1, 10);
  const Copy* c = kv.find(1);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 10);
  EXPECT_EQ(c->version.counter, 0u);
  EXPECT_FALSE(c->unreadable);
  kv.install(1, 20, Version{3, 99});
  c = kv.find(1);
  EXPECT_EQ(c->value, 20);
  EXPECT_EQ(c->version.counter, 3u);
  EXPECT_EQ(c->version.writer, 99u);
}

TEST(KvStore, InstallClearsMark) {
  KvStore kv;
  kv.create(1, 0);
  kv.mark_unreadable(1);
  EXPECT_TRUE(kv.find(1)->unreadable);
  kv.install(1, 5, Version{1, 7});
  EXPECT_FALSE(kv.find(1)->unreadable);
}

TEST(KvStore, InstallCreatesMissingCopy) {
  KvStore kv;
  kv.install(42, 5, Version{1, 7});
  ASSERT_TRUE(kv.exists(42));
  EXPECT_EQ(kv.find(42)->value, 5);
}

TEST(KvStore, UnreadableInventory) {
  KvStore kv;
  for (ItemId i = 0; i < 5; ++i) kv.create(i, 0);
  kv.mark_unreadable(1);
  kv.mark_unreadable(3);
  EXPECT_EQ(kv.unreadable_count(), 2u);
  EXPECT_EQ(kv.unreadable_items(), (std::vector<ItemId>{1, 3}));
  kv.clear_mark(1);
  EXPECT_EQ(kv.unreadable_count(), 1u);
}

TEST(KvStore, SparseIdsOutOfOrder) {
  KvStore kv;
  kv.create(70000, 1);
  kv.create(3, 2);
  kv.create(512, 3);
  kv.create(ns_item(0), 1);
  kv.create(ns_item(5), 1);
  EXPECT_EQ(kv.size(), 5u);
  EXPECT_EQ(kv.find(4), nullptr);
  EXPECT_EQ(kv.find(69999), nullptr);
  EXPECT_EQ(kv.find(ns_item(1)), nullptr);
  EXPECT_EQ(kv.find(70000)->value, 1);
  EXPECT_EQ(kv.find(3)->value, 2);
  EXPECT_EQ(kv.find(512)->value, 3);
  kv.mark_unreadable(70000);
  kv.mark_unreadable(3);
  EXPECT_EQ(kv.unreadable_items(), (std::vector<ItemId>{3, 70000}));
  // A copier materializes a copy the site never initialized.
  kv.install(100000, 9, Version{2, 8});
  EXPECT_EQ(kv.size(), 6u);
  EXPECT_EQ(kv.find(100000)->value, 9);
  EXPECT_EQ(kv.find(512)->value, 3);
  EXPECT_TRUE(kv.find(70000)->unreadable);
  EXPECT_EQ(kv.find(ns_item(5))->value, 1);
}

TEST(KvStore, CopyIsAnIndependentSnapshot) {
  KvStore kv;
  kv.create(7, 70);
  kv.create(2, 20);
  kv.create(ns_item(1), 1);
  const KvStore snap = kv; // what a checkpoint image takes
  kv.install(7, 71, Version{1, 5});
  kv.mark_unreadable(2);
  kv.create(11, 110);
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.find(7)->value, 70);
  EXPECT_EQ(snap.find(7)->version, Version{});
  EXPECT_FALSE(snap.find(2)->unreadable);
  EXPECT_EQ(snap.find(11), nullptr);
  EXPECT_EQ(snap.unreadable_count(), 0u);
  kv.wipe();
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.unreadable_count(), 0u);
  EXPECT_EQ(kv.find(7), nullptr);
  EXPECT_EQ(kv.find(ns_item(1)), nullptr);
  kv.create(7, 72);
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.find(7)->value, 72);
}

// Each site stores only the copies it hosts plus every NS[k].
TEST(KvStore, SiteHoldsOnlyHostedCopies) {
  Config cfg;
  cfg.n_sites = 16;
  cfg.n_items = 640;
  Cluster cluster(cfg, 1);
  cluster.bootstrap();
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    const KvStore& kv = cluster.site(s).stable().kv();
    EXPECT_EQ(kv.size(), cluster.catalog().items_at(s).size() +
                             static_cast<size_t>(cfg.n_sites));
    for (ItemId x = 0; x < cfg.n_items; ++x) {
      const auto sites = cluster.catalog().sites_of(x);
      if (std::find(sites.begin(), sites.end(), s) == sites.end()) {
        EXPECT_EQ(kv.find(x), nullptr) << "site " << s << " item " << x;
      }
    }
  }
}

TEST(VersionOrdering, LexicographicOnCounterThenWriter) {
  EXPECT_LT((Version{1, 5}), (Version{2, 1}));
  EXPECT_LT((Version{2, 1}), (Version{2, 3}));
  EXPECT_EQ((Version{2, 3}), (Version{2, 3}));
}

TEST(Wal, InDoubtTracksUnresolvedPrepares) {
  Wal wal;
  WalRecord p1{WalRecord::Kind::kPrepare, 100, TxnKind::kUser, 0, {}, {}};
  WalRecord p2{WalRecord::Kind::kPrepare, 200, TxnKind::kUser, 1, {}, {}};
  wal.append(p1);
  wal.append(p2);
  EXPECT_EQ(wal.in_doubt().size(), 2u);
  wal.append(WalRecord{WalRecord::Kind::kCommit, 100, TxnKind::kUser, 0,
                       {}, {}});
  auto d = wal.in_doubt();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].txn, 200u);
}

TEST(Wal, TruncateKeepsOnlyInDoubt) {
  Wal wal;
  wal.append(WalRecord{WalRecord::Kind::kPrepare, 1, TxnKind::kUser, 0, {}, {}});
  wal.append(WalRecord{WalRecord::Kind::kCommit, 1, TxnKind::kUser, 0, {}, {}});
  wal.append(WalRecord{WalRecord::Kind::kPrepare, 2, TxnKind::kUser, 0, {}, {}});
  wal.truncate_resolved();
  EXPECT_EQ(wal.size(), 1u);
  EXPECT_EQ(wal.records()[0].txn, 2u);
}

TEST(StableStorage, SessionCounterMonotonic) {
  StableStorage s;
  EXPECT_EQ(s.next_session_number(), 1u);
  EXPECT_EQ(s.next_session_number(), 2u);
  EXPECT_EQ(s.last_session_number(), 2u);
}

TEST(StableStorage, OutcomeLog) {
  StableStorage s;
  EXPECT_EQ(s.find_outcome(5), nullptr);
  s.record_outcome(5, OutcomeRec{true, {{1, 2}}, {}});
  const OutcomeRec* rec = s.find_outcome(5);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->committed);
  s.forget_outcome(5);
  EXPECT_EQ(s.find_outcome(5), nullptr);
}

TEST(SpoolTable, KeepsNewestPerItem) {
  SpoolTable sp;
  sp.add(2, SpoolRecord{7, 10, Version{1, 1}});
  sp.add(2, SpoolRecord{7, 20, Version{3, 2}});
  sp.add(2, SpoolRecord{7, 15, Version{2, 3}}); // older than current
  auto recs = sp.records_for(2);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].value, 20);
}

TEST(SpoolTable, PerSiteIsolationAndTrim) {
  SpoolTable sp;
  sp.add(1, SpoolRecord{7, 10, Version{1, 1}});
  sp.add(2, SpoolRecord{8, 11, Version{1, 1}});
  EXPECT_EQ(sp.total_records(), 2u);
  EXPECT_EQ(sp.records_count_for(1), 1u);
  sp.trim(1);
  EXPECT_EQ(sp.records_count_for(1), 0u);
  EXPECT_EQ(sp.records_count_for(2), 1u);
}

TEST(StatusTable, MissingListSemantics) {
  StatusTable t;
  t.ml_add(7, 2);
  t.ml_add(8, 2);
  t.ml_add(7, 3);
  EXPECT_EQ(t.ml_size(), 3u);
  EXPECT_EQ(t.ml_items_for(2), (std::vector<ItemId>{7, 8}));
  t.ml_remove(7, 2);
  EXPECT_EQ(t.ml_items_for(2), (std::vector<ItemId>{8}));
  t.ml_remove_all_for(2);
  EXPECT_TRUE(t.ml_items_for(2).empty());
  EXPECT_EQ(t.ml_items_for(3), (std::vector<ItemId>{7}));
}

TEST(StatusTable, FailLockSemantics) {
  StatusTable t;
  t.fl_add(1);
  t.fl_add(1);
  t.fl_add(9);
  EXPECT_EQ(t.fl_size(), 2u);
  t.fl_clear();
  EXPECT_EQ(t.fl_size(), 0u);
}

TEST(StatusTable, BulkInsertAndClear) {
  StatusTable t;
  t.ml_insert_bulk({{1, 0}, {2, 1}});
  EXPECT_EQ(t.ml_size(), 2u);
  t.clear();
  EXPECT_EQ(t.ml_size(), 0u);
}

} // namespace
} // namespace ddbs
