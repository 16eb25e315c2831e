// Tests of the Section-4 machinery: digraph utilities, conflict-graph SR
// check, revised 1-STG check, and the brute-force 1-SR oracle -- including
// the paper's Section-1 anomaly, which the checkers must reject.
#include <gtest/gtest.h>

#include "common/random.h"
#include "verify/one_sr_checker.h"
#include "verify/sr_checker.h"

namespace ddbs {
namespace {

TEST(Digraph, CycleDetection) {
  Digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.acyclic());
  g.add_edge(3, 1);
  auto cyc = g.find_cycle();
  ASSERT_TRUE(cyc.has_value());
  EXPECT_GE(cyc->size(), 4u); // a-b-c-a
  EXPECT_EQ(cyc->front(), cyc->back());
}

TEST(Digraph, SelfLoopIsCycle) {
  Digraph g;
  g.add_edge(1, 1);
  EXPECT_FALSE(g.acyclic());
}

TEST(Digraph, TopoOrderRespectsEdges) {
  Digraph g;
  g.add_edge(3, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 2);
  auto topo = g.topo_order();
  ASSERT_TRUE(topo.has_value());
  auto pos = [&](TxnId t) {
    return std::find(topo->begin(), topo->end(), t) - topo->begin();
  };
  EXPECT_LT(pos(3), pos(1));
  EXPECT_LT(pos(1), pos(2));
}

TEST(Digraph, TopoFailsOnCycle) {
  Digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  EXPECT_FALSE(g.topo_order().has_value());
}

// ---- helpers to hand-build histories ----

TxnRecord txn(TxnId id, TxnKind kind = TxnKind::kUser) {
  TxnRecord t;
  t.txn = id;
  t.kind = kind;
  t.commit_time = static_cast<SimTime>(id);
  return t;
}

ReadEvent rd(SiteId site, ItemId item, TxnId from, uint64_t ctr) {
  return ReadEvent{site, item, from, ctr};
}

WriteEvent wr(SiteId site, ItemId item, uint64_t ctr, Value v = 0,
              bool copier = false) {
  return WriteEvent{site, item, ctr, v, copier};
}

TEST(ConflictGraph, SerialHistoryAcyclic) {
  History h;
  auto t1 = txn(1);
  t1.writes = {wr(0, 5, 1), wr(1, 5, 1)};
  auto t2 = txn(2);
  t2.reads = {rd(0, 5, 1, 1)};
  t2.writes = {wr(0, 5, 2), wr(1, 5, 2)};
  h.txns = {t1, t2};
  const auto rep = check_conflict_graph(h);
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(ConflictGraph, LostUpdateCycleDetected) {
  // T1 reads x (initial), T2 reads x (initial), both write x: classic
  // rw-rw cycle T1->T2 (T1 read before T2's write) and T2->T1.
  History h;
  auto t1 = txn(1);
  t1.reads = {rd(0, 5, 0, 0)};
  t1.writes = {wr(0, 5, 1)};
  auto t2 = txn(2);
  t2.reads = {rd(0, 5, 0, 0)};
  t2.writes = {wr(0, 5, 2)};
  h.txns = {t1, t2};
  const auto rep = check_conflict_graph(h);
  EXPECT_FALSE(rep.ok);
}

TEST(OneSr, PaperSection1AnomalyRejected) {
  // The paper's example: Ta reads X writes Y, Tb reads Y writes X; both X
  // and Y have copies at sites 1 and 2; site 1 crashes after the reads, so
  // Ta writes only y2 and Tb writes only x2 -- "the database cannot be
  // brought up to a consistent state".
  const ItemId X = 100, Y = 200;
  History h;
  auto ta = txn(1);
  ta.reads = {rd(1, X, 0, 0)};   // Ra[x1] from initial
  ta.writes = {wr(2, Y, 1, 42)}; // Wa[y2]
  auto tb = txn(2);
  tb.reads = {rd(1, Y, 0, 0)};   // Rb[y1] from initial
  tb.writes = {wr(2, X, 1, 43)}; // Wb[x2]
  h.txns = {ta, tb};
  const auto rep = check_one_sr_graph(h);
  EXPECT_FALSE(rep.ok);
  const auto bf = check_one_sr_bruteforce(h);
  ASSERT_TRUE(bf.applicable);
  EXPECT_FALSE(bf.one_sr);
}

TEST(OneSr, SerialReplicatedHistoryAccepted) {
  const ItemId X = 100;
  History h;
  auto t1 = txn(1);
  t1.writes = {wr(0, X, 1, 10), wr(1, X, 1, 10)};
  auto t2 = txn(2);
  t2.reads = {rd(1, X, 1, 1)};
  t2.writes = {wr(0, X, 2, 20), wr(1, X, 2, 20)};
  h.txns = {t1, t2};
  EXPECT_TRUE(check_one_sr_graph(h).ok);
  const auto bf = check_one_sr_bruteforce(h);
  ASSERT_TRUE(bf.applicable);
  EXPECT_TRUE(bf.one_sr);
  EXPECT_EQ(bf.witness_order, (std::vector<TxnId>{1, 2}));
}

TEST(OneSr, CopierChainsResolveToOriginalWriter) {
  // W writes x at sites {0}; a copier refreshes x at site 1 with W's tag;
  // R reads the refreshed copy. READ-FROM must link R to W, and the
  // history is 1-SR.
  const ItemId X = 100;
  History h;
  auto w = txn(1);
  w.writes = {wr(0, X, 1, 10)};
  auto cp = txn(2, TxnKind::kCopier);
  cp.reads = {rd(0, X, 1, 1)};
  cp.writes = {wr(1, X, 1, 10, /*copier=*/true)};
  auto r = txn(3);
  r.reads = {rd(1, X, 1, 1)}; // observes W's tag through the copier
  h.txns = {w, cp, r};
  EXPECT_TRUE(check_one_sr_graph(h).ok);
  const auto bf = check_one_sr_bruteforce(h);
  ASSERT_TRUE(bf.applicable);
  EXPECT_TRUE(bf.one_sr);
}

TEST(OneSr, ReadBeforeEdgeOrdersReaderBeforeLaterWriter) {
  // R reads X from initial; W later writes X. 1-SR yes (R then W), but the
  // graph must contain R -> W, making W-first impossible.
  const ItemId X = 100;
  History h;
  auto r = txn(1);
  r.reads = {rd(0, X, 0, 0)};
  auto w = txn(2);
  w.writes = {wr(0, X, 1, 5)};
  h.txns = {r, w};
  const CheckReport rep = check_one_sr_graph(h);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.nodes, 2u);
  EXPECT_EQ(rep.edges, 1u); // R -> W, the only edge
  // Direction: if R also read Y from W (W -> R), the read-before edge
  // R -> W closes a cycle.
  const ItemId Y = 200;
  h.txns[1].writes.push_back(wr(0, Y, 1, 6));
  h.txns[0].reads.push_back(rd(0, Y, 2, 1));
  EXPECT_FALSE(check_one_sr_graph(h).ok);
}

TEST(OneSr, NonOneSrButCopySerializableCase) {
  // Two writers with disjoint copy sets of the same item (the protocol
  // forbids this; the checker must still flag it): W1 writes x_0 only,
  // W2 writes x_1 only, then R1 reads x_0 (sees W1), R2 reads x_1 (sees
  // W2) -- fine so far; add R1 reading item Y from W2 and R2 reading Y'...
  // Simplest contradiction: R reads x_0 from W1 AND x_1 from W2 in ONE
  // transaction: no serial one-copy order lets one transaction read the
  // same item from two different writers.
  const ItemId X = 100;
  History h;
  auto w1 = txn(1);
  w1.writes = {wr(0, X, 1, 10)};
  auto w2 = txn(2);
  w2.writes = {wr(1, X, 1, 20)};
  auto r = txn(3);
  r.reads = {rd(0, X, 1, 1), rd(1, X, 2, 1)};
  h.txns = {w1, w2, r};
  const auto bf = check_one_sr_bruteforce(h);
  ASSERT_TRUE(bf.applicable);
  EXPECT_FALSE(bf.one_sr);
}

TEST(OneSr, BruteForceRespectsFinalWrites) {
  // Both orders satisfy every READ-FROM (no reads at all), but the final
  // version order says W1 then W2; a witness must put W2 last.
  const ItemId X = 100;
  History h;
  auto w1 = txn(1);
  w1.writes = {wr(0, X, 1, 10)};
  auto w2 = txn(2);
  w2.writes = {wr(0, X, 2, 20)};
  h.txns = {w1, w2};
  const auto bf = check_one_sr_bruteforce(h);
  ASSERT_TRUE(bf.applicable);
  ASSERT_TRUE(bf.one_sr);
  EXPECT_EQ(bf.witness_order.back(), 2u);
}

TEST(OneSr, NotApplicableWhenTooLarge) {
  History h;
  for (TxnId i = 1; i <= 12; ++i) {
    auto t = txn(i);
    t.writes = {wr(0, 100, i, 1)};
    h.txns.push_back(t);
  }
  const auto bf = check_one_sr_bruteforce(h, 8);
  EXPECT_FALSE(bf.applicable);
}

TEST(OneSr, ControlTransactionsIgnored) {
  const ItemId X = 100;
  History h;
  auto w = txn(1);
  w.writes = {wr(0, X, 1, 10)};
  auto ctl = txn(2, TxnKind::kControlUp);
  ctl.writes = {wr(0, ns_item(1), 1, 5)};
  ctl.reads = {rd(0, ns_item(0), 0, 0)};
  h.txns = {w, ctl};
  const CheckReport rep = check_one_sr_graph(h);
  EXPECT_EQ(rep.nodes, 1u); // only the user txn
  EXPECT_TRUE(rep.ok);
}

TEST(SrOracle, SerialPhysicalHistoryAccepted) {
  History h;
  auto t1 = txn(1);
  t1.writes = {wr(0, 5, 1)};
  auto t2 = txn(2);
  t2.reads = {rd(0, 5, 1, 1)};
  t2.writes = {wr(0, 5, 2)};
  h.txns = {t1, t2};
  const auto rep = check_sr_bruteforce(h);
  ASSERT_TRUE(rep.applicable);
  EXPECT_TRUE(rep.serializable);
  EXPECT_EQ(rep.witness_order, (std::vector<TxnId>{1, 2}));
}

TEST(SrOracle, LostUpdateRejected) {
  History h;
  auto t1 = txn(1);
  t1.reads = {rd(0, 5, 0, 0)};
  t1.writes = {wr(0, 5, 1)};
  auto t2 = txn(2);
  t2.reads = {rd(0, 5, 0, 0)};
  t2.writes = {wr(0, 5, 2)};
  h.txns = {t1, t2};
  const auto rep = check_sr_bruteforce(h);
  ASSERT_TRUE(rep.applicable);
  EXPECT_FALSE(rep.serializable);
}

TEST(SrOracle, AgreesWithConflictGraphOnRandomHistories) {
  // DSR (CG-acyclic) is a sufficient condition: whenever the CG is
  // acyclic, the oracle must say serializable (Theorem 1 direction).
  Rng rng(33);
  for (int round = 0; round < 30; ++round) {
    History h;
    uint64_t counters[3] = {0, 0, 0};
    for (TxnId t = 1; t <= 5; ++t) {
      TxnRecord rec = txn(t);
      const int ops = static_cast<int>(rng.uniform(1, 2));
      for (int i = 0; i < ops; ++i) {
        const ItemId item = rng.uniform(0, 2);
        if (rng.bernoulli(0.5)) {
          // Read the current version of the copy.
          const uint64_t ctr = counters[item];
          // Find who wrote that counter (0 = initial).
          TxnId from = 0;
          for (const auto& prev : h.txns) {
            for (const auto& w : prev.writes) {
              if (w.item == item && w.counter == ctr) from = prev.txn;
            }
          }
          rec.reads.push_back(rd(0, item, from, ctr));
        } else {
          rec.writes.push_back(wr(0, item, ++counters[item]));
        }
      }
      h.txns.push_back(std::move(rec));
    }
    const auto cg = check_conflict_graph(h);
    const auto oracle = check_sr_bruteforce(h);
    ASSERT_TRUE(oracle.applicable);
    if (cg.ok) {
      EXPECT_TRUE(oracle.serializable) << "round " << round;
    }
  }
}

TEST(SrOracle, NotApplicableWhenLarge) {
  History h;
  for (TxnId t = 1; t <= 10; ++t) h.txns.push_back(txn(t));
  EXPECT_FALSE(check_sr_bruteforce(h, 8).applicable);
}

TEST(HistoryRecorder, AbortErasesAndCommitOrders) {
  HistoryRecorder rec;
  rec.set_kind(1, TxnKind::kUser);
  rec.add_read(1, 0, 5, 0, 0);
  rec.commit(1, 100);
  rec.set_kind(2, TxnKind::kUser);
  rec.add_write(2, 0, 5, 1, 9, false);
  rec.abort(2);
  rec.set_kind(3, TxnKind::kUser);
  rec.commit(3, 50);
  const History h = rec.snapshot();
  ASSERT_EQ(h.txns.size(), 2u);
  EXPECT_EQ(h.txns[0].txn, 3u); // earlier commit time first
  EXPECT_EQ(h.txns[1].txn, 1u);
  EXPECT_EQ(rec.committed_count(), 2u);
}

// Keeps what a sink is handed: full records at commit, then each late
// event with the record it came with.
struct CollectingSink : HistorySink {
  std::vector<TxnRecord> commits;
  std::vector<std::pair<TxnRecord, ReadEvent>> late_reads;
  std::vector<std::pair<TxnRecord, WriteEvent>> late_writes;
  void on_commit(const TxnRecord& rec) override { commits.push_back(rec); }
  void on_late_read(const TxnRecord& rec, const ReadEvent& r) override {
    late_reads.emplace_back(rec, r);
  }
  void on_late_write(const TxnRecord& rec, const WriteEvent& w) override {
    late_writes.emplace_back(rec, w);
  }
};

// Two commits, each with a read and a write, then a late write and a late
// read on the first.
void record_two_with_late_events(HistoryRecorder& rec) {
  rec.set_kind(1, TxnKind::kUser);
  rec.add_read(1, 0, 5, 0, 0);
  rec.add_write(1, 0, 5, 1, 9, false);
  rec.commit(1, 100);
  rec.set_kind(2, TxnKind::kCopier);
  rec.add_read(2, 1, 6, 0, 0);
  rec.add_write(2, 1, 6, 1, 7, true);
  rec.commit(2, 200);
  rec.add_write(1, 2, 5, 1, 9, false);
  rec.add_read(1, 2, 8, 0, 0);
}

TEST(HistoryRecorder, SinkGetsTheRecordsAndTheRecorderKeepsStubs) {
  HistoryRecorder rec;
  CollectingSink sink;
  rec.set_sink(&sink);
  record_two_with_late_events(rec);
  ASSERT_EQ(sink.commits.size(), 2u);
  EXPECT_EQ(sink.commits[0].reads.size(), 1u);
  EXPECT_EQ(sink.commits[0].writes.size(), 1u);
  EXPECT_EQ(sink.commits[1].kind, TxnKind::kCopier);
  // Late events reach the sink with the stub: kind and commit time.
  ASSERT_EQ(sink.late_writes.size(), 1u);
  EXPECT_EQ(sink.late_writes[0].first.txn, 1u);
  EXPECT_EQ(sink.late_writes[0].first.kind, TxnKind::kUser);
  EXPECT_EQ(sink.late_writes[0].first.commit_time, 100);
  EXPECT_EQ(sink.late_writes[0].second.site, 2);
  ASSERT_EQ(sink.late_reads.size(), 1u);
  EXPECT_EQ(sink.late_reads[0].first.commit_time, 100);
  EXPECT_EQ(sink.late_reads[0].second.item, 8);
  // The recorder retains no records, only their stubs.
  EXPECT_EQ(rec.committed_count(), 2u);
  EXPECT_TRUE(rec.view().txns.empty());
  EXPECT_EQ(rec.pending_count(), 0u);
  // Pruning keeps its counts and drops the earliest stub first; the
  // survivor's stub still carries late events.
  rec.prune_committed_prefix(1);
  EXPECT_EQ(rec.committed_count(), 1u);
  EXPECT_EQ(rec.total_committed(), 2u);
  EXPECT_EQ(rec.pruned_committed(), 1u);
  rec.add_write(2, 3, 6, 1, 7, true);
  ASSERT_EQ(sink.late_writes.size(), 2u);
  EXPECT_EQ(sink.late_writes[1].first.commit_time, 200);
  rec.prune_committed_prefix(5);
  EXPECT_EQ(rec.committed_count(), 0u);
  EXPECT_EQ(rec.pruned_committed(), 2u);
}

TEST(HistoryRecorder, WithoutASinkViewKeepsEveryEvent) {
  HistoryRecorder rec;
  record_two_with_late_events(rec);
  const History& h = rec.view();
  ASSERT_EQ(h.txns.size(), 2u);
  EXPECT_EQ(h.txns[0].txn, 1u);
  EXPECT_EQ(h.txns[0].reads.size(), 2u);
  EXPECT_EQ(h.txns[0].writes.size(), 2u);
  EXPECT_EQ(h.txns[1].kind, TxnKind::kCopier);
  EXPECT_EQ(h.txns[1].writes.size(), 1u);
  EXPECT_TRUE(h.txns[1].writes[0].copier_install);
}

TEST(HistoryRecorder, DisabledRecordsNothing) {
  HistoryRecorder rec;
  rec.set_enabled(false);
  rec.add_read(1, 0, 5, 0, 0);
  rec.commit(1, 1);
  EXPECT_EQ(rec.committed_count(), 0u);
}

} // namespace
} // namespace ddbs
