// OnlineVerifier: incremental 1-STG maintenance from the history event
// stream, copier/control exclusion, out-of-order (late) write splicing,
// agreement between a streamed run and the replay check_one_sr_graph does,
// soundness against the brute-force 1-SR checker on random histories, and
// the bounded-memory guarantee of acknowledged-prefix pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "verify/history.h"
#include "verify/one_sr_checker.h"
#include "verify/online_verifier.h"

namespace ddbs {
namespace {

// Synthetic event-stream driver: builds TxnRecords by hand and feeds them
// through the HistorySink interface exactly as the recorder would.
struct Stream {
  Config cfg;
  OnlineVerifier v{cfg};
  SimTime clock = 1'000;

  TxnRecord rec(TxnId t, TxnKind kind = TxnKind::kUser) {
    TxnRecord r;
    r.txn = t;
    r.kind = kind;
    r.commit_time = clock += 1'000;
    return r;
  }
  static ReadEvent read(ItemId item, TxnId from, uint64_t counter) {
    return ReadEvent{0, item, from, counter};
  }
  static WriteEvent write(ItemId item, uint64_t counter, Value val = 0,
                          bool copier = false) {
    return WriteEvent{0, item, counter, val, copier};
  }
};

TEST(OnlineVerifier, ReadFromAndWriteOrderEdges) {
  Stream s;
  TxnRecord w1 = s.rec(1);
  w1.writes.push_back(Stream::write(7, 1));
  s.v.on_commit(w1);

  TxnRecord r2 = s.rec(2);
  r2.reads.push_back(Stream::read(7, /*from=*/1, /*counter=*/1));
  s.v.on_commit(r2);

  TxnRecord w3 = s.rec(3);
  w3.writes.push_back(Stream::write(7, 2));
  s.v.on_commit(w3);

  EXPECT_FALSE(s.v.graph_has_cycle());
  EXPECT_EQ(s.v.graph_node_count(), 3u);
  EXPECT_EQ(s.v.commits_seen(), 3u);
}

TEST(OnlineVerifier, CopiersAndControlTxnsStayOutOfTheGraph) {
  Stream s;
  TxnRecord user = s.rec(1);
  user.writes.push_back(Stream::write(3, 1));
  s.v.on_commit(user);

  TxnRecord copier = s.rec(2, TxnKind::kCopier);
  copier.writes.push_back(Stream::write(3, 1)); // refresh of the same version
  s.v.on_commit(copier);

  TxnRecord up = s.rec(3, TxnKind::kControlUp);
  up.writes.push_back(Stream::write(ns_item(1), 5));
  s.v.on_commit(up);

  TxnRecord down = s.rec(4, TxnKind::kControlDown);
  down.writes.push_back(Stream::write(ns_item(2), 6));
  s.v.on_commit(down);

  // A user write installed with copier semantics (e.g. spool replay) is
  // excluded even though the transaction itself is a graph node.
  TxnRecord mixed = s.rec(5);
  mixed.writes.push_back(Stream::write(3, 1, 0, /*copier=*/true));
  s.v.on_commit(mixed);

  EXPECT_EQ(s.v.graph_node_count(), 2u); // txn 1 and txn 5 only
  EXPECT_EQ(s.v.graph_edge_count(), 0u);
  EXPECT_FALSE(s.v.graph_has_cycle());
  EXPECT_EQ(s.v.commits_seen(), 5u);
}

TEST(OnlineVerifier, LateWriteSplicesChainAndRetargetsReads) {
  Stream s;
  // Writer 1 installs counter 1; reader 10 observes it; writer 3 installs
  // counter 3. Read-before so far: 10 -> 3.
  TxnRecord w1 = s.rec(1);
  w1.writes.push_back(Stream::write(5, 1));
  s.v.on_commit(w1);
  TxnRecord r10 = s.rec(10);
  r10.reads.push_back(Stream::read(5, 1, 1));
  s.v.on_commit(r10);
  TxnRecord w3 = s.rec(3);
  w3.writes.push_back(Stream::write(5, 3));
  s.v.on_commit(w3);
  const size_t edges_before = s.v.graph_edge_count();

  // Counter 2 lands late (WAL redo after recovery): the chain must splice
  // 1 -> 2 -> 3 and the read that observed counter 1 must now also point
  // before writer 2. All new edges respect commit order, so still acyclic.
  TxnRecord w2 = s.rec(2);
  w2.writes.push_back(Stream::write(5, 2));
  s.v.on_late_write(w2, w2.writes.back());

  EXPECT_GT(s.v.graph_edge_count(), edges_before);
  EXPECT_FALSE(s.v.graph_has_cycle());
}

TEST(OnlineVerifier, ReadBeforeCycleIsCaught) {
  Stream s;
  // Classic lost-update shape: both txns read version 1 of item 9, then
  // both install writes -- whichever writer is ordered first, the other's
  // read-before edge closes the cycle.
  TxnRecord w0 = s.rec(1);
  w0.writes.push_back(Stream::write(9, 1));
  s.v.on_commit(w0);

  TxnRecord a = s.rec(2);
  a.reads.push_back(Stream::read(9, 1, 1));
  a.writes.push_back(Stream::write(9, 2));
  s.v.on_commit(a);

  TxnRecord b = s.rec(3);
  b.reads.push_back(Stream::read(9, 1, 1));
  b.writes.push_back(Stream::write(9, 3));
  s.v.on_commit(b);

  EXPECT_TRUE(s.v.graph_has_cycle());
  const std::vector<TxnId>& c = s.v.cycle_witness();
  ASSERT_GE(c.size(), 3u);
  EXPECT_EQ(c.front(), c.back());
}

// ---------------------------------------------------------------------------
// Streamed verdict vs replay vs brute force on random small histories.

// A random well-formed history of at most 8 user transactions over three
// items: one writer per (item, counter), counters drawn out of commit
// order, every read observing an existing version or (0, 0), and no
// transaction reading its own write (the brute force models a
// transaction's reads as happening before its writes).
History random_history(Rng& rng) {
  constexpr ItemId kItems[] = {100, 101, 102};
  const int n = static_cast<int>(rng.uniform(2, 8));
  History h;
  std::vector<std::vector<std::pair<uint64_t, TxnId>>> versions(3);
  for (int i = 0; i < n; ++i) {
    TxnRecord t;
    t.txn = static_cast<TxnId>(i + 1);
    t.commit_time = 1'000 * (i + 1);
    for (size_t x = 0; x < 3; ++x) {
      if (!rng.bernoulli(0.35)) continue;
      // Unused counter in 1..16: a later commit may install an earlier
      // version, the shape WAL redo and spool replay produce.
      uint64_t c = 0;
      do {
        c = static_cast<uint64_t>(rng.uniform(1, 16));
      } while (std::any_of(versions[x].begin(), versions[x].end(),
                           [c](const auto& v) { return v.first == c; }));
      versions[x].emplace_back(c, t.txn);
      t.writes.push_back(WriteEvent{0, kItems[x], c, 0, false});
    }
    h.txns.push_back(std::move(t));
  }
  for (TxnRecord& t : h.txns) {
    for (size_t x = 0; x < 3; ++x) {
      if (!rng.bernoulli(0.4)) continue;
      std::vector<std::pair<uint64_t, TxnId>> seen = {{0, 0}};
      for (const auto& v : versions[x]) {
        if (v.second != t.txn) seen.push_back(v);
      }
      const auto& [c, w] = seen[static_cast<size_t>(
          rng.uniform(0, static_cast<int64_t>(seen.size()) - 1))];
      t.reads.push_back(ReadEvent{0, kItems[x], w, c});
    }
  }
  return h;
}

// Streams `h` the way the recorder does when participant applies and redo
// land after the commit: each record commits with a random subset of its
// writes, and the rest arrive later through on_late_write, shuffled and
// interleaved with later commits.
void stream_with_late_writes(const History& h, Rng& rng, OnlineVerifier& v) {
  std::vector<std::pair<const TxnRecord*, WriteEvent>> late;
  auto deliver_one = [&]() {
    const size_t k = static_cast<size_t>(
        rng.uniform(0, static_cast<int64_t>(late.size()) - 1));
    std::swap(late[k], late.back());
    v.on_late_write(*late.back().first, late.back().second);
    late.pop_back();
  };
  for (const TxnRecord& t : h.txns) {
    TxnRecord at_commit = t;
    at_commit.writes.clear();
    for (const WriteEvent& w : t.writes) {
      if (rng.bernoulli(0.5)) {
        at_commit.writes.push_back(w);
      } else {
        late.emplace_back(&t, w);
      }
    }
    v.on_commit(at_commit);
    while (!late.empty() && rng.bernoulli(0.3)) deliver_one();
  }
  while (!late.empty()) deliver_one();
}

TEST(OnlineVerifier, StreamMatchesReplayAndReplayIsSoundOnRandomHistories) {
  int acyclic = 0, cyclic = 0;
  for (uint64_t seed = 1; seed <= 10'000; ++seed) {
    Rng rng(seed);
    const History h = random_history(rng);
    OnlineVerifier streamed{Config{}};
    stream_with_late_writes(h, rng, streamed);
    const CheckReport replay = check_one_sr_graph(h);
    ASSERT_EQ(streamed.graph_has_cycle(), !replay.ok) << "seed " << seed;
    if (replay.ok) {
      ++acyclic;
      const BruteForceReport bf = check_one_sr_bruteforce(h);
      ASSERT_TRUE(bf.applicable) << "seed " << seed;
      ASSERT_TRUE(bf.one_sr) << "seed " << seed;
    } else {
      ++cyclic;
    }
  }
  // Both verdicts must be exercised, or the test proves nothing (these
  // seeds give 2,864 acyclic and 7,136 cyclic histories).
  EXPECT_GT(acyclic, 1'000);
  EXPECT_GT(cyclic, 1'000);
}

// ---------------------------------------------------------------------------
// Live cluster and pruning.

Config online_config() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 24;
  cfg.replication_degree = 3;
  cfg.record_history = true;
  cfg.online_verify = true;
  return cfg;
}

// Passes the stream on to the verifier and keeps its own copy, in the
// order a sink-less recorder's view() holds it: the streaming recorder
// keeps no events to replay.
class TeeSink : public HistorySink {
 public:
  explicit TeeSink(HistorySink& next) : next_(next) {}
  void on_commit(const TxnRecord& rec) override {
    index_.emplace(rec.txn, h_.txns.size());
    h_.txns.push_back(rec);
    next_.on_commit(rec);
  }
  void on_late_read(const TxnRecord& rec, const ReadEvent& r) override {
    h_.txns[index_.at(rec.txn)].reads.push_back(r);
    next_.on_late_read(rec, r);
  }
  void on_late_write(const TxnRecord& rec, const WriteEvent& w) override {
    h_.txns[index_.at(rec.txn)].writes.push_back(w);
    next_.on_late_write(rec, w);
  }
  History history() const {
    History h = h_;
    std::sort(h.txns.begin(), h.txns.end(),
              [](const TxnRecord& a, const TxnRecord& b) {
                if (a.commit_time != b.commit_time)
                  return a.commit_time < b.commit_time;
                return a.txn < b.txn;
              });
    return h;
  }

 private:
  HistorySink& next_;
  History h_;
  std::unordered_map<TxnId, size_t> index_;
};

TEST(OnlineVerifier, LiveStreamMatchesReplayOnRealCrashRecoverRun) {
  Config cfg = online_config();
  Cluster cluster(cfg, 17);
  cluster.bootstrap();
  OnlineVerifier* v = cluster.online_verifier();
  ASSERT_NE(v, nullptr);
  TeeSink tee(*v);
  cluster.history().set_sink(&tee);

  for (ItemId i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        cluster.run_txn(0, {{OpKind::kWrite, i, 100 + i}}).committed);
  }
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  for (ItemId i = 0; i < 12; ++i) {
    (void)cluster.run_txn(0, {{OpKind::kRead, i, 0},
                              {OpKind::kWrite, i, 200 + i}});
  }
  cluster.run_until(cluster.now() + 1'200'000);
  cluster.recover_site(1);
  cluster.settle();

  EXPECT_EQ(v->checkpoint(cluster), std::nullopt);
  EXPECT_TRUE(v->quiescence(cluster).empty());
  // The live stream (commits plus late participant applies) built the
  // same graph a replay of the final history does.
  const CheckReport rep = check_one_sr_graph(tee.history());
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(v->graph_has_cycle(), !rep.ok);
  EXPECT_EQ(v->graph_node_count(), rep.nodes);
  EXPECT_GT(rep.nodes, 12u);
}

TEST(OnlineVerifier, PruneBoundsRetainedHistoryOverCrashRecoverLoop) {
  Config cfg = online_config();
  Cluster cluster(cfg, 23);
  cluster.bootstrap();
  OnlineVerifier* v = cluster.online_verifier();
  ASSERT_NE(v, nullptr);
  HistoryRecorder& rec = cluster.history();

  size_t max_retained = 0;
  uint64_t prunes = 0;
  const int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const SiteId victim = static_cast<SiteId>(1 + round % (cfg.n_sites - 1));
    for (ItemId i = 0; i < 10; ++i) {
      (void)cluster.run_txn(0, {{OpKind::kWrite, i, round * 100 + i}});
    }
    cluster.crash_site(victim);
    cluster.run_until(cluster.now() + 400'000);
    for (ItemId i = 0; i < 10; ++i) {
      (void)cluster.run_txn(0, {{OpKind::kRead, i, 0},
                                {OpKind::kWrite, i, round * 100 + 50 + i}});
    }
    cluster.run_until(cluster.now() + 1'200'000);
    cluster.recover_site(victim);
    cluster.settle();

    ASSERT_EQ(v->checkpoint(cluster), std::nullopt) << "round " << round;
    ASSERT_TRUE(v->quiescence(cluster).empty()) << "round " << round;
    max_retained = std::max(max_retained, rec.committed_count());
    if (v->maybe_prune(cluster) > 0) ++prunes;
  }

  // Without pruning the recorder would hold every commit of every round;
  // with it the retained count is bounded by one round's traffic. The
  // verifier still saw (and judged) the whole run.
  EXPECT_GT(prunes, static_cast<uint64_t>(kRounds / 2));
  EXPECT_GT(rec.total_committed(), rec.committed_count() * 2);
  EXPECT_LT(max_retained, rec.total_committed());
  EXPECT_EQ(rec.total_committed(),
            rec.committed_count() + rec.pruned_committed());
  EXPECT_EQ(v->commits_seen(), rec.total_committed());
  EXPECT_TRUE(v->pruned_any());
  // After the final prune the graph restarts empty and stays sound.
  EXPECT_FALSE(v->graph_has_cycle());
}

TEST(OnlineVerifier, LostWriteOracleSurvivesPruning) {
  Config cfg = online_config();
  Cluster cluster(cfg, 31);
  cluster.bootstrap();
  OnlineVerifier* v = cluster.online_verifier();
  ASSERT_NE(v, nullptr);

  for (ItemId i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, i, 7'000 + i}}).committed);
  }
  cluster.settle();
  ASSERT_TRUE(v->quiescence(cluster).empty());
  ASSERT_GT(v->maybe_prune(cluster), 0u);

  // Damage a replica behind the oracle's back: the records that carried
  // the maxima are pruned, but last-write tracking must still notice.
  const SiteId holder = cluster.catalog().sites_of(3).front();
  cluster.site(holder).stable().kv().install(3, 1, Version{1, 999});
  const std::vector<Violation> out = v->quiescence(cluster);
  ASSERT_FALSE(out.empty());
  bool saw_lost_write = false;
  for (const Violation& viol : out) {
    if (viol.oracle == "lost-write") saw_lost_write = true;
  }
  EXPECT_TRUE(saw_lost_write);
}

} // namespace
} // namespace ddbs
