// Coordinator edge cases: empty transactions, read-own-write, the commit's
// prepare set (read-only sites released at the lock point) and its early
// votes, the parallel no-wait round and its retracts, chained dispatch on
// conflict (hop order, budgets, relaunch, aborts), the rule that a user
// lock request waits behind holders but never behind a waiter,
// transaction deadlines, read failover order, and the WAL
// checkpointing + outcome-log hygiene those paths rely on.
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
  SiteId from = kInvalidSite;
};

std::shared_ptr<std::vector<Delivery>> tap_requests(Cluster& cluster) {
  auto log = std::make_shared<std::vector<Delivery>>();
  for (SiteId s = 0; s < cluster.config().n_sites; ++s) {
    cluster.site(s).rpc().start([&cluster, log, s](const Envelope& env) {
      log->push_back(Delivery{cluster.now(), s, env.payload, env.from});
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

bool hosts(const Catalog& cat, ItemId x, SiteId s) {
  const auto sites = cat.sites_of(x);
  return std::find(sites.begin(), sites.end(), s) != sites.end();
}

TEST(CoordinatorEdges, MixedTxnVotesWithItsBatches) {
  // Every write target votes with its batch, so no remote site gets a
  // PrepareReq; a site that only served a read is still released at the
  // lock point. Fixed latency: every message of one protocol step lands at
  // once.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 6);
  cluster.bootstrap();
  // Site 0 reads `r` at its first copy q and writes `w`, which q does not
  // hold: q serves only a read.
  const Catalog& cat = cluster.catalog();
  ItemId r = -1, w = -1;
  SiteId q = kInvalidSite;
  for (ItemId x = 0; x < cfg.n_items && w < 0; ++x) {
    if (hosts(cat, x, 0)) continue;
    for (ItemId y = 0; y < cfg.n_items; ++y) {
      if (!hosts(cat, y, cat.sites_of(x)[0])) {
        r = x;
        w = y;
        q = cat.sites_of(x)[0];
        break;
      }
    }
  }
  ASSERT_GE(w, 0);
  // The prepare set: every copy of `w` and the NS snapshot's site 0.
  std::vector<SiteId> prepared(cat.sites_of(w).begin(), cat.sites_of(w).end());
  if (!hosts(cat, w, 0)) prepared.insert(prepared.begin(), 0);
  auto log = tap_requests(cluster);
  auto res = cluster.run_txn(0, {{OpKind::kRead, r, 0},
                                 {OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed);
  cluster.settle();
  const auto n_targets = static_cast<int64_t>(cat.sites_of(w).size());
  size_t release = log->size(), first_decision = log->size();
  SimTime last_batch = 0;
  int64_t voting_batches = 0;
  for (size_t i = 0; i < log->size(); ++i) {
    const Delivery& d = (*log)[i];
    if (const auto* b = std::get_if<BatchReq>(&d.payload)) {
      if (!b->ops.empty() && is_ns_item(b->ops[0].item)) {
        // The NS snapshot: site 0 votes with it.
        EXPECT_EQ(b->prepare, std::vector<SiteId>{0});
        continue;
      }
      last_batch = d.at;
      if (d.site == q) {
        EXPECT_TRUE(b->prepare.empty()); // q is not prepared
      } else if (!b->prepare.empty()) {
        EXPECT_EQ(b->prepare, prepared);
        ++voting_batches;
      }
    }
    if (const auto* p = std::get_if<PrepareReq>(&d.payload)) {
      // Only the coordinator's own site can lack an early vote: it votes
      // early only when it also holds a copy of `w`.
      EXPECT_EQ(d.site, 0);
      EXPECT_FALSE(hosts(cat, w, 0));
      EXPECT_EQ(p->participants, prepared);
    }
    if (const auto* c = std::get_if<CommitReq>(&d.payload)) {
      if (d.site == q) {
        EXPECT_TRUE(c->new_counters.empty()); // a release, not a decision
        release = i;
      } else if (!c->new_counters.empty() && d.site != 0 &&
                 first_decision == log->size()) {
        first_decision = i;
      }
    }
  }
  EXPECT_EQ(cluster.metrics().get("txn.early_votes"), voting_batches);
  EXPECT_EQ(voting_batches, n_targets);
  ASSERT_LT(release, log->size());
  ASSERT_LT(first_decision, log->size());
  // Released at the lock point: after every batch was served, and no later
  // than the first remote decision, which leaves in the same step when
  // every prepared site voted early.
  EXPECT_GT((*log)[release].at, last_batch);
  EXPECT_LE((*log)[release].at, (*log)[first_decision].at);
  EXPECT_EQ(cluster.site(q).dm().active_txn_count(), 0u);
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, LaterRequestVoidsEarlyVote) {
  // Site 0 reads `r` (copies at 1, 2, 3) and writes `w` (copies at 0, 2,
  // 3). Site 1 is dead but not yet declared, so the read times out there
  // and fails over to site 2 after site 2 voted with its batch: that read
  // voids site 2's vote, and site 2 alone gets a PrepareReq.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 13);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  ItemId r = -1, w = -1;
  for (ItemId x = 0; x < cfg.n_items; ++x) {
    if (r < 0 && !hosts(cat, x, 0)) r = x;
    if (w < 0 && !hosts(cat, x, 1)) w = x;
  }
  ASSERT_GE(r, 0);
  ASSERT_GE(w, 0);
  ASSERT_EQ(cat.sites_of(r)[1], 2);
  ASSERT_TRUE(hosts(cat, w, 2));
  cluster.site(2).stable().kv().install(r, 42, Version{1, 0});
  cluster.site(3).stable().kv().install(r, 42, Version{1, 0});
  auto log = tap_requests(cluster);
  cluster.crash_site(1);
  auto res = cluster.run_txn(0, {{OpKind::kRead, r, 0},
                                 {OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_EQ(res.reads[0], 42); // served by site 2
  EXPECT_EQ(cluster.metrics().get("txn.early_votes"), 3);
  std::vector<SiteId> prepares;
  for (const Delivery& d : *log) {
    if (std::holds_alternative<PrepareReq>(d.payload)) {
      prepares.push_back(d.site);
    }
  }
  EXPECT_EQ(prepares, std::vector<SiteId>{2});
  cluster.recover_site(1);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, BatchWithFailedOpDoesNotVote) {
  // Site a holds `r` and `w`; its batch stages the write but its read of
  // the unreadable `r` fails, so it does not vote and is asked later.
  Config cfg = cfg4();
  cfg.unreadable_policy = UnreadablePolicy::kRedirect;
  Cluster cluster(cfg, 14);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  ItemId r = -1, w = -1;
  for (ItemId x = 0; x < cfg.n_items && w < 0; ++x) {
    if (hosts(cat, x, 0)) continue;
    for (ItemId y = 0; y < cfg.n_items; ++y) {
      if (y != x && hosts(cat, y, cat.sites_of(x)[0])) {
        r = x;
        w = y;
        break;
      }
    }
  }
  ASSERT_GE(w, 0);
  const SiteId a = cat.sites_of(r)[0];
  cluster.site(a).stable().kv().mark_unreadable(r);
  auto log = tap_requests(cluster);
  auto res = cluster.run_txn(0, {{OpKind::kRead, r, 0},
                                 {OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  bool listed = false, asked = false;
  for (const Delivery& d : *log) {
    if (d.site != a) continue;
    if (const auto* b = std::get_if<BatchReq>(&d.payload)) {
      listed = listed || !b->prepare.empty();
    }
    asked = asked || std::holds_alternative<PrepareReq>(d.payload);
  }
  EXPECT_TRUE(listed);
  EXPECT_TRUE(asked);
  // Every other write target voted with its batch.
  int64_t others = 0;
  for (SiteId s : cat.sites_of(w)) others += s != a ? 1 : 0;
  EXPECT_EQ(cluster.metrics().get("txn.early_votes"), others);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

// RPC id of hand-delivered requests: no endpoint ever issues it, so their
// responses match no pending request.
constexpr uint64_t kNoReply = ~0ull;

// Hold an exclusive lock on `item` at site `s` for `hold` sim-us, through a
// hand-made transaction that stages a write there and is then aborted.
void hold_lock(Cluster& cluster, SiteId s, ItemId item, SimTime hold) {
  const TxnId blocker = make_txn_id(s, 1'000'000);
  BatchReq req;
  req.txn = blocker;
  req.coordinator = s;
  req.expected_session = cluster.site(s).state().session;
  BatchOp op;
  op.op = BatchOpKind::kWrite;
  op.item = item;
  op.value = -1;
  req.ops.push_back(op);
  cluster.site(s).dm().handle_request(Envelope{kNoReply, false, s, s, req});
  ASSERT_EQ(cluster.site(s).dm().locks().holders_of(item).size(), 1u);
  cluster.scheduler().after(hold, [&cluster, s, blocker]() {
    cluster.site(s).dm().handle_request(
        Envelope{kNoReply, false, s, s, AbortReq{blocker}});
  });
}

// An item site 0 does not hold (so its coordinator prepares by message),
// whose last copy is where the lock is held.
ItemId remote_item(const Catalog& cat, ItemId n_items) {
  for (ItemId x = 0; x < n_items; ++x) {
    if (!hosts(cat, x, 0)) return x;
  }
  return -1;
}

TEST(CoordinatorEdges, EarlyVoterOutwaitsItsTerminationTimer) {
  // The first two copies of `w` vote with their batches; the last copy's
  // batch queues 100 ms for a lock, past the voters' 60 ms termination
  // timers. Their OutcomeQuery reaches the coordinator's site while its TM
  // still runs the transaction, so the answer must be "unknown", not
  // presumed abort: the transaction commits and every copy applies it.
  Config cfg = cfg4();
  Cluster cluster(cfg, 15);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = remote_item(cat, cfg.n_items);
  ASSERT_GE(w, 0);
  const SiteId last = cat.sites_of(w).back();
  hold_lock(cluster, last, w, 100'000);
  auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_GE(cluster.metrics().get("dm.termination_queries"), 2);
  EXPECT_EQ(cluster.metrics().get("dm.termination_aborted"), 0);
  cluster.settle();
  for (SiteId s : cat.sites_of(w)) {
    EXPECT_EQ(cluster.site(s).stable().kv().find(w)->value, 9) << "site " << s;
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, CoordinatorCrashAfterEarlyVotesAborts) {
  // As above, but the coordinator's site crashes while the last copy's
  // batch waits. The early voters are in doubt until that site is back;
  // then presumed abort resolves them and their locks are free again.
  Config cfg = cfg4();
  Cluster cluster(cfg, 16);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = remote_item(cat, cfg.n_items);
  ASSERT_GE(w, 0);
  const SiteId last = cat.sites_of(w).back();
  hold_lock(cluster, last, w, 100'000);
  bool done = false;
  cluster.submit(0, {{OpKind::kWrite, w, 9}},
                 [&done](const TxnResult&) { done = true; });
  cluster.run_until(cluster.now() + 30'000);
  EXPECT_EQ(cluster.metrics().get("txn.early_votes"), 2);
  cluster.crash_site(0);
  cluster.run_until(cluster.now() + 200'000);
  cluster.recover_site(0);
  cluster.settle();
  EXPECT_FALSE(done);
  EXPECT_GE(cluster.metrics().get("dm.termination_aborted") +
                cluster.metrics().get("dm.indoubt_aborted"),
            2);
  for (SiteId s : cat.sites_of(w)) {
    EXPECT_EQ(cluster.site(s).dm().active_txn_count(), 0u) << "site " << s;
    EXPECT_TRUE(cluster.site(s).dm().locks().holders_of(w).empty())
        << "site " << s;
    EXPECT_EQ(cluster.site(s).stable().kv().find(w)->value, 0) << "site " << s;
  }
  // The item is writable again.
  EXPECT_TRUE(cluster.run_txn(1, {{OpKind::kWrite, w, 7}}).committed);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, DurableVoteWaitsForItsFlush) {
  // Under the durable engine a yes vote promises the prepare record is on
  // the medium, so a voting batch answers one disk write later than the
  // same batch without a prepare set. Fixed latency isolates the disk.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  cfg.storage_engine = StorageEngineKind::kDurable;
  cfg.disk_latency_us = 5'000;
  Cluster cluster(cfg, 17);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = remote_item(cat, cfg.n_items);
  ASSERT_GE(w, 0);
  const SiteId p = cat.sites_of(w).front();
  auto round_trip = [&](uint64_t seq, bool vote) {
    BatchReq req;
    req.txn = make_txn_id(0, seq);
    req.coordinator = 0;
    req.expected_session = cluster.site(p).state().session;
    BatchOp op;
    op.op = BatchOpKind::kWrite;
    op.item = w;
    op.value = 5;
    req.ops.push_back(op);
    if (vote) req.prepare = {0, p};
    const SimTime sent = cluster.now();
    SimTime answered = kNoTime;
    bool voted = false;
    cluster.site(0).rpc().send_request(
        p, req, cfg.rpc_timeout,
        [&](Code code, const Payload* payload) {
          answered = cluster.now();
          voted = code == Code::kOk && std::get<BatchResp>(*payload).vote_yes;
        });
    cluster.run_until(cluster.now() + 50'000);
    cluster.site(p).dm().handle_request(
        Envelope{kNoReply, false, 0, p, AbortReq{req.txn}});
    EXPECT_NE(answered, kNoTime);
    EXPECT_EQ(voted, vote);
    return answered - sent;
  };
  const SimTime plain = round_trip(1'000'000, false);
  const SimTime voting = round_trip(1'000'001, true);
  EXPECT_GE(voting - plain, cfg.disk_latency_us);
  EXPECT_GE(cluster.metrics().get("disk.writes"), 1);
}

// ---------------------------------------------------------------------------
// Chained dispatch. Site 0 coordinates; with four sites and three copies per
// item, `item_at` finds an item on exactly the given sites.

ItemId item_at(const Catalog& cat, ItemId n_items, std::vector<SiteId> sites) {
  for (ItemId x = 0; x < n_items; ++x) {
    const auto at = cat.sites_of(x);
    if (std::vector<SiteId>(at.begin(), at.end()) == sites) return x;
  }
  return -1;
}

// The data batches of user transaction `txn` (NS reads excluded) that are
// not part of its parallel round, in delivery order: chain hops and reads
// sent alone.
std::vector<const Delivery*> data_batches(const std::vector<Delivery>& log,
                                          TxnId txn) {
  std::vector<const Delivery*> out;
  for (const Delivery& d : log) {
    const auto* b = std::get_if<BatchReq>(&d.payload);
    if (b == nullptr || b->txn != txn || b->ops.empty() ||
        is_ns_item(b->ops[0].item) || b->dispatch == Dispatch::kNoWait) {
      continue;
    }
    out.push_back(&d);
  }
  return out;
}

// The parallel round's batches of `txn`, in delivery order.
std::vector<const Delivery*> round_batches(const std::vector<Delivery>& log,
                                           TxnId txn) {
  std::vector<const Delivery*> out;
  for (const Delivery& d : log) {
    const auto* b = std::get_if<BatchReq>(&d.payload);
    if (b != nullptr && b->txn == txn && b->dispatch == Dispatch::kNoWait) {
      out.push_back(&d);
    }
  }
  return out;
}

TxnId txn_of(const std::vector<Delivery>& log, SiteId site) {
  for (const Delivery& d : log) {
    const auto* b = std::get_if<BatchReq>(&d.payload);
    if (b != nullptr && d.site == site && !b->ops.empty() &&
        !is_ns_item(b->ops[0].item)) {
      return b->txn;
    }
  }
  return 0;
}

TEST(CoordinatorEdges, UncontendedWriterCommitsInOneRound) {
  // No site is busy: every batch is granted in the parallel round and
  // votes there, so the transaction decides one round trip after its NS
  // snapshot, with no chain hop and no prepare round.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 20);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  auto log = tap_requests(cluster);
  const SimTime start = cluster.now();
  const auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  // Loopback NS read, one round trip, the local commit: well under two.
  EXPECT_LT(cluster.now() - start, 3'000);
  const TxnId txn = txn_of(*log, 1);
  const auto round = round_batches(*log, txn);
  ASSERT_EQ(round.size(), 3u);
  for (const Delivery* d : round) {
    EXPECT_EQ(d->from, 0);
    EXPECT_EQ(d->at, round[0]->at); // all at once
  }
  EXPECT_TRUE(data_batches(*log, txn).empty());
  EXPECT_EQ(cluster.metrics().get("dm.chain_forwards"), 0);
  EXPECT_EQ(cluster.metrics().get("txn.parallel_commits"), 1);
  EXPECT_EQ(cluster.metrics().get("txn.parallel_fallbacks"), 0);
  EXPECT_EQ(cluster.metrics().get("txn.early_votes"), 3);
  // The NS snapshot's site, which holds no copy of `w`, voted with its
  // snapshot read: no site is asked to prepare.
  EXPECT_EQ(count_of<PrepareReq>(*log), 0u);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, GrantAboveTheBusySiteIsRetractedAndTheChainCommits) {
  // Site 2 is busy in the round. Site 1's grant stays; site 3's is given
  // back, and the chain runs 2 -> 3. The client sees one commit, and the
  // history holds one record for the transaction.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 25);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  auto log = tap_requests(cluster);
  hold_lock(cluster, 2, w, 5'000);
  const auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  const TxnId txn = txn_of(*log, 1);
  EXPECT_EQ(cluster.metrics().get("txn.parallel_fallbacks"), 1);
  EXPECT_EQ(cluster.metrics().get("txn.parallel_fallbacks.held"), 1);
  EXPECT_EQ(cluster.metrics().get("txn.parallel_commits"), 0);
  EXPECT_EQ(cluster.metrics().get("txn.retracts"), 1);
  std::vector<SiteId> retracted;
  for (const Delivery& d : *log) {
    if (const auto* r = std::get_if<RetractReq>(&d.payload)) {
      if (r->txn == txn) retracted.push_back(d.site);
    }
  }
  EXPECT_EQ(retracted, std::vector<SiteId>{3});
  const auto hops = data_batches(*log, txn);
  std::vector<std::pair<SiteId, SiteId>> route;
  for (const Delivery* d : hops) route.emplace_back(d->from, d->site);
  const std::vector<std::pair<SiteId, SiteId>> expected{{0, 2}, {2, 3}};
  EXPECT_EQ(route, expected);
  EXPECT_EQ(cluster.metrics().get("dm.chain_forwards"), 1);
  EXPECT_EQ(cluster.metrics().get("txn.abort.busy"), 0);
  const History& h = cluster.history().view();
  EXPECT_EQ(std::count_if(h.txns.begin(), h.txns.end(),
                          [txn](const TxnRecord& r) { return r.txn == txn; }),
            1);
  cluster.settle();
  for (SiteId s : cat.sites_of(w)) {
    EXPECT_EQ(cluster.site(s).stable().kv().find(w)->value, 9) << "site " << s;
    EXPECT_TRUE(cluster.site(s).dm().locks().holders_of(w).empty());
  }
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

// ---------------------------------------------------------------------------
// The wait rule: a user transaction's data lock waits behind holders only.

// Hand-deliver a batch of `kind` writing `item` at site `s`, from a
// transaction that never answers: it holds (or waits for) the X lock until
// its activity timer aborts it.
void deliver_write(Cluster& cluster, SiteId s, TxnId txn, TxnKind kind,
                   ItemId item, SiteVec missed = {}) {
  BatchReq req;
  req.txn = txn;
  req.kind = kind;
  req.coordinator = s;
  req.expected_session = cluster.site(s).state().session;
  BatchOp op;
  op.op = BatchOpKind::kWrite;
  op.item = item;
  op.value = -2;
  op.is_copier_write = kind == TxnKind::kCopier;
  op.missed_sites = std::move(missed);
  req.ops.push_back(op);
  cluster.site(s).dm().handle_request(Envelope{kNoReply, false, s, s, req});
}

bool waits(Cluster& cluster, SiteId s, TxnId txn) {
  const auto w = cluster.site(s).dm().locks().waiting_txns();
  return std::find(w.begin(), w.end(), txn) != w.end();
}

TEST(CoordinatorEdges, ChainedHopBehindAQueuedWaiterAnswersBusyAndAborts) {
  // Site 2's copy of `w` is held, and another user transaction queues for
  // it. The round finds site 2 busy, so the chain starts there; its hop
  // would queue behind that waiter and is refused at once: no wait, no
  // forward to site 3, and the coordinator aborts as busy, releasing
  // site 1's kept grant.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 25);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  auto log = tap_requests(cluster);
  hold_lock(cluster, 2, w, 100'000);
  const TxnId waiter = make_txn_id(2, 1'000'001);
  deliver_write(cluster, 2, waiter, TxnKind::kUser, w);
  ASSERT_EQ(cluster.site(2).dm().locks().waiting_txns(),
            std::vector<TxnId>{waiter});
  const SimTime start = cluster.now();
  const auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  ASSERT_FALSE(res.committed);
  EXPECT_EQ(res.reason, Code::kBusy) << to_string(res.reason);
  EXPECT_LT(cluster.now() - start, 10'000); // no lock_timeout wait
  const TxnId txn = txn_of(*log, 1);
  const auto hops = data_batches(*log, txn);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0]->site, 2);
  EXPECT_EQ(std::get<BatchReq>(hops[0]->payload).dispatch,
            Dispatch::kChained);
  EXPECT_EQ(cluster.metrics().get("dm.busy_behind_waiter"), 1);
  EXPECT_EQ(cluster.metrics().get("dm.chain_forwards"), 0);
  EXPECT_EQ(cluster.metrics().get("dm.lock_timeout"), 0);
  EXPECT_EQ(cluster.metrics().get("txn.abort.busy"), 1);
  EXPECT_EQ(cluster.site(2).dm().locks().waiting_txns(),
            std::vector<TxnId>{waiter});
  cluster.run_until(cluster.now() + 10'000);
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    EXPECT_EQ(cluster.site(s).dm().locks().held_count(txn), 0u)
        << "site " << s;
    EXPECT_FALSE(waits(cluster, s, txn)) << "site " << s;
  }
}

TEST(CoordinatorEdges, ChainedHopBehindAHolderOnlyWaitsAndCommits) {
  // Site 2's copy of `w` is held but nobody queues: the chain's hop waits
  // for the holder, and the wait is in the lock-wait histogram.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 25);
  cluster.bootstrap();
  const ItemId w = item_at(cluster.catalog(), cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  hold_lock(cluster, 2, w, 20'000);
  const auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_EQ(cluster.metrics().get("dm.busy_behind_waiter"), 0);
  EXPECT_EQ(cluster.metrics().get("txn.parallel_fallbacks"), 1);
  EXPECT_EQ(cluster.metrics().hist("dm.lock_wait_us").count(), 1u);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, CopierAndControlRequestsStillQueueBehindAWaiter) {
  // A copier's data lock and a status take keep FIFO waits, and so does a
  // user transaction's S lock on a status item.
  Config cfg = cfg4();
  cfg.outdated_strategy = OutdatedStrategy::kMissingList;
  Cluster cluster(cfg, 25);
  cluster.bootstrap();
  const ItemId w = item_at(cluster.catalog(), cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  hold_lock(cluster, 2, w, 100'000);
  const TxnId user = make_txn_id(2, 1'000'001);
  deliver_write(cluster, 2, user, TxnKind::kUser, w);
  const TxnId copier = make_txn_id(2, 1'000'002);
  deliver_write(cluster, 2, copier, TxnKind::kCopier, w);
  EXPECT_TRUE(waits(cluster, 2, user));
  EXPECT_TRUE(waits(cluster, 2, copier));

  // At site 1: a user write that skipped site 3 S-locks status_item(3), a
  // type-1's status take queues for it in X, and a second such write
  // queues behind the take instead of being refused.
  std::vector<ItemId> at1;
  for (ItemId x = 0; x < cfg.n_items && at1.size() < 2; ++x) {
    const auto sites = cluster.catalog().sites_of(x);
    if (std::find(sites.begin(), sites.end(), 1) != sites.end()) {
      at1.push_back(x);
    }
  }
  ASSERT_EQ(at1.size(), 2u);
  deliver_write(cluster, 1, make_txn_id(1, 1'000'001), TxnKind::kUser,
                at1[0], {3});
  const TxnId take = make_txn_id(3, 1'000'001);
  cluster.site(1).dm().handle_request(Envelope{
      kNoReply, false, 3, 1, StatusTakeReq{take, 3, 3, 0, false}});
  EXPECT_TRUE(waits(cluster, 1, take));
  const TxnId second = make_txn_id(1, 1'000'002);
  deliver_write(cluster, 1, second, TxnKind::kUser, at1[1], {3});
  EXPECT_TRUE(waits(cluster, 1, second));
  EXPECT_EQ(cluster.metrics().get("dm.busy_behind_waiter"), 0);
}

TEST(CoordinatorEdges, ChainVisitsSitesInAscendingOrderHopByHop) {
  // Site 1 is busy when the round reaches it and free again by the time
  // the chain does, so the chain runs from site 1 without a wait.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 20);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  auto log = tap_requests(cluster);
  hold_lock(cluster, 1, w, 2'000);
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, w, 9}}).committed);
  const auto hops = data_batches(*log, txn_of(*log, 1));
  ASSERT_EQ(hops.size(), 3u);
  for (size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i]->site, static_cast<SiteId>(i + 1));
    // The first hop comes from the coordinator, every later one from its
    // predecessor, one network latency after it.
    EXPECT_EQ(hops[i]->from, static_cast<SiteId>(i)) << "hop " << i;
    EXPECT_EQ(std::get<BatchReq>(hops[i]->payload).chain.size(), 2 - i);
    if (i > 0) {
      EXPECT_EQ(hops[i]->at - hops[i - 1]->at, 1'000);
    }
  }
  EXPECT_EQ(cluster.metrics().get("dm.chain_forwards"), 2);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, DeadReadOnlyHopRelaunchesTheChain) {
  // Site 0 reads `r` (first copy at site 1) and writes `w` (at 0, 2 and
  // 3). Site 1 is dead but not declared: its read-only hop times out, is
  // suspected once, and the chain restarts at site 2 from the
  // coordinator. The read falls back to site 2's copy.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 21);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId r = item_at(cat, cfg.n_items, {1, 2, 3});
  const ItemId w = item_at(cat, cfg.n_items, {0, 2, 3});
  ASSERT_GE(r, 0);
  ASSERT_GE(w, 0);
  cluster.site(2).stable().kv().install(r, 42, Version{1, 0});
  cluster.site(3).stable().kv().install(r, 42, Version{1, 0});
  std::vector<SiteId> suspected;
  cluster.site(0).tm().set_suspect_fn(
      [&suspected](SiteId s) { suspected.push_back(s); });
  auto log = tap_requests(cluster);
  cluster.crash_site(1);
  hold_lock(cluster, 0, w, 5'000); // the chain runs from site 0
  auto res = cluster.run_txn(0, {{OpKind::kRead, r, 0},
                                 {OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_EQ(res.reads[0], 42);
  EXPECT_EQ(suspected, std::vector<SiteId>{1});
  EXPECT_EQ(cluster.metrics().get("txn.chain_relaunches"), 1);
  // Hop 2 arrives from the coordinator, carrying hop 3, which site 2
  // forwards.
  const auto hops = data_batches(*log, txn_of(*log, 0));
  std::vector<std::pair<SiteId, SiteId>> route;
  for (const Delivery* d : hops) route.emplace_back(d->from, d->site);
  const std::vector<std::pair<SiteId, SiteId>> expected{
      {0, 0}, {0, 2}, {2, 3}, {0, 2}}; // the last is the read's fallback
  EXPECT_EQ(route, expected);
  cluster.recover_site(1);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, FailedWriteStopsTheChainAndALateForwardIsRefused) {
  // Site 2 runs a session site 0's snapshot does not know, so its write is
  // rejected and its hop forwards nothing: site 3 never sees the batch,
  // yet it is a participant from launch and learns of the abort. A forward
  // of the transaction that arrives afterwards is refused.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 22);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  SessionNum& session2 = cluster.site(2).state().session;
  const SessionNum real = session2;
  session2 = real + 1;
  auto log = tap_requests(cluster);
  hold_lock(cluster, 1, w, 2'000); // the chain runs from site 1
  auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  session2 = real;
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(res.reason, Code::kSessionMismatch);
  cluster.run_until(cluster.now() + 10'000); // the aborts land
  const TxnId txn = txn_of(*log, 1);
  const auto hops = data_batches(*log, txn);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[1]->site, 2);
  bool site3_aborted = false;
  for (const Delivery& d : *log) {
    if (const auto* a = std::get_if<AbortReq>(&d.payload)) {
      site3_aborted = site3_aborted || (d.site == 3 && a->txn == txn);
    }
  }
  EXPECT_TRUE(site3_aborted);
  // The forward site 2 would have sent, arriving late.
  BatchReq late;
  late.txn = txn;
  late.coordinator = 0;
  late.expected_session = cluster.site(3).state().session;
  BatchOp op;
  op.op = BatchOpKind::kWrite;
  op.item = w;
  op.value = 9;
  late.ops.push_back(op);
  cluster.site(3).dm().handle_request(
      Envelope{kNoReply, false, 2, 3, late});
  EXPECT_EQ(cluster.site(3).dm().active_txn_count(), 0u);
  EXPECT_TRUE(cluster.site(3).dm().locks().holders_of(w).empty());
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, RelaunchedChainRefusesADuplicateAfterCommit) {
  // As in DeadReadOnlyHopRelaunchesTheChain, the chain is relaunched at
  // site 2 past dead site 1. Had site 1 forwarded after all, sites 2 and 3
  // would get their batches twice, and the second copy can land after
  // the commit. Each such duplicate is refused: it opens no context, takes
  // no lock, forwards nothing and installs nothing.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 21);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId r = item_at(cat, cfg.n_items, {1, 2, 3});
  const ItemId w = item_at(cat, cfg.n_items, {0, 2, 3});
  ASSERT_GE(r, 0);
  ASSERT_GE(w, 0);
  cluster.site(2).stable().kv().install(r, 42, Version{1, 0});
  cluster.site(3).stable().kv().install(r, 42, Version{1, 0});
  auto log = tap_requests(cluster);
  cluster.crash_site(1);
  hold_lock(cluster, 0, w, 5'000); // the chain runs from site 0
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kRead, r, 0},
                                  {OpKind::kWrite, w, 9}})
                  .committed);
  ASSERT_EQ(cluster.metrics().get("txn.chain_relaunches"), 1);
  cluster.run_until(cluster.now() + 10'000); // the commits land
  const auto hops = data_batches(*log, txn_of(*log, 0));
  ASSERT_GE(hops.size(), 3u);
  const int64_t forwards = cluster.metrics().get("dm.chain_forwards");
  for (const Delivery* d : {hops[1], hops[2]}) {
    ASSERT_TRUE(d->site == 2 || d->site == 3);
    Site& site = cluster.site(d->site);
    const Version before = site.stable().kv().find(w)->version;
    site.dm().handle_request(
        Envelope{kNoReply, false, d->from, d->site, d->payload});
    EXPECT_EQ(site.dm().active_txn_count(), 0u) << "site " << d->site;
    EXPECT_TRUE(site.dm().locks().holders_of(w).empty());
    EXPECT_TRUE(site.dm().locks().holders_of(r).empty());
    cluster.run_until(cluster.now() + 10'000);
    EXPECT_EQ(site.stable().kv().find(w)->version, before);
  }
  EXPECT_EQ(cluster.metrics().get("dm.chain_forwards"), forwards);
  cluster.recover_site(1);
  cluster.settle();
  std::string why;
  EXPECT_TRUE(cluster.replicas_converged(&why)) << why;
}

TEST(CoordinatorEdges, HopBudgetStartsAtItsPredecessorsReply) {
  // Sites 1 and 2 each make the chain wait 150 ms on a lock, so site 2
  // answers about 300 ms after launch, past one lock_timeout +
  // rpc_timeout budget. Its budget starts at site 1's reply, so neither
  // is suspected and the transaction commits.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 23);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId w = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(w, 0);
  ASSERT_LT(300'000, 2 * (cfg.lock_timeout + cfg.rpc_timeout));
  ASSERT_GT(300'000, cfg.lock_timeout + cfg.rpc_timeout);
  std::vector<SiteId> suspected;
  cluster.site(0).tm().set_suspect_fn(
      [&suspected](SiteId s) { suspected.push_back(s); });
  hold_lock(cluster, 1, w, 150'000);
  hold_lock(cluster, 2, w, 300'000);
  const SimTime start = cluster.now();
  auto res = cluster.run_txn(0, {{OpKind::kWrite, w, 9}});
  ASSERT_TRUE(res.committed) << to_string(res.reason);
  EXPECT_GE(cluster.now() - start, 300'000);
  EXPECT_TRUE(suspected.empty());
  cluster.settle();
  for (SiteId s : cat.sites_of(w)) {
    EXPECT_EQ(cluster.site(s).stable().kv().find(w)->value, 9) << "site " << s;
  }
}

TEST(CoordinatorEdges, FullyChainedWriterNeedsNoPrepareRound) {
  // Writes on every site, the coordinator's included: each hop votes with
  // its batch, so no site is asked to prepare.
  Config cfg = cfg4();
  cfg.net_latency_min = cfg.net_latency_max = 1'000;
  Cluster cluster(cfg, 24);
  cluster.bootstrap();
  const Catalog& cat = cluster.catalog();
  const ItemId a = item_at(cat, cfg.n_items, {0, 1, 2});
  const ItemId b = item_at(cat, cfg.n_items, {1, 2, 3});
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  auto log = tap_requests(cluster);
  hold_lock(cluster, 0, a, 2'000); // the chain runs from site 0
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, a, 1},
                                  {OpKind::kWrite, b, 2}})
                  .committed);
  EXPECT_EQ(data_batches(*log, txn_of(*log, 0)).size(), 4u);
  EXPECT_EQ(cluster.metrics().get("dm.chain_forwards"), 3);
  EXPECT_EQ(cluster.metrics().get("txn.early_votes"), 4);
  EXPECT_EQ(count_of<PrepareReq>(*log), 0u);
  cluster.settle();
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
