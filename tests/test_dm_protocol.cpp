// Data-manager protocol behaviours exercised with hand-crafted envelopes:
// session checks, unknown-transaction votes, unilateral aborts, cooperative
// termination and in-doubt redo. Crafted requests carry a fake coordinator
// transaction id owned by a real (live) site so OutcomeQuery routing works.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

struct DmFixture : public ::testing::Test {
  Config cfg;
  std::unique_ptr<Cluster> cluster;
  ItemId item_at_0 = -1; // replicated item hosted at site 0

  void SetUp() override {
    cfg.n_sites = 3;
    cfg.n_items = 30;
    cfg.replication_degree = 2;
    cluster = std::make_unique<Cluster>(cfg, 77);
    cluster->bootstrap();
    for (ItemId x : cluster->catalog().items_at(0)) {
      if (cluster->catalog().sites_of(x).size() > 1) {
        item_at_0 = x;
        break;
      }
    }
    ASSERT_NE(item_at_0, -1);
  }

  Envelope make_env(Payload p) {
    return Envelope{/*rpc_id=*/777, /*is_response=*/false, /*from=*/1,
                    /*to=*/0, std::move(p)};
  }

  // One-op batches from a user transaction coordinated by site 1.
  BatchReq user_batch(TxnId txn, SessionNum expected, BatchOp op) {
    BatchReq req;
    req.txn = txn;
    req.kind = TxnKind::kUser;
    req.coordinator = 1;
    req.expected_session = expected;
    req.ops.push_back(std::move(op));
    return req;
  }

  BatchReq read_req(TxnId txn, ItemId item, SessionNum expected,
                    ReadMode mode = ReadMode::kReject) {
    BatchOp op;
    op.item = item;
    op.read_mode = mode;
    return user_batch(txn, expected, std::move(op));
  }

  BatchReq write_req(TxnId txn, ItemId item, Value v) {
    BatchOp op;
    op.op = BatchOpKind::kWrite;
    op.item = item;
    op.value = v;
    op.written_sites = cluster->catalog().sites_of(item);
    return user_batch(txn, 1, std::move(op));
  }
};

TEST_F(DmFixture, SessionMismatchRejected) {
  DataManager& dm = cluster->site(0).dm();
  // Wrong session: the actual one is 1.
  dm.handle_request(make_env(read_req(make_txn_id(1, 1), item_at_0, 42)));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.session-mismatch"), 1);
}

TEST_F(DmFixture, UserOpsRejectedWhileNotOperational) {
  cluster->crash_site(0);
  cluster->site(0).state().mode = SiteMode::kRecovering; // simulate boot
  DataManager& dm = cluster->site(0).dm();
  dm.handle_request(make_env(read_req(make_txn_id(1, 2), item_at_0, 0)));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.site-not-operational"),
            1);
}

TEST_F(DmFixture, PrepareUnknownTxnVotesNo) {
  DataManager& dm = cluster->site(0).dm();
  PrepareReq req;
  req.txn = make_txn_id(1, 3);
  req.coordinator = 1;
  dm.handle_request(make_env(req));
  EXPECT_EQ(cluster->metrics().get("dm.vote_no_unknown"), 1);
}

TEST_F(DmFixture, StagedWriteHoldsLockUntilAbort) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 4);
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  EXPECT_TRUE(dm.locks().holds(t1, item_at_0));
  dm.handle_request(make_env(AbortReq{t1}));
  EXPECT_FALSE(dm.locks().holds(t1, item_at_0));
  EXPECT_EQ(dm.active_txn_count(), 0u);
}

TEST_F(DmFixture, TombstoneBlocksResurrection) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 5);
  dm.handle_request(make_env(AbortReq{t1}));
  // A write arriving after the abort must not create a context.
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  EXPECT_EQ(dm.active_txn_count(), 0u);
  EXPECT_FALSE(dm.locks().holds(t1, item_at_0));
}

TEST_F(DmFixture, ActivityTimeoutAbortsOrphanedContext) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 6);
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  EXPECT_EQ(dm.active_txn_count(), 1u);
  cluster->run_until(cluster->now() + cfg.txn_timeout + 100'000);
  EXPECT_EQ(dm.active_txn_count(), 0u);
  EXPECT_GE(cluster->metrics().get("dm.activity_timeout_abort"), 1);
}

TEST_F(DmFixture, CooperativeTerminationResolvesByPresumedAbort) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 7); // "coordinated" by site 1
  dm.handle_request(make_env(write_req(t1, item_at_0, 9)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  EXPECT_EQ(dm.in_doubt().size(), 1u);
  EXPECT_TRUE(dm.locks().holds(t1, item_at_0));
  // No commit ever arrives. The termination timer queries site 1, which
  // has no stable outcome record and owns the txn id => presumed abort.
  cluster->run_until(cluster->now() + 10 * cfg.rpc_timeout);
  EXPECT_FALSE(dm.locks().holds(t1, item_at_0));
  EXPECT_GE(cluster->metrics().get("dm.termination_aborted"), 1);
  EXPECT_TRUE(dm.in_doubt().empty()); // abort record resolves it
}

TEST_F(DmFixture, CooperativeTerminationLearnsCommitFromCoordinator) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 8);
  dm.handle_request(make_env(write_req(t1, item_at_0, 55)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  // Site 1 durably knows the decision (as a real coordinator would after
  // logging commit); the participant must learn it and apply.
  cluster->site(1).stable().record_outcome(
      t1, OutcomeRec{true, {{item_at_0, 7}}, {}});
  cluster->run_until(cluster->now() + 10 * cfg.rpc_timeout);
  const Copy* c = dm.kv().find(item_at_0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 55);
  EXPECT_EQ(c->version.counter, 7u);
  EXPECT_GE(cluster->metrics().get("dm.termination_committed"), 1);
}

TEST_F(DmFixture, InDoubtRedoAfterCrash) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 9);
  dm.handle_request(make_env(write_req(t1, item_at_0, 66)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  // Crash before any outcome arrives; the decision was commit, and the
  // item's other copies applied it.
  cluster->site(1).stable().record_outcome(
      t1, OutcomeRec{true, {{item_at_0, 9}}, {}});
  for (SiteId s : cluster->catalog().sites_of(item_at_0)) {
    if (s != 0) {
      cluster->site(s).stable().kv().install(item_at_0, 66, Version{9, t1});
    }
  }
  cluster->crash_site(0);
  cluster->recover_site(0);
  cluster->settle();
  EXPECT_EQ(cluster->site(0).state().mode, SiteMode::kUp);
  EXPECT_GE(cluster->metrics().get("dm.indoubt_committed"), 1);
  const Copy* c = dm.kv().find(item_at_0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 66);
  EXPECT_FALSE(c->unreadable);
}

TEST_F(DmFixture, InDoubtAbortAfterCrash) {
  DataManager& dm = cluster->site(0).dm();
  const TxnId t1 = make_txn_id(1, 10);
  dm.handle_request(make_env(write_req(t1, item_at_0, 66)));
  PrepareReq prep;
  prep.txn = t1;
  prep.coordinator = 1;
  prep.participants = {0, 1};
  dm.handle_request(make_env(prep));
  cluster->crash_site(0);
  cluster->recover_site(0);
  cluster->settle();
  // Site 1 has no record => presumed abort; the staged value must NOT be
  // applied.
  EXPECT_GE(cluster->metrics().get("dm.indoubt_aborted"), 1);
  const Copy* c = dm.kv().find(item_at_0);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->value, 66);
}

TEST_F(DmFixture, CommitForUnknownTxnRefusedWithoutOutcome) {
  DataManager& dm = cluster->site(0).dm();
  CommitReq creq;
  creq.txn = make_txn_id(1, 11);
  dm.handle_request(make_env(creq));
  // Nothing applied, no crash: the DM must not invent state.
  EXPECT_EQ(dm.active_txn_count(), 0u);
}

// ---- reads on an unreadable copy: park (kBlock) or reject ----------------

// A real round trip from site 1's RPC endpoint to site 0's DM, so the
// test sees the DM's answer.
struct Reply {
  bool done = false;
  Code code = Code::kOk;
  BatchResp resp;
};

void send_from_site1(Cluster& cluster, BatchReq req, Reply* out) {
  cluster.site(1).rpc().send_request(
      0, std::move(req), cluster.config().txn_timeout,
      [out](Code code, const Payload* payload) {
        out->done = true;
        out->code = code;
        if (code == Code::kOk && payload != nullptr) {
          out->resp = std::get<BatchResp>(*payload);
        }
      });
}

// Runs in small steps until site 0 parks a read or `r` is answered: the
// copier the unreadable hit triggers needs a network round trip, so it
// cannot clear the mark within one step of the read's arrival.
void run_until_parked_or_answered(Cluster& cluster, const Reply& r) {
  DataManager& dm = cluster.site(0).dm();
  for (int i = 0; i < 100 && dm.parked_read_count() == 0 && !r.done; ++i) {
    cluster.run_until(cluster.now() + 100);
  }
}

TEST_F(DmFixture, MayParkReadParksUntilCopyIsRefreshed) {
  ASSERT_EQ(cfg.unreadable_policy, UnreadablePolicy::kBlock);
  DataManager& dm = cluster->site(0).dm();
  dm.kv().mark_unreadable(item_at_0);
  Reply r;
  send_from_site1(*cluster,
                  read_req(make_txn_id(1, 20), item_at_0, 1,
                           ReadMode::kMayPark),
                  &r);
  run_until_parked_or_answered(*cluster, r);
  EXPECT_EQ(dm.parked_read_count(), 1u);
  EXPECT_FALSE(r.done);
  // The on-demand copier the hit launched refreshes the copy, which
  // unparks the read; it is then served like any other.
  cluster->run_until(cluster->now() + 200'000);
  EXPECT_FALSE(dm.kv().find(item_at_0)->unreadable);
  EXPECT_EQ(dm.parked_read_count(), 0u);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.code, Code::kOk);
  ASSERT_EQ(r.resp.results.size(), 1u);
  EXPECT_EQ(r.resp.results[0].code, Code::kOk);
}

TEST_F(DmFixture, ParkedReadDroppedWhenItsTxnAborts) {
  DataManager& dm = cluster->site(0).dm();
  dm.kv().mark_unreadable(item_at_0);
  const TxnId t1 = make_txn_id(1, 21);
  dm.handle_request(
      make_env(read_req(t1, item_at_0, 1, ReadMode::kMayPark)));
  EXPECT_EQ(dm.parked_read_count(), 1u);
  dm.handle_request(make_env(AbortReq{t1}));
  EXPECT_EQ(dm.parked_read_count(), 0u);
}

TEST_F(DmFixture, MultiOpBatchNeverParks) {
  DataManager& dm = cluster->site(0).dm();
  ItemId other = -1;
  for (ItemId x : cluster->catalog().items_at(0)) {
    if (x != item_at_0) {
      other = x;
      break;
    }
  }
  ASSERT_NE(other, -1);
  dm.kv().mark_unreadable(item_at_0);
  BatchReq req = read_req(make_txn_id(1, 22), item_at_0, 1,
                          ReadMode::kMayPark);
  BatchOp second;
  second.item = other;
  req.ops.push_back(second);
  Reply r;
  send_from_site1(*cluster, std::move(req), &r);
  run_until_parked_or_answered(*cluster, r);
  EXPECT_EQ(dm.parked_read_count(), 0u);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.resp.code, Code::kUnreadable);
  ASSERT_EQ(r.resp.results.size(), 2u);
  EXPECT_EQ(r.resp.results[0].code, Code::kUnreadable);
  EXPECT_EQ(r.resp.results[1].code, Code::kOk);
}

struct RedirectDmFixture : public DmFixture {
  void SetUp() override {
    cfg.unreadable_policy = UnreadablePolicy::kRedirect;
    DmFixture::SetUp();
  }
};

TEST_F(RedirectDmFixture, MayParkReadAnswersUnreadable) {
  DataManager& dm = cluster->site(0).dm();
  dm.kv().mark_unreadable(item_at_0);
  Reply r;
  send_from_site1(*cluster,
                  read_req(make_txn_id(1, 23), item_at_0, 1,
                           ReadMode::kMayPark),
                  &r);
  run_until_parked_or_answered(*cluster, r);
  EXPECT_EQ(dm.parked_read_count(), 0u);
  ASSERT_TRUE(r.done);
  ASSERT_EQ(r.resp.results.size(), 1u);
  EXPECT_EQ(r.resp.results[0].code, Code::kUnreadable);
}

TEST_F(DmFixture, PingReportsOperationalState) {
  // Exercised through a real round trip: crash then ping via detector is
  // covered elsewhere; here check the state flag directly flips.
  EXPECT_TRUE(cluster->site(0).state().operational());
  cluster->crash_site(0);
  EXPECT_FALSE(cluster->site(0).state().operational());
}

TEST_F(DmFixture, ClosedEntryExpiresAfterTheDeadlineWindow) {
  DataManager& dm = cluster->site(0).dm();
  for (uint64_t seq = 1; seq <= 50; ++seq) {
    dm.handle_request(make_env(AbortReq{make_txn_id(1, seq)}));
  }
  EXPECT_EQ(dm.closed_count(), 50u);
  // Still refused just inside the window...
  cluster->run_until(cluster->now() + cfg.txn_timeout);
  const TxnId first = make_txn_id(1, 1);
  dm.handle_request(make_env(write_req(first, item_at_0, 5)));
  EXPECT_EQ(dm.active_txn_count(), 0u);
  // ...and forgotten once no batch of those transactions can arrive.
  cluster->run_until(cluster->now() + cfg.net_latency_max + 1);
  dm.handle_request(make_env(AbortReq{make_txn_id(1, 51)}));
  EXPECT_EQ(dm.closed_count(), 1u);
}

TEST(ClosedSet, StaysBoundedOverALongContendedRun) {
  // Eight items and two clients per site: aborts never stop. Closed
  // entries live one txn_timeout plus a latency, so the set tracks the
  // abort rate, not the run length.
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 8;
  cfg.replication_degree = 3;
  Cluster cluster(cfg, 5);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 2;
  rp.duration = 8 * cfg.txn_timeout;
  Runner runner(cluster, rp, 5);
  runner.run();
  const int64_t aborts = cluster.metrics().get("dm.aborts_applied");
  ASSERT_GT(aborts, 200);
  size_t closed = 0;
  for (SiteId s = 0; s < cfg.n_sites; ++s) {
    closed += cluster.site(s).dm().closed_count();
  }
  EXPECT_LT(static_cast<int64_t>(closed), aborts / 3);
}

} // namespace
} // namespace ddbs
