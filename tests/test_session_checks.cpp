// The session check (paper Section 3.2): every physical request carries
// the sender's perceived session number of the destination and is rejected
// on mismatch with as[k]. These tests exercise the stale-view scenarios
// the check exists for, with crafted envelopes against real DMs.
#include <gtest/gtest.h>

#include "core/cluster.h"

namespace ddbs {
namespace {

struct SessionFixture : public ::testing::Test {
  Config cfg;
  std::unique_ptr<Cluster> cluster;

  void SetUp() override {
    cfg.n_sites = 3;
    cfg.n_items = 20;
    cfg.replication_degree = 3;
    cluster = std::make_unique<Cluster>(cfg, 55);
    cluster->bootstrap();
  }

  Envelope env_from(SiteId from, Payload p) {
    return Envelope{1234, false, from, 0, std::move(p)};
  }

  // A one-op batch from a user transaction coordinated by site 1.
  static BatchReq one_op(TxnId txn, SessionNum expected, BatchOp op) {
    BatchReq req;
    req.txn = txn;
    req.coordinator = 1;
    req.expected_session = expected;
    req.ops.push_back(std::move(op));
    return req;
  }

  static BatchReq read_req(TxnId txn, ItemId item, SessionNum expected) {
    BatchOp op;
    op.item = item;
    return one_op(txn, expected, std::move(op));
  }
};

TEST_F(SessionFixture, StaleSessionAfterReincarnationRejected) {
  // Remember site 0's first-life session, cycle it, then present a
  // request carrying the OLD session: the DM must reject it even though
  // the site is fully operational again.
  const SessionNum old_session = cluster->site(0).state().session;
  cluster->crash_site(0);
  cluster->run_until(cluster->now() + 400'000);
  cluster->recover_site(0);
  cluster->settle();
  ASSERT_EQ(cluster->site(0).state().mode, SiteMode::kUp);
  ASSERT_NE(cluster->site(0).state().session, old_session);

  // A txn frozen before the crash.
  cluster->site(0).dm().handle_request(
      env_from(1, read_req(make_txn_id(1, 500), 0, old_session)));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.session-mismatch"), 1);

  BatchOp write;
  write.op = BatchOpKind::kWrite;
  write.item = 0;
  write.value = 99;
  cluster->site(0).dm().handle_request(
      env_from(1, one_op(make_txn_id(1, 501), old_session, write)));
  EXPECT_EQ(cluster->metrics().get("dm.write_reject.session-mismatch"), 1);
  // Nothing staged, nothing locked.
  EXPECT_EQ(cluster->site(0).dm().active_txn_count(), 0u);
}

TEST(SessionChecks, PlantedSkipSessionCheckAdmitsAStaleWrite) {
  // The planted `skip-session-check` bug in isolation: an up site handed a
  // write that carries its previous session rejects it, and with the bug
  // planted stages it and takes its X lock. Reads reject either way (the
  // mutation is scoped to the write path).
  for (const PlantedBug bug :
       {PlantedBug::kNone, PlantedBug::kSkipSessionCheck}) {
    SCOPED_TRACE(bug == PlantedBug::kNone ? "bug off" : "bug on");
    Config cfg;
    cfg.n_sites = 3;
    cfg.n_items = 20;
    cfg.replication_degree = 3;
    cfg.planted_bug = bug;
    Cluster cluster(cfg, 55);
    cluster.bootstrap();
    const SessionNum old_session = cluster.site(0).state().session;
    cluster.crash_site(0);
    cluster.run_until(cluster.now() + 400'000);
    cluster.recover_site(0);
    cluster.settle();
    ASSERT_EQ(cluster.site(0).state().mode, SiteMode::kUp);
    ASSERT_NE(cluster.site(0).state().session, old_session);

    BatchReq req;
    req.txn = make_txn_id(1, 600);
    req.coordinator = 1;
    req.expected_session = old_session;
    BatchOp write;
    write.op = BatchOpKind::kWrite;
    write.item = 0;
    write.value = 99;
    req.ops.push_back(write);
    BatchOp read;
    read.item = 1;
    req.ops.push_back(read);
    cluster.site(0).dm().handle_request(
        Envelope{1234, false, 1, 0, std::move(req)});
    const bool planted = bug == PlantedBug::kSkipSessionCheck;
    EXPECT_EQ(cluster.metrics().get("dm.write_reject.session-mismatch"),
              planted ? 0 : 1);
    EXPECT_EQ(cluster.metrics().get("dm.read_reject.session-mismatch"), 1);
    EXPECT_EQ(cluster.site(0).dm().active_txn_count(), planted ? 1u : 0u);
    EXPECT_EQ(cluster.site(0).dm().locks().holders_of(0).size(),
              planted ? 1u : 0u);
  }
}

TEST_F(SessionFixture, CurrentSessionAccepted) {
  cluster->site(0).dm().handle_request(env_from(
      1, read_req(make_txn_id(1, 502), 0, cluster->site(0).state().session)));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.session-mismatch"), 0);
  EXPECT_EQ(cluster->metrics().get("dm.reads"), 1);
}

TEST_F(SessionFixture, BypassIgnoresSessionButNotDownState) {
  // Control ops bypass the session check entirely...
  BatchReq req = read_req(make_txn_id(1, 503), ns_item(1), 424242);
  req.kind = TxnKind::kControlUp;
  cluster->site(0).dm().handle_request(env_from(1, req));
  EXPECT_EQ(cluster->metrics().get("dm.reads"), 1);
}

TEST_F(SessionFixture, ZeroSessionNeverMatchesOperationalSite) {
  // A transaction that believes site 0 is DOWN would never send to it; if
  // such a message appears anyway (raced with a type-2), it is rejected.
  cluster->site(0).dm().handle_request(
      env_from(1, read_req(make_txn_id(1, 504), 0, 0)));
  EXPECT_EQ(cluster->metrics().get("dm.read_reject.session-mismatch"), 1);
}

TEST_F(SessionFixture, EndToEndStaleViewTransactionAborts) {
  // Protocol-level version of the same story: freeze a transaction's view
  // by submitting right before a crash+fast-recovery of a participant.
  // Whatever the interleaving, the outcome is commit-with-new-state or
  // abort -- never a half-applied write (checked via convergence).
  ItemId item = -1;
  for (ItemId x : cluster->catalog().items_at(1)) {
    item = x;
    break;
  }
  ASSERT_NE(item, -1);
  TxnResult res;
  bool done = false;
  cluster->submit(0, {{OpKind::kWrite, item, 321}}, [&](const TxnResult& r) {
    res = r;
    done = true;
  });
  // Crash+recover site 1 while the write is in flight.
  cluster->scheduler().after(300, [&]() { cluster->crash_site(1); });
  cluster->scheduler().after(5'000, [&]() { cluster->recover_site(1); });
  cluster->run_until(cluster->now() + 3'000'000);
  cluster->settle();
  ASSERT_TRUE(done);
  std::string why;
  EXPECT_TRUE(cluster->replicas_converged(&why)) << why;
  if (res.committed) {
    auto r = cluster->run_txn(1, {{OpKind::kRead, item, 0}});
    ASSERT_TRUE(r.committed);
    EXPECT_EQ(r.reads[0], 321);
  }
}

} // namespace
} // namespace ddbs
