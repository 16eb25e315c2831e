// Invariants of the nominal session vector machinery (paper Section 3):
// agreement across operational sites at quiescence, consistency with the
// actual sessions, NS writes only by control transactions, and the
// restart-on-false-declaration safety net.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "workload/runner.h"

namespace ddbs {
namespace {

Config cfg5() {
  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 40;
  cfg.replication_degree = 3;
  return cfg;
}

void expect_ns_agreement(Cluster& cluster) {
  SessionVector ref;
  bool have_ref = false;
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    if (!cluster.site(s).state().operational()) continue;
    const SessionVector v =
        peek_ns_vector(cluster.site(s).stable().kv(), cluster.n_sites());
    if (!have_ref) {
      ref = v;
      have_ref = true;
    } else {
      EXPECT_EQ(v, ref) << "NS disagreement at site " << s;
    }
  }
  ASSERT_TRUE(have_ref);
  // The agreed vector matches reality: up sites carry their own session,
  // down sites carry 0.
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    const SiteState& st = cluster.site(s).state();
    if (st.operational()) {
      EXPECT_EQ(ref[static_cast<size_t>(s)], st.session) << "site " << s;
    } else {
      EXPECT_EQ(ref[static_cast<size_t>(s)], 0u) << "site " << s;
    }
  }
}

TEST(NsInvariants, AgreementAfterChurn) {
  Cluster cluster(cfg5(), 71);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 1;
  rp.duration = 4'000'000;
  rp.schedule = {{400'000, FailureEvent::What::kCrash, 1},
                 {1'400'000, FailureEvent::What::kRecover, 1},
                 {2'000'000, FailureEvent::What::kCrash, 3},
                 {3'000'000, FailureEvent::What::kRecover, 3}};
  Runner runner(cluster, rp, 71);
  runner.run();
  cluster.settle();
  expect_ns_agreement(cluster);
}

TEST(NsInvariants, AgreementWithSitesLeftDown) {
  Cluster cluster(cfg5(), 72);
  cluster.bootstrap();
  cluster.crash_site(2);
  cluster.crash_site(4);
  cluster.run_until(cluster.now() + 800'000);
  expect_ns_agreement(cluster);
}

TEST(NsInvariants, OnlyControlTransactionsWriteNs) {
  Cluster cluster(cfg5(), 73);
  cluster.bootstrap();
  RunnerParams rp;
  rp.clients_per_site = 1;
  rp.duration = 2'500'000;
  rp.schedule = {{400'000, FailureEvent::What::kCrash, 1},
                 {1'400'000, FailureEvent::What::kRecover, 1}};
  Runner runner(cluster, rp, 73);
  runner.run();
  cluster.settle();
  for (const TxnRecord& t : cluster.history().view().txns) {
    for (const WriteEvent& w : t.writes) {
      if (is_ns_item(w.item)) {
        EXPECT_TRUE(t.kind == TxnKind::kControlUp ||
                    t.kind == TxnKind::kControlDown)
            << "txn " << t.txn << " of kind " << to_string(t.kind)
            << " wrote NS[" << ns_site(w.item) << "]";
      }
    }
  }
}

TEST(NsInvariants, SessionsNeverReusedAcrossIncarnations) {
  Cluster cluster(cfg5(), 74);
  cluster.bootstrap();
  std::vector<SessionNum> seen{cluster.site(2).state().session};
  for (int cycle = 0; cycle < 4; ++cycle) {
    cluster.crash_site(2);
    cluster.run_until(cluster.now() + 400'000);
    cluster.recover_site(2);
    cluster.settle();
    ASSERT_EQ(cluster.site(2).state().mode, SiteMode::kUp);
    const SessionNum s = cluster.site(2).state().session;
    for (SessionNum old : seen) EXPECT_NE(s, old);
    EXPECT_GT(s, seen.back());
    seen.push_back(s);
  }
}

TEST(NsInvariants, FalselyDeclaredSiteRestartsAndReintegrates) {
  // Force the fail-stop violation directly: site 0 declares the perfectly
  // healthy site 3 down (bypassing the detector's verification). The
  // DeclaredDown notice must make site 3 restart and re-integrate instead
  // of silently forking the replicated state.
  Cluster cluster(cfg5(), 75);
  cluster.bootstrap();
  bool done = false;
  cluster.site(0).tm().run_control_down(
      {3}, [&](const ControlDownResult& res) {
        EXPECT_TRUE(res.ok);
        done = true;
      });
  cluster.run_until(cluster.now() + 300'000);
  ASSERT_TRUE(done);
  EXPECT_GE(cluster.metrics().get("site.false_declaration_restart"), 1);
  cluster.settle();
  // Site 3 is back up with a fresh session and everyone agrees.
  EXPECT_EQ(cluster.site(3).state().mode, SiteMode::kUp);
  EXPECT_GT(cluster.site(3).state().session, 1u);
  expect_ns_agreement(cluster);
  // And it serves consistent data again.
  ASSERT_TRUE(cluster.run_txn(0, {{OpKind::kWrite, 1, 55}}).committed);
  auto r = cluster.run_txn(3, {{OpKind::kRead, 1, 0}});
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.reads[0], 55);
}

TEST(NsInvariants, UserTransactionsRejectedDuringRecoveringWindow) {
  Cluster cluster(cfg5(), 76);
  cluster.bootstrap();
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  cluster.recover_site(1);
  // Immediately (before the type-1 can possibly commit) submit at site 1.
  auto res = cluster.run_txn(1, {{OpKind::kRead, 0, 0}});
  EXPECT_FALSE(res.committed);
  EXPECT_EQ(res.reason, Code::kSiteNotOperational);
  cluster.settle();
  EXPECT_EQ(cluster.site(1).state().mode, SiteMode::kUp);
}

} // namespace
} // namespace ddbs
