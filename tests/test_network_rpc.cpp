#include <gtest/gtest.h>

#include "net/rpc.h"
#include "sim/scheduler.h"

namespace ddbs {
namespace {

struct NetFixture : public ::testing::Test {
  Config cfg;
  Scheduler sched;
  std::unique_ptr<Network> net;

  void SetUp() override {
    cfg.n_sites = 3;
    cfg.net_latency_min = 100;
    cfg.net_latency_max = 200;
    net = std::make_unique<Network>(
        std::vector<Scheduler*>{&sched},
        std::vector<int>(static_cast<size_t>(cfg.n_sites)), cfg, 99);
    for (SiteId s = 0; s < 3; ++s) net->set_alive(s, true);
  }
};

TEST_F(NetFixture, DeliversWithinLatencyBand) {
  SimTime delivered_at = kNoTime;
  net->register_site(1, [&](const Envelope&) { delivered_at = sched.now(); });
  net->register_site(0, [](const Envelope&) {});
  net->register_site(2, [](const Envelope&) {});
  net->send(Envelope{0, false, 0, 1, Ping{}});
  sched.run_all();
  ASSERT_NE(delivered_at, kNoTime);
  EXPECT_GE(delivered_at, 100);
  EXPECT_LE(delivered_at, 200);
}

TEST_F(NetFixture, DropsToDeadSite) {
  int got = 0;
  net->register_site(1, [&](const Envelope&) { ++got; });
  net->register_site(0, [](const Envelope&) {});
  net->register_site(2, [](const Envelope&) {});
  net->set_alive(1, false);
  net->send(Envelope{0, false, 0, 1, Ping{}});
  sched.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_GE(net->messages_dropped(), 1u);
}

TEST_F(NetFixture, DeadSenderCountsSeparatelyFromWireDrops) {
  int got = 0;
  net->register_site(1, [&](const Envelope&) { ++got; });
  net->register_site(0, [](const Envelope&) {});
  net->register_site(2, [](const Envelope&) {});
  net->set_alive(0, false);
  net->send(Envelope{0, false, 0, 1, Ping{}});
  sched.run_all();
  EXPECT_EQ(got, 0);
  // A dead sender's message never reached the wire: it must appear in
  // dropped_at_send only -- neither sent nor dropped -- so per-message
  // overhead numbers are not distorted by crash noise.
  EXPECT_EQ(net->messages_dropped_at_send(), 1u);
  EXPECT_EQ(net->messages_sent(), 0u);
  EXPECT_EQ(net->messages_dropped(), 0u);
}

TEST_F(NetFixture, InFlightMessageDroppedWhenDestDiesBeforeDelivery) {
  int got = 0;
  net->register_site(1, [&](const Envelope&) { ++got; });
  net->register_site(0, [](const Envelope&) {});
  net->register_site(2, [](const Envelope&) {});
  net->send(Envelope{0, false, 0, 1, Ping{}});
  sched.at(50, [&]() { net->set_alive(1, false); }); // before min latency
  sched.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, MessageNeverCrossesIncarnations) {
  int got = 0;
  net->register_site(1, [&](const Envelope&) { ++got; });
  net->register_site(0, [](const Envelope&) {});
  net->register_site(2, [](const Envelope&) {});
  net->send(Envelope{0, false, 0, 1, Ping{}});
  // Die and come back before the message arrives: it must not be
  // delivered into the next incarnation.
  sched.at(10, [&]() { net->set_alive(1, false); });
  sched.at(20, [&]() { net->set_alive(1, true); });
  sched.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, RpcRoundTrip) {
  RpcEndpoint a(0, *net, sched);
  RpcEndpoint b(1, *net, sched);
  net->register_site(2, [](const Envelope&) {});
  b.start([&](const Envelope& env) {
    b.respond(env, Pong{true, 7});
  });
  a.start([](const Envelope&) {});
  bool got = false;
  a.send_request(1, Ping{}, 10'000, [&](Code code, const Payload* p) {
    ASSERT_EQ(code, Code::kOk);
    const auto& pong = std::get<Pong>(*p);
    EXPECT_TRUE(pong.operational);
    EXPECT_EQ(pong.session, 7u);
    got = true;
  });
  sched.run_all();
  EXPECT_TRUE(got);
}

TEST_F(NetFixture, RpcTimeoutFiresOnceAndLateResponseIgnored) {
  RpcEndpoint a(0, *net, sched);
  RpcEndpoint b(1, *net, sched);
  net->register_site(2, [](const Envelope&) {});
  // b responds only after 5000us; a's timeout is 1000us.
  b.start([&](const Envelope& env) {
    sched.after(5'000, [&b, env]() { b.respond(env, Pong{}); });
  });
  a.start([](const Envelope&) {});
  int calls = 0;
  Code last = Code::kOk;
  a.send_request(1, Ping{}, 1'000, [&](Code code, const Payload*) {
    ++calls;
    last = code;
  });
  sched.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(last, Code::kTimeout);
  EXPECT_EQ(a.pending_count(), 0u);
}

TEST_F(NetFixture, ResetDropsPendingSilently) {
  RpcEndpoint a(0, *net, sched);
  RpcEndpoint b(1, *net, sched);
  net->register_site(2, [](const Envelope&) {});
  b.start([](const Envelope&) {}); // never responds
  a.start([](const Envelope&) {});
  int calls = 0;
  a.send_request(1, Ping{}, 50'000, [&](Code, const Payload*) { ++calls; });
  sched.at(10, [&]() { a.reset(); });
  sched.run_all();
  EXPECT_EQ(calls, 0); // neither response nor timeout fires after reset
}

TEST_F(NetFixture, OnewayHasNoPendingState) {
  RpcEndpoint a(0, *net, sched);
  RpcEndpoint b(1, *net, sched);
  net->register_site(2, [](const Envelope&) {});
  int got = 0;
  b.start([&](const Envelope&) { ++got; });
  a.start([](const Envelope&) {});
  a.send_oneway(1, Ping{});
  EXPECT_EQ(a.pending_count(), 0u);
  sched.run_all();
  EXPECT_EQ(got, 1);
}

TEST(LatencyModel, PairOverride) {
  LatencyModel lm(100, 200, 5);
  lm.set_pair(0, 1, 1000, 1000);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(lm.sample(0, 1), 1000);
    const SimTime v = lm.sample(1, 0);
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 200);
  }
}

TEST(LatencyModel, LoopbackIsFast) {
  LatencyModel lm(100, 200, 5);
  EXPECT_LT(lm.sample(2, 2), 100);
}

} // namespace
} // namespace ddbs
