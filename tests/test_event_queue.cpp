#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>

#include "sim/event_queue.h"
#include "sim/scheduler.h"

namespace ddbs {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&]() { order.push_back(3); });
  q.push(10, [&]() { order.push_back(1); });
  q.push(20, [&]() { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(10, [&]() { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id)); // second cancel is a no-op
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(1, [&]() { order.push_back(1); });
  const EventId id = q.push(2, [&]() { order.push_back(2); });
  q.push(3, [&]() { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(5, []() {});
  q.push(9, []() {});
  EXPECT_EQ(q.next_time(), 5);
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, NextTimeEmpty) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNoTime);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, []() {});
  q.push(2, []() {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesStayFifoAcrossCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.push(7, [&order, i]() { order.push_back(i); }));
  }
  // Cancelling every third event must not disturb the relative order of
  // the survivors at the shared timestamp.
  for (size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  while (!q.empty()) q.pop().fn();
  std::vector<int> expected;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  const EventId id = q.push(10, []() {});
  EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.id, id);
  EXPECT_FALSE(q.cancel(id)); // already ran: id is dead
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId stale = q.push(10, []() {});
  ASSERT_TRUE(q.cancel(stale));
  // cancel() freed the slot at once, so the next push reuses it.
  EXPECT_EQ(q.next_time(), kNoTime);
  bool ran = false;
  const EventId fresh = q.push(5, [&]() { ran = true; });
  EXPECT_NE(stale, fresh); // same slot, bumped generation
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, SmallCallablesStayInline) {
  int hits = 0;
  EventFn small([&hits]() { ++hits; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hits, 1);

  // A capture larger than the inline buffer must spill to the heap and
  // still survive moves.
  std::array<uint64_t, 32> big_payload{};
  big_payload[31] = 42;
  uint64_t seen = 0;
  EventFn big([big_payload, &seen]() { seen = big_payload[31]; });
  EXPECT_FALSE(big.is_inline());
  EventFn moved(std::move(big));
  moved();
  EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, MoveOnlyCallableThroughQueue) {
  EventQueue q;
  auto payload = std::make_unique<int>(99);
  int got = 0;
  q.push(1, [p = std::move(payload), &got]() { got = *p; });
  q.pop().fn();
  EXPECT_EQ(got, 99);
}

// ---- timer lists ----------------------------------------------------------

// Drains the queue, returning the tags the events push into `order`.
std::vector<int> drain(EventQueue& q, std::vector<int>& order) {
  while (!q.empty()) q.pop().fn();
  return order;
}

TEST(EventQueueTimers, CancelAtHeadMiddleAndTail) {
  for (int victim = 0; victim < 3; ++victim) {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 3; ++i) {
      ids.push_back(q.push_timer(100 + i, 100,
                                 [&order, i]() { order.push_back(i); }));
    }
    ASSERT_TRUE(q.cancel(ids[static_cast<size_t>(victim)]));
    EXPECT_FALSE(q.cancel(ids[static_cast<size_t>(victim)]));
    EXPECT_EQ(q.size(), 2u);
    std::vector<int> expected;
    for (int i = 0; i < 3; ++i) {
      if (i != victim) expected.push_back(i);
    }
    EXPECT_EQ(drain(q, order), expected) << "victim " << victim;
  }
}

TEST(EventQueueTimers, CancelEveryTimerEmptiesQueue) {
  EventQueue q;
  const EventId a = q.push_timer(50, 50, []() {});
  const EventId b = q.push_timer(60, 60, []() {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNoTime);
}

TEST(EventQueueTimers, HeapAndTimerEventsAtEqualTimesKeepPushOrder) {
  EventQueue q;
  std::vector<int> order;
  // Alternate heap events and timers of two delays, all due at t=40: the
  // fire order must be the push order, as if everything were on the heap.
  for (int i = 0; i < 9; ++i) {
    auto fn = [&order, i]() { order.push_back(i); };
    if (i % 3 == 0) {
      q.push(40, fn);
    } else {
      q.push_timer(40, i % 3 == 1 ? 20 : 30, fn);
    }
  }
  q.push(39, [&order]() { order.push_back(-1); });
  std::vector<int> expected{-1};
  for (int i = 0; i < 9; ++i) expected.push_back(i);
  EXPECT_EQ(drain(q, order), expected);
}

TEST(EventQueueTimers, StaleIdAfterSlotRecycling) {
  EventQueue q;
  bool stale_ran = false;
  const EventId stale = q.push_timer(200, 200, [&]() { stale_ran = true; });
  ASSERT_TRUE(q.cancel(stale));
  // The slot is free at once; the next push reuses it while the dead list
  // entry still sits in the timer list.
  bool fresh_ran = false;
  const EventId fresh = q.push_timer(300, 200, [&]() { fresh_ran = true; });
  EXPECT_EQ(stale & 0xffffffffu, fresh & 0xffffffffu); // same slot
  EXPECT_NE(stale, fresh);                              // new generation
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 300);
  const EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.id, fresh);
  EXPECT_EQ(f.time, 300);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(stale_ran);
  EXPECT_FALSE(fresh_ran); // popped, not yet run
}

TEST(EventQueueTimers, CancelDestroysCallableAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(1);
  const EventId id = q.push_timer(1000, 1000, [token]() {});
  EXPECT_EQ(token.use_count(), 2);
  q.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTimers, EqualDeadlinesFromDifferentLanesOutOfKeyOrder) {
  EventQueue q;
  std::vector<int> order;
  // Site-keyed mode can arm equal deadlines from higher lanes first; the
  // list insert must step back so the lower lane still fires first.
  q.push_timer_keyed(100, 50, make_event_key(9, 0),
                     [&]() { order.push_back(9); });
  q.push_timer_keyed(100, 50, make_event_key(7, 0),
                     [&]() { order.push_back(7); });
  q.push_timer_keyed(100, 50, make_event_key(3, 4),
                     [&]() { order.push_back(3); });
  q.push_timer_keyed(100, 50, make_event_key(7, 1),
                     [&]() { order.push_back(71); });
  q.push_timer_keyed(101, 50, make_event_key(2, 0),
                     [&]() { order.push_back(2); });
  q.push_keyed(100, make_event_key(5, 0), [&]() { order.push_back(5); });
  EXPECT_EQ(drain(q, order), (std::vector<int>{3, 5, 7, 71, 9, 2}));
}

TEST(EventQueueTimers, ManyDistinctDelaysFallBackToTheHeap) {
  EventQueue q;
  std::vector<int> order;
  const int n = static_cast<int>(EventQueue::kMaxTimerLists) + 4;
  for (int i = n - 1; i >= 0; --i) {
    q.push_timer(10 + i, 10 + i, [&order, i]() { order.push_back(i); });
  }
  std::vector<int> expected;
  for (int i = 0; i < n; ++i) expected.push_back(i);
  EXPECT_EQ(drain(q, order), expected);
}

TEST(EventQueueTimers, RingGrowsAcrossWrap) {
  EventQueue q;
  std::vector<int> order;
  int tag = 0;
  std::vector<int> expected;
  // Keep a rolling window so the ring's head wraps before it has to grow.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 50 * (round + 1); ++i) {
      const int t = tag++;
      q.push_timer(t, 1000, [&order, t]() { order.push_back(t); });
    }
    while (q.size() > 10) {
      q.pop().fn();
    }
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < tag; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTimers, FullRingSweepsCancelledEntriesInOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  std::vector<int> expected;
  // Fill several ring capacities' worth, cancelling most timers as the
  // protocol does: every full ring sweeps before it grows, and the
  // survivors must still fire in deadline order.
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.push_timer(i, 220, [&order, i]() { order.push_back(i); }));
    if (i % 7 != 0) {
      q.cancel(ids.back());
    } else {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(q.size(), expected.size());
  EXPECT_EQ(drain(q, order), expected);
}

// Randomized differential: every push / timer / cancel / pop against a
// reference std::set of (time, lane, counter), in legacy-FIFO and in
// site-keyed mode.
void differential(bool site_keys, uint64_t seed) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  using Key = std::tuple<SimTime, uint32_t, uint32_t>;
  std::set<Key> model;
  std::map<EventId, Key> live;  // id -> model key, for cancel
  std::vector<EventId> handed_out;  // every id ever returned, stale ones too
  std::vector<uint32_t> lane_counter(6, 0);
  uint32_t legacy_seq = 0;
  SimTime now = 0;
  // Five fixed backstop delays plus a spread of one-off delays, so some
  // timers overflow the list cap onto the heap.
  const SimTime kDelays[] = {20, 60, 200, 220, 1000};

  for (int step = 0; step < 20'000; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 6) {
      const bool timer = op >= 2;
      SimTime delay;
      if (!timer) {
        delay = static_cast<SimTime>(rng() % 300);
      } else if (rng() % 8 == 0) {
        delay = 1 + static_cast<SimTime>(rng() % 40) * 7;
      } else {
        delay = kDelays[rng() % 5];
      }
      Key k;
      EventKey key;
      if (site_keys) {
        const uint32_t lane = static_cast<uint32_t>(rng() % 6);
        k = Key{now + delay, lane, lane_counter[lane]};
        key = make_event_key(lane, lane_counter[lane]++);
      } else {
        k = Key{now + delay, 1, legacy_seq++};
        key = make_event_key(1, std::get<2>(k));
      }
      EventFn fn = []() {};
      EventId id;
      if (site_keys) {
        id = timer ? q.push_timer_keyed(now + delay, delay, key, std::move(fn))
                   : q.push_keyed(now + delay, key, std::move(fn));
      } else {
        id = timer ? q.push_timer(now + delay, delay, std::move(fn))
                   : q.push(now + delay, std::move(fn));
      }
      ASSERT_TRUE(model.insert(k).second);
      ASSERT_TRUE(live.emplace(id, k).second) << "id reused while live";
      handed_out.push_back(id);
    } else if (op < 8) {
      if (handed_out.empty()) continue;
      const EventId id = handed_out[rng() % handed_out.size()];
      const auto it = live.find(id);
      const bool expect = it != live.end();
      ASSERT_EQ(q.cancel(id), expect);
      if (expect) {
        model.erase(it->second);
        live.erase(it);
      }
    } else {
      ASSERT_EQ(q.next_time(),
                model.empty() ? kNoTime : std::get<0>(*model.begin()));
      if (model.empty()) {
        ASSERT_TRUE(q.empty());
        continue;
      }
      const EventQueue::Fired f = q.pop();
      const Key want = *model.begin();
      ASSERT_EQ(f.time, std::get<0>(want)) << "step " << step;
      ASSERT_EQ(f.key, make_event_key(std::get<1>(want), std::get<2>(want)))
          << "step " << step;
      const auto it = live.find(f.id);
      ASSERT_NE(it, live.end());
      ASSERT_EQ(it->second, want);
      live.erase(it);
      model.erase(model.begin());
      now = f.time;
    }
    ASSERT_EQ(q.size(), model.size());
  }
  while (!model.empty()) {
    const EventQueue::Fired f = q.pop();
    ASSERT_EQ(f.time, std::get<0>(*model.begin()));
    model.erase(model.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNoTime);
}

TEST(EventQueueTimers, DifferentialLegacyKeys) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    differential(/*site_keys=*/false, seed);
  }
}

TEST(EventQueueTimers, DifferentialSiteKeys) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    differential(/*site_keys=*/true, seed);
  }
}

TEST(Scheduler, RunUntilAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.after(100, [&]() { ++fired; });
  s.after(300, [&]() { ++fired; });
  s.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 200);
  s.run_until(400);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventsScheduleMoreEvents) {
  Scheduler s;
  std::vector<SimTime> times;
  s.after(10, [&]() {
    times.push_back(s.now());
    s.after(10, [&]() { times.push_back(s.now()); });
  });
  s.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Scheduler, CancelTimer) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.after(50, [&]() { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, TimeoutFiresInKeyOrderWithOtherEvents) {
  for (const bool site_keys : {false, true}) {
    Scheduler s;
    if (site_keys) s.enable_site_keys(4);
    std::vector<int> order;
    s.after(30, [&]() { order.push_back(0); });
    const EventId dead = s.timeout(30, [&]() { order.push_back(-1); });
    s.timeout(30, [&]() { order.push_back(1); });
    s.after(30, [&]() { order.push_back(2); });
    s.after(10, [&]() {
      // Armed later from a site lane: due at 10 + 20 = 30, after the rest.
      s.set_context_site(1);
      s.timeout(20, [&]() { order.push_back(3); });
    });
    EXPECT_TRUE(s.cancel(dead));
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3})) << site_keys;
    EXPECT_EQ(s.now(), 30);
  }
}

TEST(Scheduler, RunWindowStopsBeforeEnd) {
  Scheduler s;
  int fired = 0;
  s.timeout(100, [&]() { ++fired; });
  s.after(99, [&]() { ++fired; });
  EXPECT_EQ(s.run_window(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.next_event_time(), 100);
  EXPECT_EQ(s.run_until(100), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilWithoutEventsStillAdvances) {
  Scheduler s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

} // namespace
} // namespace ddbs
