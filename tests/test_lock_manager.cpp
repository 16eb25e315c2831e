#include <gtest/gtest.h>

#include "txn/deadlock.h"
#include "txn/lock_manager.h"

namespace ddbs {
namespace {

TEST(LockManager, SharedLocksCoexist) {
  LockManager lm;
  int granted = 0;
  lm.acquire(1, 10, LockMode::kShared, [&]() { ++granted; });
  lm.acquire(2, 10, LockMode::kShared, [&]() { ++granted; });
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(lm.holds(1, 10));
  EXPECT_TRUE(lm.holds(2, 10));
}

TEST(LockManager, ExclusiveBlocksShared) {
  LockManager lm;
  int granted = 0;
  lm.acquire(1, 10, LockMode::kExclusive, [&]() { ++granted; });
  lm.acquire(2, 10, LockMode::kShared, [&]() { ++granted; });
  EXPECT_EQ(granted, 1);
  lm.release_all(1);
  EXPECT_EQ(granted, 2);
}

TEST(LockManager, SharedBlocksExclusive) {
  LockManager lm;
  bool x_granted = false;
  lm.acquire(1, 10, LockMode::kShared, []() {});
  lm.acquire(2, 10, LockMode::kExclusive, [&]() { x_granted = true; });
  EXPECT_FALSE(x_granted);
  lm.release_all(1);
  EXPECT_TRUE(x_granted);
}

TEST(LockManager, FifoNoWriterStarvation) {
  LockManager lm;
  std::vector<int> order;
  lm.acquire(1, 10, LockMode::kShared, [&]() { order.push_back(1); });
  lm.acquire(2, 10, LockMode::kExclusive, [&]() { order.push_back(2); });
  // A later shared request must queue behind the waiting writer.
  lm.acquire(3, 10, LockMode::kShared, [&]() { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1}));
  lm.release_all(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  lm.release_all(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LockManager, CompatiblePrefixGrantedTogether) {
  LockManager lm;
  int granted = 0;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  lm.acquire(2, 10, LockMode::kShared, [&]() { ++granted; });
  lm.acquire(3, 10, LockMode::kShared, [&]() { ++granted; });
  lm.release_all(1);
  EXPECT_EQ(granted, 2); // both shared waiters granted in one pump
}

TEST(LockManager, ReentrantSameMode) {
  LockManager lm;
  int granted = 0;
  lm.acquire(1, 10, LockMode::kShared, [&]() { ++granted; });
  lm.acquire(1, 10, LockMode::kShared, [&]() { ++granted; });
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(lm.held_count(1), 1u);
}

TEST(LockManager, ExclusiveSubsumesSharedReentry) {
  LockManager lm;
  int granted = 0;
  lm.acquire(1, 10, LockMode::kExclusive, [&]() { ++granted; });
  lm.acquire(1, 10, LockMode::kShared, [&]() { ++granted; });
  EXPECT_EQ(granted, 2);
}

TEST(LockManager, SoleHolderUpgrades) {
  LockManager lm;
  int granted = 0;
  lm.acquire(1, 10, LockMode::kShared, [&]() { ++granted; });
  lm.acquire(1, 10, LockMode::kExclusive, [&]() { ++granted; });
  EXPECT_EQ(granted, 2);
  // Now exclusive: another shared must wait.
  bool s2 = false;
  lm.acquire(2, 10, LockMode::kShared, [&]() { s2 = true; });
  EXPECT_FALSE(s2);
}

TEST(LockManager, UpgradeWaitsForOtherSharers) {
  LockManager lm;
  bool upgraded = false;
  lm.acquire(1, 10, LockMode::kShared, []() {});
  lm.acquire(2, 10, LockMode::kShared, []() {});
  lm.acquire(1, 10, LockMode::kExclusive, [&]() { upgraded = true; });
  EXPECT_FALSE(upgraded);
  lm.release_all(2);
  EXPECT_TRUE(upgraded);
}

TEST(LockManager, CancelWaitingRequest) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  bool granted = false;
  const auto rid =
      lm.acquire(2, 10, LockMode::kShared, [&]() { granted = true; });
  ASSERT_NE(rid, 0u);
  EXPECT_TRUE(lm.cancel(rid));
  lm.release_all(1);
  EXPECT_FALSE(granted);
}

TEST(LockManager, CancelGrantedReturnsFalse) {
  LockManager lm;
  const auto rid = lm.acquire(1, 10, LockMode::kShared, []() {});
  EXPECT_EQ(rid, 0u); // granted synchronously -> no live request id
  EXPECT_FALSE(lm.cancel(1234));
}

TEST(LockManager, ReleaseAllCancelsWaits) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  bool granted2 = false;
  lm.acquire(2, 10, LockMode::kShared, [&]() { granted2 = true; });
  lm.release_all(2); // txn 2 aborts while waiting
  lm.release_all(1);
  EXPECT_FALSE(granted2);
}

TEST(LockManager, WaitEdgesReflectWaiters) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  lm.acquire(2, 10, LockMode::kExclusive, []() {});
  const auto edges = lm.wait_edges();
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges[0].first, 2u);
  EXPECT_EQ(edges[0].second, 1u);
}

TEST(LockManager, ClearDropsEverything) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  lm.acquire(2, 10, LockMode::kShared, []() {});
  lm.clear();
  bool granted = false;
  lm.acquire(3, 10, LockMode::kExclusive, [&]() { granted = true; });
  EXPECT_TRUE(granted);
}

TEST(LockManager, QueuedUpgradeGrantedWhenSoleHolder) {
  LockManager lm;
  bool upgraded = false;
  lm.acquire(1, 10, LockMode::kShared, []() {});
  lm.acquire(2, 10, LockMode::kShared, []() {});
  // Txn 1's upgrade queues (not sole holder). A later shared request from
  // txn 3 queues behind the upgrade and must NOT jump it when txn 2
  // releases -- the upgrade is first in FIFO order and incompatible with
  // the grant of 3.
  bool s3 = false;
  lm.acquire(1, 10, LockMode::kExclusive, [&]() { upgraded = true; });
  lm.acquire(3, 10, LockMode::kShared, [&]() { s3 = true; });
  EXPECT_FALSE(upgraded);
  EXPECT_FALSE(s3);
  lm.release_all(2);
  EXPECT_TRUE(upgraded); // sole holder now; upgraded in place
  EXPECT_FALSE(s3);      // X held by 1
  lm.release_all(1);
  EXPECT_TRUE(s3);
}

TEST(LockManager, CancelAfterGrantIsRejected) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  bool granted = false;
  const auto rid =
      lm.acquire(2, 10, LockMode::kShared, [&]() { granted = true; });
  ASSERT_NE(rid, 0u);
  EXPECT_TRUE(lm.is_waiting(rid));
  lm.release_all(1);
  EXPECT_TRUE(granted);
  // The waiter slot is recycled; the old id's generation no longer
  // matches, so a late cancel (e.g. a stale lock-timeout timer) is a
  // no-op even after the slot is reused by another waiter.
  EXPECT_FALSE(lm.is_waiting(rid));
  EXPECT_FALSE(lm.cancel(rid));
  lm.acquire(3, 10, LockMode::kExclusive, []() {});
  bool w4 = false;
  const auto rid4 = lm.acquire(4, 10, LockMode::kShared, [&]() { w4 = true; });
  ASSERT_NE(rid4, 0u);
  EXPECT_NE(rid4, rid); // generation differs even if the slot is reused
  EXPECT_FALSE(lm.cancel(rid));
  EXPECT_TRUE(lm.is_waiting(rid4)); // stale cancel did not kill the new waiter
  lm.release_all(3);
  EXPECT_TRUE(w4);
}

TEST(LockManager, ReentrantAcquireFromGrantCallback) {
  LockManager lm;
  // The grant callback immediately acquires another lock (the DM's chain
  // advance does exactly this) and even the SAME lock re-entrantly; both
  // must be granted synchronously without corrupting the pump.
  bool inner_same = false, inner_other = false, outer = false;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  lm.acquire(2, 10, LockMode::kExclusive, [&]() {
    outer = true;
    lm.acquire(2, 10, LockMode::kShared, [&]() { inner_same = true; });
    lm.acquire(2, 11, LockMode::kExclusive, [&]() { inner_other = true; });
  });
  EXPECT_FALSE(outer);
  lm.release_all(1);
  EXPECT_TRUE(outer);
  EXPECT_TRUE(inner_same);
  EXPECT_TRUE(inner_other);
  EXPECT_TRUE(lm.holds(2, 10));
  EXPECT_TRUE(lm.holds(2, 11));
  EXPECT_EQ(lm.held_count(2), 2u);
}

TEST(LockManager, ReleaseAllWithManyWaitersAcrossItems) {
  // Regression shape for the old O(queue-length) cancel/release scans: one
  // txn holds many items, each with several waiters; release_all must
  // grant every compatible head and leave no stragglers.
  LockManager lm;
  constexpr int kItems = 64;
  int granted = 0;
  for (int i = 0; i < kItems; ++i) {
    lm.acquire(1, static_cast<ItemId>(i), LockMode::kExclusive, []() {});
  }
  for (int i = 0; i < kItems; ++i) {
    lm.acquire(2 + static_cast<TxnId>(i), static_cast<ItemId>(i),
               LockMode::kExclusive, [&]() { ++granted; });
    lm.acquire(100 + static_cast<TxnId>(i), static_cast<ItemId>(i),
               LockMode::kShared, [&]() { ++granted; });
  }
  EXPECT_EQ(granted, 0);
  EXPECT_TRUE(lm.has_waiters());
  lm.release_all(1);
  EXPECT_EQ(granted, kItems); // one X waiter per item; S stays queued
  for (int i = 0; i < kItems; ++i) {
    lm.release_all(2 + static_cast<TxnId>(i));
  }
  EXPECT_EQ(granted, 2 * kItems);
  EXPECT_FALSE(lm.has_waiters());
}

TEST(LockManager, WaitGraphEpochBumpsOnEnqueueOnly) {
  LockManager lm;
  const uint64_t e0 = lm.wait_graph_epoch();
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  EXPECT_EQ(lm.wait_graph_epoch(), e0); // synchronous grant: no new edge
  const auto rid = lm.acquire(2, 10, LockMode::kShared, []() {});
  const uint64_t e1 = lm.wait_graph_epoch();
  EXPECT_NE(e1, e0);
  lm.cancel(rid); // removals do not bump: they cannot create a cycle
  EXPECT_EQ(lm.wait_graph_epoch(), e1);
  lm.release_all(1);
  EXPECT_EQ(lm.wait_graph_epoch(), e1);
}

TEST(LockManager, WaitEdgesSkipCompatibleSharedHolders) {
  LockManager lm;
  // S holders 1,2; queued X from 3; queued S from 4. Edges needed: 3->1,
  // 3->2 (conflicting holders) and 4->3 (earlier incompatible waiter).
  // 4->{1,2} would be redundant: 4's wait on the holders is transitively
  // covered through 3, and dropping it is what keeps the status-item
  // S-churn out of the deadlock sweep.
  lm.acquire(1, 10, LockMode::kShared, []() {});
  lm.acquire(2, 10, LockMode::kShared, []() {});
  lm.acquire(3, 10, LockMode::kExclusive, []() {});
  lm.acquire(4, 10, LockMode::kShared, []() {});
  const auto edges = lm.wait_edges();
  auto has = [&](TxnId a, TxnId b) {
    for (const auto& [x, y] : edges) {
      if (x == a && y == b) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(3, 1));
  EXPECT_TRUE(has(3, 2));
  EXPECT_TRUE(has(4, 3));
  EXPECT_FALSE(has(4, 1));
  EXPECT_FALSE(has(4, 2));
  EXPECT_EQ(edges.size(), 3u);
}

// ---- deadlock detector ----

// ---------------------------------------------------------------------------
// try_acquire_all: the no-wait round's all-or-nothing primitive.

using Locks = std::vector<std::pair<ItemId, LockMode>>;

TEST(LockManager, TryAcquireAllIsAllOrNothing) {
  LockManager lm;
  lm.acquire(1, 20, LockMode::kExclusive, []() {});
  std::vector<LockManager::Grant> grants;
  const Locks want{{10, LockMode::kShared},
                   {20, LockMode::kShared},
                   {30, LockMode::kExclusive}};
  EXPECT_EQ(lm.try_acquire_all(2, want, &grants),
            LockManager::TryResult::kHeld);
  EXPECT_TRUE(grants.empty());
  EXPECT_EQ(lm.held_count(2), 0u); // item 10 was free, yet not taken
  EXPECT_TRUE(lm.holders_of(10).empty());
  lm.release_all(1);
  EXPECT_EQ(lm.try_acquire_all(2, want, &grants),
            LockManager::TryResult::kGranted);
  EXPECT_EQ(grants.size(), 3u);
  EXPECT_EQ(lm.held_count(2), 3u);
  EXPECT_TRUE(lm.holds(2, 30));
}

TEST(LockManager, TryAcquireAllNeverBargesPastAQueuedWaiter) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kShared, []() {});
  bool x_granted = false;
  lm.acquire(2, 10, LockMode::kExclusive, [&]() { x_granted = true; });
  // Compatible with the S holder, but the X waiter is ahead.
  std::vector<LockManager::Grant> grants;
  EXPECT_EQ(lm.try_acquire_all(3, {{10, LockMode::kShared}}, &grants),
            LockManager::TryResult::kQueued);
  EXPECT_EQ(lm.held_count(3), 0u);
  lm.release_all(1);
  EXPECT_TRUE(x_granted);
}

TEST(LockManager, TryAcquireAllNeverEntersTheWaitForGraph) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kExclusive, []() {});
  const uint64_t epoch = lm.wait_graph_epoch();
  std::vector<LockManager::Grant> grants;
  EXPECT_EQ(lm.try_acquire_all(2, {{10, LockMode::kExclusive}}, &grants),
            LockManager::TryResult::kHeld);
  EXPECT_FALSE(lm.has_waiters());
  EXPECT_TRUE(lm.wait_edges().empty());
  EXPECT_TRUE(lm.waiting_txns().empty());
  EXPECT_EQ(lm.wait_graph_epoch(), epoch);
}

TEST(LockManager, RetractUndoesUpgradesAndNewHoldsOnly) {
  LockManager lm;
  lm.acquire(1, 10, LockMode::kShared, []() {});    // held before the try
  lm.acquire(1, 30, LockMode::kExclusive, []() {}); // held before the try
  std::vector<LockManager::Grant> grants;
  ASSERT_EQ(lm.try_acquire_all(1,
                               {{10, LockMode::kExclusive},
                                {20, LockMode::kExclusive},
                                {30, LockMode::kShared}},
                               &grants),
            LockManager::TryResult::kGranted);
  EXPECT_EQ(grants.size(), 2u); // the upgrade of 10 and the new hold of 20
  bool s_granted = false, x_granted = false;
  lm.acquire(2, 10, LockMode::kShared, [&]() { s_granted = true; });
  lm.acquire(3, 20, LockMode::kExclusive, [&]() { x_granted = true; });
  EXPECT_FALSE(s_granted);
  EXPECT_FALSE(x_granted);
  lm.retract(1, grants);
  // Back to S on 10 (shared with the waiter now), 20 given up, 30 kept.
  EXPECT_TRUE(s_granted);
  EXPECT_TRUE(x_granted);
  EXPECT_TRUE(lm.holds(1, 10));
  EXPECT_FALSE(lm.holds(1, 20));
  EXPECT_TRUE(lm.holds(1, 30));
  EXPECT_EQ(lm.held_count(1), 2u);
}

TEST(LockManager, BehindHoldersWaitsForHoldersButNeverBehindAWaiter) {
  using Wait = LockManager::Wait;
  LockManager lm;
  int granted = 0;
  auto grant = [&]() { ++granted; };
  lm.acquire(1, 10, LockMode::kShared, grant);
  lm.acquire(2, 10, LockMode::kShared, grant);
  // Conflicts with the holders only: it waits, and the wait is an edge.
  const uint64_t epoch = lm.wait_graph_epoch();
  const auto x = lm.acquire(3, 10, LockMode::kExclusive, grant,
                            Wait::kBehindHolders);
  EXPECT_NE(x, LockManager::kRefused);
  EXPECT_TRUE(lm.is_waiting(x));
  EXPECT_GT(lm.wait_graph_epoch(), epoch);
  // Would queue behind txn 3: refused, with nothing changed. A compatible
  // S request is refused too, since FIFO would queue it behind the X.
  const uint64_t queued = lm.wait_graph_epoch();
  bool late = false;
  EXPECT_EQ(lm.acquire(4, 10, LockMode::kShared, [&]() { late = true; },
                       Wait::kBehindHolders),
            LockManager::kRefused);
  EXPECT_EQ(lm.acquire(5, 10, LockMode::kExclusive, [&]() { late = true; },
                       Wait::kBehindHolders),
            LockManager::kRefused);
  EXPECT_EQ(lm.wait_graph_epoch(), queued);
  EXPECT_EQ(lm.waiting_txns(), std::vector<TxnId>{3});
  EXPECT_EQ(lm.held_count(4), 0u);
  // A FIFO request still queues behind the waiter.
  const auto fifo = lm.acquire(6, 10, LockMode::kShared, grant);
  EXPECT_TRUE(lm.is_waiting(fifo));
  EXPECT_EQ(granted, 2);
  lm.release_all(1);
  lm.release_all(2);
  EXPECT_TRUE(lm.holds(3, 10));
  EXPECT_TRUE(lm.is_waiting(fifo));
  lm.release_all(3);
  EXPECT_TRUE(lm.holds(6, 10));
  EXPECT_FALSE(late);
  // Free item, or only the caller's own request queued: no refusal.
  EXPECT_EQ(lm.acquire(7, 11, LockMode::kExclusive, grant,
                       Wait::kBehindHolders),
            0u);
  const auto own = lm.acquire(8, 11, LockMode::kShared, grant);
  EXPECT_TRUE(lm.is_waiting(own));
  const auto again = lm.acquire(8, 11, LockMode::kExclusive, grant,
                                Wait::kBehindHolders);
  EXPECT_NE(again, LockManager::kRefused);
  EXPECT_TRUE(lm.is_waiting(again));
}

TEST(Deadlock, FindsSimpleCycle) {
  std::vector<std::pair<TxnId, TxnId>> edges{{1, 2}, {2, 1}};
  std::vector<DeadlockCandidate> cands{{1, TxnKind::kUser},
                                       {2, TxnKind::kUser}};
  auto victim = DeadlockDetector::find_victim(edges, cands);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u); // youngest (largest id) among users
}

TEST(Deadlock, NoCycleNoVictim) {
  std::vector<std::pair<TxnId, TxnId>> edges{{1, 2}, {2, 3}};
  std::vector<DeadlockCandidate> cands{{1, TxnKind::kUser},
                                       {2, TxnKind::kUser},
                                       {3, TxnKind::kUser}};
  EXPECT_FALSE(DeadlockDetector::find_victim(edges, cands).has_value());
}

TEST(Deadlock, PrefersUserOverControl) {
  std::vector<std::pair<TxnId, TxnId>> edges{{1, 2}, {2, 1}};
  std::vector<DeadlockCandidate> cands{{1, TxnKind::kUser},
                                       {2, TxnKind::kControlUp}};
  auto victim = DeadlockDetector::find_victim(edges, cands);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1u); // user aborts so recovery can proceed
}

TEST(Deadlock, VictimMustBeLocalCandidate) {
  std::vector<std::pair<TxnId, TxnId>> edges{{1, 2}, {2, 1}};
  std::vector<DeadlockCandidate> cands{{3, TxnKind::kUser}};
  EXPECT_FALSE(DeadlockDetector::find_victim(edges, cands).has_value());
}

TEST(Deadlock, ThreeWayCycle) {
  std::vector<std::pair<TxnId, TxnId>> edges{{1, 2}, {2, 3}, {3, 1}};
  std::vector<DeadlockCandidate> cands{{1, TxnKind::kUser},
                                       {2, TxnKind::kUser},
                                       {3, TxnKind::kCopier}};
  auto victim = DeadlockDetector::find_victim(edges, cands);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u); // users outrank the copier; youngest user
}

} // namespace
} // namespace ddbs
