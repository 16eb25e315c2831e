// Strict two-phase locking: per-copy shared/exclusive locks with FIFO
// queues and upgrade support. The lock manager is purely local to one
// site's DM and purely mechanical -- wait policies (timeouts, deadlock
// victims) are decided by the DM, which owns the timers.
//
// Grant callbacks may run synchronously from acquire() (uncontended path)
// or later from release_all(); they must tolerate both.
//
// Layout: lock heads and waiters live in dense slabs with free lists.
// Items map to heads through an open-addressed table (one probe, no node
// allocation); waiter queues and per-transaction wait lists are intrusive
// doubly-linked lists threaded through the waiter slab, so cancel() and
// release_all() unlink in O(1) per request instead of scanning deques.
// Grant callbacks are 64-byte-SBO InlineFns (no heap allocation for the
// usual {chain pointer} capture). Heads with a nonempty queue form an
// intrusive "contended" list so wait_edges()/waiting_txns() walk only
// items somebody actually waits on. pump() addresses its head by slab
// index and re-fetches after every grant callback: callbacks may re-enter
// acquire() and grow the slabs, which would invalidate any held reference
// (the same node-stability contract the old std::map layout provided).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/small_vec.h"
#include "common/types.h"
#include "common/u64_table.h"
#include "sim/inline_fn.h"

namespace ddbs {

enum class LockMode : uint8_t { kShared, kExclusive };

class LockManager {
 public:
  using RequestId = uint64_t;
  using GrantFn = InlineFn;

  // How a request that cannot be granted now may wait. kFifo queues it
  // behind everyone. kBehindHolders lets it wait only for the holders: a
  // request that would queue behind another transaction's queued request
  // is refused instead (acquire returns kRefused, `on_grant` never runs
  // and nothing changes, the wait-graph epoch included), so a queue of
  // such requests is at most one waiter deep.
  enum class Wait : uint8_t { kFifo, kBehindHolders };
  static constexpr RequestId kRefused = ~RequestId{0};

  // Queue a lock request. If grantable now, `on_grant` runs synchronously
  // and the returned id is already inactive. Re-entrant requests (same txn,
  // same or weaker mode) are granted immediately; a sole-holder S->X
  // upgrade is granted in place, otherwise the upgrade waits its turn.
  RequestId acquire(TxnId txn, ItemId item, LockMode mode, GrantFn on_grant,
                    Wait wait = Wait::kFifo);

  // All-or-nothing, never waits: grant every lock in `locks` (distinct
  // items) now, or none. A lock is free when it is compatible with the
  // holders and no waiter is queued ahead (re-entrant requests and
  // sole-holder upgrades with an empty queue count), so the request never
  // barges and never appears in wait_edges(). On kGranted, `undo` gets
  // what changed, for retract(). kHeld: some holder conflicts; kQueued:
  // only a queued waiter stands in the way.
  enum class TryResult : uint8_t { kGranted, kHeld, kQueued };
  struct Grant {
    ItemId item = 0;
    bool upgraded = false; // S -> X in place; else newly held
  };
  TryResult try_acquire_all(TxnId txn,
                            const std::vector<std::pair<ItemId, LockMode>>& locks,
                            std::vector<Grant>* undo);
  // Give back what try_acquire_all granted (undo upgrades, release new
  // holds), then grant newly compatible waiters.
  void retract(TxnId txn, const std::vector<Grant>& grants);

  // Remove a waiting request without granting it (lock timeout / deadlock
  // victim). Returns false if it was already granted or never existed.
  bool cancel(RequestId id);

  // Release everything `txn` holds and cancel everything it waits for,
  // then grant newly compatible waiters (their callbacks run inside).
  void release_all(TxnId txn);

  bool holds(TxnId txn, ItemId item) const;
  bool is_waiting(RequestId id) const;

  // Current holders of an item's lock (diagnostics / tests).
  std::vector<std::pair<TxnId, LockMode>> holders_of(ItemId item) const;

  // txn -> txn edges "waiter waits for holder", for the deadlock detector.
  // Walks only contended items; cost is proportional to actual waiters.
  std::vector<std::pair<TxnId, TxnId>> wait_edges() const;

  // Transactions currently waiting on at least one lock.
  std::vector<TxnId> waiting_txns() const;

  size_t held_count(TxnId txn) const;

  // O(1): anyone waiting at all? Lets the deadlock sweep early-out.
  bool has_waiters() const { return waiter_count_ > 0; }

  // Bumped whenever a new wait edge can appear (a request queues up). A
  // sweep that found no cycle at epoch E can be skipped while the epoch
  // stays E: releases/cancels only remove edges, never create cycles.
  uint64_t wait_graph_epoch() const { return wait_epoch_; }

  void clear(); // site crash: all volatile lock state vanishes

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  struct Waiter {
    TxnId txn = 0;
    GrantFn on_grant;
    uint32_t gen = 0;  // matches the id's high half while active
    uint32_t head = kNil;
    uint32_t q_prev = kNil, q_next = kNil; // item FIFO queue
    uint32_t t_prev = kNil, t_next = kNil; // this txn's wait list
    LockMode mode = LockMode::kShared;
    bool active = false;
  };

  struct ItemHead {
    ItemId item = 0;
    SmallVec<Holder, 4> holders;
    uint32_t q_head = kNil, q_tail = kNil;
    uint32_t c_prev = kNil, c_next = kNil; // contended list
    uint32_t free_next = kNil;
    bool contended = false;
    bool pumping = false;
    bool in_use = false;
  };

  struct TxnState {
    // Head indices of held locks; heads stay alive while held, so the
    // indices cannot be recycled underneath us.
    std::vector<uint32_t> held;
    uint32_t wait_head = kNil; // first waiter of this txn
    uint32_t free_next = kNil;
    bool in_use = false;
  };

  uint32_t find_head(ItemId item) const;
  uint32_t get_or_make_head(ItemId item);
  void free_head_if_idle(uint32_t h);
  uint32_t txn_state_of(TxnId txn);
  void release_txn_state_if_idle(TxnId txn, uint32_t t);
  static int holder_index(const ItemHead& hd, TxnId txn);
  static bool compatible(const ItemHead& hd, TxnId txn, LockMode mode);
  // Some other transaction has a request queued on this item.
  bool other_waiter(const ItemHead& hd, TxnId txn) const;
  RequestId enqueue(uint32_t h, TxnId txn, LockMode mode, GrantFn fn);
  void unlink_waiter(uint32_t wi);
  // Drop txn's hold on head h (its held list is the caller's).
  static void remove_holder(ItemHead& hd, TxnId txn);
  void mark_contended(uint32_t h);
  void unmark_contended(uint32_t h);
  void pump(uint32_t h);

  std::vector<ItemHead> heads_;
  std::vector<Waiter> waiters_;
  std::vector<TxnState> txn_states_;
  U64Table<uint32_t> item_index_; // item+1 -> heads_ index (0 reserved)
  U64Table<uint32_t> txn_index_;  // txn+1 -> txn_states_ index
  uint32_t head_free_ = kNil;
  uint32_t waiter_free_ = kNil;
  uint32_t txn_free_ = kNil;
  uint32_t contended_head_ = kNil;
  uint32_t next_gen_ = 1; // monotonic: ids never alias across reuse/clear
  size_t waiter_count_ = 0;
  uint64_t wait_epoch_ = 0;
};

} // namespace ddbs
