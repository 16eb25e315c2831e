#include "txn/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace ddbs {

namespace {
inline uint64_t item_key(ItemId item) {
  return static_cast<uint64_t>(item) + 1; // table reserves key 0
}
inline uint64_t txn_key(TxnId txn) { return txn + 1; }
} // namespace

uint32_t LockManager::find_head(ItemId item) const {
  const uint32_t* h = item_index_.find(item_key(item));
  return h == nullptr ? kNil : *h;
}

uint32_t LockManager::get_or_make_head(ItemId item) {
  if (uint32_t* h = item_index_.find(item_key(item)); h != nullptr) return *h;
  uint32_t h;
  if (head_free_ != kNil) {
    h = head_free_;
    head_free_ = heads_[h].free_next;
  } else {
    h = static_cast<uint32_t>(heads_.size());
    heads_.emplace_back();
  }
  ItemHead& hd = heads_[h];
  hd.item = item;
  hd.holders.clear();
  hd.q_head = hd.q_tail = kNil;
  hd.c_prev = hd.c_next = kNil;
  hd.free_next = kNil;
  hd.contended = false;
  hd.pumping = false;
  hd.in_use = true;
  item_index_.insert(item_key(item), h);
  return h;
}

void LockManager::free_head_if_idle(uint32_t h) {
  ItemHead& hd = heads_[h];
  if (!hd.in_use || hd.pumping) return;
  if (hd.q_head != kNil || !hd.holders.empty()) return;
  assert(!hd.contended);
  item_index_.erase(item_key(hd.item));
  hd.in_use = false;
  hd.free_next = head_free_;
  head_free_ = h;
}

uint32_t LockManager::txn_state_of(TxnId txn) {
  if (uint32_t* t = txn_index_.find(txn_key(txn)); t != nullptr) return *t;
  uint32_t t;
  if (txn_free_ != kNil) {
    t = txn_free_;
    txn_free_ = txn_states_[t].free_next;
  } else {
    t = static_cast<uint32_t>(txn_states_.size());
    txn_states_.emplace_back();
  }
  TxnState& st = txn_states_[t];
  st.held.clear();
  st.wait_head = kNil;
  st.free_next = kNil;
  st.in_use = true;
  txn_index_.insert(txn_key(txn), t);
  return t;
}

void LockManager::release_txn_state_if_idle(TxnId txn, uint32_t t) {
  TxnState& st = txn_states_[t];
  if (!st.in_use || !st.held.empty() || st.wait_head != kNil) return;
  txn_index_.erase(txn_key(txn));
  st.in_use = false;
  st.free_next = txn_free_;
  txn_free_ = t;
}

int LockManager::holder_index(const ItemHead& hd, TxnId txn) {
  for (size_t i = 0; i < hd.holders.size(); ++i) {
    if (hd.holders[i].txn == txn) return static_cast<int>(i);
  }
  return -1;
}

bool LockManager::compatible(const ItemHead& hd, TxnId txn, LockMode mode) {
  for (const Holder& h : hd.holders) {
    if (h.txn == txn) continue; // own lock never conflicts (upgrade path)
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

bool LockManager::other_waiter(const ItemHead& hd, TxnId txn) const {
  for (uint32_t wi = hd.q_head; wi != kNil; wi = waiters_[wi].q_next) {
    if (waiters_[wi].txn != txn) return true;
  }
  return false;
}

void LockManager::mark_contended(uint32_t h) {
  ItemHead& hd = heads_[h];
  if (hd.contended) return;
  hd.contended = true;
  hd.c_prev = kNil;
  hd.c_next = contended_head_;
  if (contended_head_ != kNil) heads_[contended_head_].c_prev = h;
  contended_head_ = h;
}

void LockManager::unmark_contended(uint32_t h) {
  ItemHead& hd = heads_[h];
  if (!hd.contended) return;
  hd.contended = false;
  if (hd.c_prev != kNil) {
    heads_[hd.c_prev].c_next = hd.c_next;
  } else {
    contended_head_ = hd.c_next;
  }
  if (hd.c_next != kNil) heads_[hd.c_next].c_prev = hd.c_prev;
  hd.c_prev = hd.c_next = kNil;
}

LockManager::RequestId LockManager::enqueue(uint32_t h, TxnId txn, LockMode mode,
                              GrantFn fn) {
  uint32_t wi;
  if (waiter_free_ != kNil) {
    wi = waiter_free_;
    waiter_free_ = waiters_[wi].q_next; // q_next doubles as free link
  } else {
    wi = static_cast<uint32_t>(waiters_.size());
    waiters_.emplace_back();
  }
  const uint32_t t = txn_state_of(txn); // may grow txn_states_, not waiters_
  Waiter& w = waiters_[wi];
  w.txn = txn;
  w.on_grant = std::move(fn);
  w.gen = next_gen_++;
  w.head = h;
  w.mode = mode;
  w.active = true;
  // Item FIFO queue: append at tail.
  ItemHead& hd = heads_[h];
  w.q_prev = hd.q_tail;
  w.q_next = kNil;
  if (hd.q_tail != kNil) {
    waiters_[hd.q_tail].q_next = wi;
  } else {
    hd.q_head = wi;
  }
  hd.q_tail = wi;
  // Txn wait list: push front (unordered; only walked wholesale).
  TxnState& st = txn_states_[t];
  w.t_prev = kNil;
  w.t_next = st.wait_head;
  if (st.wait_head != kNil) waiters_[st.wait_head].t_prev = wi;
  st.wait_head = wi;
  mark_contended(h);
  ++waiter_count_;
  ++wait_epoch_; // a new wait edge may exist now
  return (static_cast<uint64_t>(w.gen) << 32) | wi;
}

void LockManager::unlink_waiter(uint32_t wi) {
  Waiter& w = waiters_[wi];
  ItemHead& hd = heads_[w.head];
  // Queue unlink.
  if (w.q_prev != kNil) {
    waiters_[w.q_prev].q_next = w.q_next;
  } else {
    hd.q_head = w.q_next;
  }
  if (w.q_next != kNil) {
    waiters_[w.q_next].q_prev = w.q_prev;
  } else {
    hd.q_tail = w.q_prev;
  }
  if (hd.q_head == kNil) unmark_contended(w.head);
  // Txn wait-list unlink.
  if (w.t_prev != kNil) {
    waiters_[w.t_prev].t_next = w.t_next;
  } else if (uint32_t* t = txn_index_.find(txn_key(w.txn)); t != nullptr) {
    txn_states_[*t].wait_head = w.t_next;
  }
  if (w.t_next != kNil) waiters_[w.t_next].t_prev = w.t_prev;
  // Return to the free list (q_next doubles as the free link).
  w.active = false;
  w.on_grant.reset();
  w.q_next = waiter_free_;
  waiter_free_ = wi;
  --waiter_count_;
}

LockManager::RequestId LockManager::acquire(TxnId txn, ItemId item,
                                            LockMode mode, GrantFn on_grant,
                                            Wait wait) {
  const uint32_t h = get_or_make_head(item);
  ItemHead& hd = heads_[h];

  // Re-entrant: already holds an equal-or-stronger lock.
  if (const int hidx = holder_index(hd, txn); hidx >= 0) {
    if (hd.holders[hidx].mode == LockMode::kExclusive ||
        mode == LockMode::kShared) {
      on_grant();
      return 0;
    }
    // S -> X upgrade: grant in place when sole holder AND no earlier waiter
    // is queued for X (prevents upgrade jumping over a waiting writer and
    // starving it forever; a queued waiter will be granted fairly).
    if (hd.holders.size() == 1 && hd.q_head == kNil) {
      hd.holders[hidx].mode = LockMode::kExclusive;
      on_grant();
      return 0;
    }
    // Fall through: wait like everyone else. On grant the holder entry is
    // updated to X.
  } else if (hd.q_head == kNil && compatible(hd, txn, mode)) {
    hd.holders.push_back(Holder{txn, mode});
    const uint32_t t = txn_state_of(txn);
    txn_states_[t].held.push_back(h);
    on_grant();
    return 0;
  }

  if (wait == Wait::kBehindHolders && other_waiter(hd, txn)) return kRefused;
  return enqueue(h, txn, mode, std::move(on_grant));
}

LockManager::TryResult LockManager::try_acquire_all(
    TxnId txn, const std::vector<std::pair<ItemId, LockMode>>& locks,
    std::vector<Grant>* undo) {
  TryResult busy = TryResult::kGranted;
  for (const auto& [item, mode] : locks) {
    const uint32_t h = find_head(item);
    if (h == kNil) continue;
    const ItemHead& hd = heads_[h];
    const int hidx = holder_index(hd, txn);
    if (hidx >= 0 && (hd.holders[hidx].mode == LockMode::kExclusive ||
                      mode == LockMode::kShared)) {
      continue; // re-entrant
    }
    const bool holders_ok =
        hidx >= 0 ? hd.holders.size() == 1 : compatible(hd, txn, mode);
    if (!holders_ok) return TryResult::kHeld;
    if (hd.q_head != kNil) busy = TryResult::kQueued;
  }
  if (busy != TryResult::kGranted) return busy;
  for (const auto& [item, mode] : locks) {
    const uint32_t h = get_or_make_head(item);
    ItemHead& hd = heads_[h];
    if (const int hidx = holder_index(hd, txn); hidx >= 0) {
      if (hd.holders[hidx].mode == LockMode::kShared &&
          mode == LockMode::kExclusive) {
        hd.holders[hidx].mode = LockMode::kExclusive;
        undo->push_back(Grant{item, true});
      }
      continue;
    }
    hd.holders.push_back(Holder{txn, mode});
    txn_states_[txn_state_of(txn)].held.push_back(h);
    undo->push_back(Grant{item, false});
  }
  return TryResult::kGranted;
}

void LockManager::remove_holder(ItemHead& hd, TxnId txn) {
  if (const int hidx = holder_index(hd, txn); hidx >= 0) {
    for (size_t i = hidx; i + 1 < hd.holders.size(); ++i) {
      hd.holders[i] = hd.holders[i + 1];
    }
    hd.holders.pop_back();
  }
}

void LockManager::retract(TxnId txn, const std::vector<Grant>& grants) {
  std::vector<uint32_t> to_pump;
  to_pump.reserve(grants.size());
  for (const Grant& g : grants) {
    const uint32_t h = find_head(g.item);
    if (h == kNil) continue;
    ItemHead& hd = heads_[h];
    if (g.upgraded) {
      if (const int hidx = holder_index(hd, txn); hidx >= 0) {
        hd.holders[hidx].mode = LockMode::kShared;
      }
    } else {
      remove_holder(hd, txn);
      if (uint32_t* t = txn_index_.find(txn_key(txn)); t != nullptr) {
        auto& held = txn_states_[*t].held;
        const auto it = std::find(held.begin(), held.end(), h);
        if (it != held.end()) held.erase(it);
        release_txn_state_if_idle(txn, *t);
      }
    }
    to_pump.push_back(h);
  }
  // As in release_all: a grant callback may free or recycle a later head.
  for (uint32_t h : to_pump) {
    if (h < heads_.size() && heads_[h].in_use) pump(h);
  }
}

bool LockManager::cancel(RequestId id) {
  const uint32_t wi = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (wi >= waiters_.size()) return false;
  Waiter& w = waiters_[wi];
  if (!w.active || w.gen != gen) return false;
  const TxnId txn = w.txn;
  const uint32_t h = w.head;
  unlink_waiter(wi);
  if (uint32_t* t = txn_index_.find(txn_key(txn)); t != nullptr) {
    release_txn_state_if_idle(txn, *t);
  }
  pump(h);
  return true;
}

void LockManager::pump(uint32_t h) {
  // Grant the longest compatible prefix of the queue (FIFO fairness: stop
  // at the first waiter that cannot be granted). Grant callbacks can
  // re-enter acquire()/cancel()/release_all() and grow every slab, so the
  // head is addressed by index and re-fetched after every callback; the
  // pumping flag turns nested pumps of this same head into no-ops (the
  // outer loop re-examines the queue anyway) and pins the head so it
  // cannot be freed and recycled mid-pump.
  if (heads_[h].pumping) return;
  heads_[h].pumping = true;
  while (true) {
    ItemHead& hd = heads_[h];
    const uint32_t wi = hd.q_head;
    if (wi == kNil) break;
    Waiter& w = waiters_[wi];
    const int hidx = holder_index(hd, w.txn);
    const bool upgrade = hidx >= 0;
    const bool ok = upgrade ? hd.holders.size() == 1 // sole holder may upgrade
                            : compatible(hd, w.txn, w.mode);
    if (!ok) break;
    GrantFn grant = std::move(w.on_grant);
    const TxnId txn = w.txn;
    const LockMode mode = w.mode;
    unlink_waiter(wi);
    if (upgrade) {
      hd.holders[hidx].mode = LockMode::kExclusive;
    } else {
      hd.holders.push_back(Holder{txn, mode});
      const uint32_t t = txn_state_of(txn); // grows txn slab only
      txn_states_[t].held.push_back(h);
    }
    grant();
  }
  heads_[h].pumping = false;
  free_head_if_idle(h);
}

void LockManager::release_all(TxnId txn) {
  uint32_t* tp = txn_index_.find(txn_key(txn));
  if (tp == nullptr) return;
  const uint32_t t = *tp;
  // Detach the whole state first: the pumps below run grant callbacks that
  // can recursively create/destroy txn states and reallocate the slab.
  std::vector<uint32_t> held = std::move(txn_states_[t].held);
  uint32_t wi = txn_states_[t].wait_head;
  txn_states_[t].held.clear();
  txn_states_[t].wait_head = kNil;
  release_txn_state_if_idle(txn, t);

  std::vector<uint32_t> to_pump;
  to_pump.reserve(held.size() + 4);
  for (uint32_t h : held) {
    remove_holder(heads_[h], txn);
    to_pump.push_back(h);
  }
  // Cancel waiting requests of this txn everywhere: O(own waiters), each an
  // O(1) unlink.
  while (wi != kNil) {
    Waiter& w = waiters_[wi];
    const uint32_t next = w.t_next;
    to_pump.push_back(w.head);
    unlink_waiter(wi);
    wi = next;
  }
  for (uint32_t h : to_pump) {
    // A grant callback from an earlier pump may have freed (or even
    // recycled) this head; a pump on the wrong head is harmless -- it only
    // grants waiters that are grantable anyway -- so an in_use check is
    // all that is needed.
    if (h < heads_.size() && heads_[h].in_use) pump(h);
  }
}

bool LockManager::holds(TxnId txn, ItemId item) const {
  const uint32_t h = find_head(item);
  return h != kNil && holder_index(heads_[h], txn) >= 0;
}

bool LockManager::is_waiting(RequestId id) const {
  const uint32_t wi = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  return wi < waiters_.size() && waiters_[wi].active &&
         waiters_[wi].gen == gen;
}

std::vector<std::pair<TxnId, LockMode>> LockManager::holders_of(
    ItemId item) const {
  std::vector<std::pair<TxnId, LockMode>> out;
  const uint32_t h = find_head(item);
  if (h != kNil) {
    for (const Holder& hold : heads_[h].holders) {
      out.emplace_back(hold.txn, hold.mode);
    }
  }
  return out;
}

std::vector<std::pair<TxnId, TxnId>> LockManager::wait_edges() const {
  std::vector<std::pair<TxnId, TxnId>> edges;
  for (uint32_t h = contended_head_; h != kNil; h = heads_[h].c_next) {
    const ItemHead& hd = heads_[h];
    for (uint32_t wi = hd.q_head; wi != kNil; wi = waiters_[wi].q_next) {
      const Waiter& w = waiters_[wi];
      // Only conflicting holders: an S waiter queued behind S holders is
      // really waiting on the earlier X waiter that blocks it, and that
      // waiter carries the edge to the holders -- the transitive path
      // preserves every true cycle while dropping the S-S churn the
      // status-table items generate (many S-holding writers, one queued
      // X control txn, more S writers behind it).
      for (const Holder& hold : hd.holders) {
        if (hold.txn != w.txn &&
            (w.mode == LockMode::kExclusive ||
             hold.mode == LockMode::kExclusive)) {
          edges.emplace_back(w.txn, hold.txn);
        }
      }
      // A waiter also waits for earlier incompatible waiters (they will be
      // granted first); queued X behind queued S can deadlock through two
      // items with no holder edge, so waiter -> earlier-waiter edges are
      // required for completeness.
      for (uint32_t wj = hd.q_head; wj != wi; wj = waiters_[wj].q_next) {
        const Waiter& w2 = waiters_[wj];
        if (w2.txn != w.txn &&
            (w.mode == LockMode::kExclusive ||
             w2.mode == LockMode::kExclusive)) {
          edges.emplace_back(w.txn, w2.txn);
        }
      }
    }
  }
  return edges;
}

std::vector<TxnId> LockManager::waiting_txns() const {
  std::vector<TxnId> out;
  for (uint32_t h = contended_head_; h != kNil; h = heads_[h].c_next) {
    for (uint32_t wi = heads_[h].q_head; wi != kNil;
         wi = waiters_[wi].q_next) {
      const TxnId txn = waiters_[wi].txn;
      bool seen = false;
      for (TxnId t : out) {
        if (t == txn) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(txn);
    }
  }
  return out;
}

size_t LockManager::held_count(TxnId txn) const {
  const uint32_t* t = txn_index_.find(txn_key(txn));
  return t == nullptr ? 0 : txn_states_[*t].held.size();
}

void LockManager::clear() {
  heads_.clear();
  waiters_.clear();
  txn_states_.clear();
  item_index_.clear();
  txn_index_.clear();
  head_free_ = waiter_free_ = txn_free_ = kNil;
  contended_head_ = kNil;
  waiter_count_ = 0;
  ++wait_epoch_;
  // next_gen_ keeps counting: request ids handed out before the crash can
  // never alias a post-crash waiter.
}

} // namespace ddbs
