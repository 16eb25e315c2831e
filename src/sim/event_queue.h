// Priority queue of timestamped events with stable FIFO ordering for equal
// timestamps and O(1) cancellation.
//
// Layout: a 4-ary implicit heap of 24-byte {time, key, slot, gen} entries,
// plus up to kMaxTimerLists FIFO *timer lists*, all over one
// generation-stamped slot slab that owns the callables. An EventId packs
// (slot generation << 32 | slot index), so cancel() is a bounds check plus
// a generation compare -- no hashing, no tombstone map. cancel() destroys
// the callable and recycles the slot at once (generation bumped); the
// heap or list entry stays behind and is recognised as dead because its
// copy of the generation no longer matches the slot's. The slab is thus
// sized by the live set, not by live plus cancelled-but-unreaped.
//
// Timer lists exist for backstop timeouts (RPC, lock wait, termination,
// DM activity, transaction deadlines): almost all of them are cancelled
// long before they expire, and on the heap each would cost a sift on push
// and linger as a dead entry for its full delay. A timer list holds the
// timers of one distinct delay; it drops its dead prefix whenever the head
// is computed and sweeps out dead entries before it would grow, so it
// holds about its live timers only. Timers of equal delay are armed at nondecreasing `now`,
// so appending keeps each list in deadline order and push is O(1); an
// insert only steps back past tail entries that order after it (equal
// deadlines armed from different key lanes). Each list is a flat
// power-of-two ring buffer. pop() and next_time() take the earliest of the
// heap root and the list heads by the full (time, lane, counter) key, so
// the fire order is exactly the one a single heap would give.
//
// The head is computed once (next_time()) and cached until the queue
// changes, so a scheduler loop that peeks and then pops scans the heads
// once per event.
//
// The slab is chunked (64 slots per chunk) so growth never move-relocates
// a stored callable -- with a flat vector the InlineFn relocation per grow
// was ~20% of push/pop cost. The tie-break key's low half is a 32-bit
// counter with wraparound-aware comparison: ties only matter between events
// at the SAME timestamp, which are never 2^31 mints apart.
//
// push/pop/cancel are defined inline: they are the single hottest path in
// the simulator and the call-per-event boundary was measurable.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inline_fn.h"

namespace ddbs {

using EventId = uint64_t; // (generation << 32) | slot index; 0 = invalid
using EventFn = InlineFn;

// Ordering key for same-time events. The high 32 bits are an *origin
// lane* (0 = global control actions, 1 = context-free scheduling, site s =
// s + 2), the low 32 bits a per-lane counter compared with the same
// wraparound trick as the legacy FIFO seq. Keys minted per site instead of
// per queue make the tie-break locally computable: the parallel backend's
// shard queues and the single-threaded DES then order identical event sets
// identically (see Scheduler). Legacy push() keys everything in lane 1
// from the queue's own counter, which is exactly the old global FIFO.
using EventKey = uint64_t;

constexpr EventKey make_event_key(uint32_t lane, uint32_t counter) {
  return (static_cast<EventKey>(lane) << 32) | counter;
}

// The fire order: (time, lane, counter).
constexpr bool event_before(SimTime ta, EventKey ka, SimTime tb,
                            EventKey kb) {
  if (ta != tb) return ta < tb;
  const uint32_t la = static_cast<uint32_t>(ka >> 32);
  const uint32_t lb = static_cast<uint32_t>(kb >> 32);
  if (la != lb) return la < lb;
  // The lane counter wraps at 2^32; same-time same-lane events are never
  // 2^31 mints apart, so a signed difference orders them across the wrap.
  return static_cast<int32_t>(static_cast<uint32_t>(ka) -
                              static_cast<uint32_t>(kb)) < 0;
}

class EventQueue {
 public:
  // Distinct timer delays that get their own list; timers of any further
  // delay go to the heap (same order, just the heap's cost).
  static constexpr size_t kMaxTimerLists = 8;

  EventId push(SimTime at, EventFn fn) {
    return heap_insert(at, make_event_key(1, next_seq_++), fn);
  }

  // Caller-supplied ordering key; see EventKey. Keys must be unique per
  // (time, lane) -- the Scheduler's per-lane counters guarantee it.
  EventId push_keyed(SimTime at, EventKey key, EventFn fn) {
    return heap_insert(at, key, fn);
  }

  // A timer: an event at `at` that is expected to be cancelled, filed in
  // the list for `delay` (at = now + delay). Keyed exactly like
  // push()/push_keyed(), so the fire order is the same as on the heap.
  EventId push_timer(SimTime at, SimTime delay, EventFn fn) {
    return timer_insert(at, delay, make_event_key(1, next_seq_++), fn);
  }
  EventId push_timer_keyed(SimTime at, SimTime delay, EventKey key,
                           EventFn fn) {
    return timer_insert(at, delay, key, fn);
  }

  // True if the event existed and had not yet run.
  bool cancel(EventId id) {
    const uint32_t idx = static_cast<uint32_t>(id & 0xffffffffu);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (idx >= gens_.size() || gens_[idx] != gen) return false;
    // The heap/list entry stays; its stale generation marks it dead and
    // find_head() drops it when it surfaces. The generation moves before
    // the callable is destroyed, so a destructor cannot cancel it twice.
    gens_[idx]++;
    slot(idx).reset();
    free_.push_back(idx);
    --live_;
    head_ = kHeadStale;
    return true;
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // kNoTime when empty.
  SimTime next_time() const {
    if (head_ == kHeadStale) find_head();
    return head_ == kHeadEmpty ? kNoTime : head_entry().time;
  }

  struct Fired {
    SimTime time = 0;
    EventId id = 0;
    EventKey key = 0;
    EventFn fn;
  };
  // Pops the earliest live event; requires !empty(). The callable is moved
  // out, never copied.
  Fired pop() {
    if (head_ == kHeadStale) find_head();
    assert(head_ != kHeadEmpty);
    const Entry top = head_entry();
    if (head_ == kHeadHeap) {
      pop_root();
    } else {
      lists_[static_cast<size_t>(head_)].pop_front();
    }
    head_ = kHeadStale;
    Fired f{top.time, make_id(top.gen, top.slot), top.key,
            std::move(slot(top.slot))};
    // The event has left the queue: its id is dead, its slot reusable.
    gens_[top.slot]++;
    free_.push_back(top.slot);
    --live_;
    return f;
  }

 private:
  struct Entry {
    SimTime time;
    EventKey key; // (lane << 32) | counter tie-break at equal times
    uint32_t slot;
    uint32_t gen; // slot generation at push; stale = cancelled
  };
  static_assert(sizeof(Entry) == 24);

  // FIFO of one delay's timers in (time, key) order, as a power-of-two
  // ring buffer.
  struct TimerList {
    SimTime delay = 0;
    std::vector<Entry> ring;
    uint32_t head = 0;
    uint32_t count = 0;

    Entry& at(uint32_t i) {
      return ring[(head + i) & (static_cast<uint32_t>(ring.size()) - 1)];
    }
    Entry& front() { return ring[head]; }
    void pop_front() {
      head = (head + 1) & (static_cast<uint32_t>(ring.size()) - 1);
      --count;
    }
    void insert(const Entry& e, const EventQueue& q) {
      if (count == ring.size()) make_room(q);
      // Appending is the rule; step back only past entries that order
      // after e (an equal deadline minted in a higher lane).
      uint32_t pos = count;
      while (pos > 0 && q.before(e, at(pos - 1))) {
        at(pos) = at(pos - 1);
        --pos;
      }
      at(pos) = e;
      ++count;
    }
    // A full ring first drops its cancelled entries, keeping order, and
    // doubles only if more than half of it is live. The ring thus stays
    // within twice the list's live timers, and the O(count) sweep is paid
    // at most once per count/2 inserts.
    void make_room(const EventQueue& q) {
      uint32_t kept = 0;
      for (uint32_t i = 0; i < count; ++i) {
        if (!q.dead(at(i))) at(kept++) = at(i);
      }
      count = kept;
      if (ring.empty() || 2 * count > ring.size()) grow();
    }
    void grow() {
      std::vector<Entry> bigger(ring.empty() ? 64 : 2 * ring.size());
      for (uint32_t i = 0; i < count; ++i) bigger[i] = at(i);
      ring.swap(bigger);
      head = 0;
    }
  };

  static constexpr int32_t kHeadStale = -3;
  static constexpr int32_t kHeadEmpty = -2;
  static constexpr int32_t kHeadHeap = -1;
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  static EventId make_id(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  EventFn& slot(uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  // The public push functions take the callable by value; these move it
  // straight into its slot (each InlineFn move is an indirect call).
  EventId heap_insert(SimTime at, EventKey key, EventFn& fn) {
    const Entry e = make_entry(at, key, fn);
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
    return make_id(e.gen, e.slot);
  }
  EventId timer_insert(SimTime at, SimTime delay, EventKey key, EventFn& fn) {
    TimerList* list = list_for(delay);
    if (list == nullptr) return heap_insert(at, key, fn);
    const Entry e = make_entry(at, key, fn);
    list->insert(e, *this);
    return make_id(e.gen, e.slot);
  }

  Entry make_entry(SimTime at, EventKey key, EventFn& fn) {
    uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<uint32_t>(gens_.size());
      gens_.push_back(1);
      if ((idx >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
      }
    }
    slot(idx) = std::move(fn);
    ++live_;
    head_ = kHeadStale;
    return Entry{at, key, idx, gens_[idx]};
  }

  bool dead(const Entry& e) const { return gens_[e.slot] != e.gen; }

  TimerList* list_for(SimTime delay) {
    for (TimerList& l : lists_) {
      if (l.delay == delay) return &l;
    }
    if (lists_.size() == kMaxTimerLists) return nullptr;
    lists_.emplace_back().delay = delay;
    return &lists_.back();
  }

  bool before(const Entry& a, const Entry& b) const {
    return event_before(a.time, a.key, b.time, b.key);
  }

  const Entry& head_entry() const {
    return head_ == kHeadHeap ? heap_[0]
                              : lists_[static_cast<size_t>(head_)].front();
  }

  // Drop dead entries off the heap root and every list head, then cache
  // which of them holds the earliest live event.
  void find_head() const {
    while (!heap_.empty() && dead(heap_[0])) pop_root();
    const Entry* best = heap_.empty() ? nullptr : &heap_[0];
    int32_t src = best ? kHeadHeap : kHeadEmpty;
    for (size_t i = 0; i < lists_.size(); ++i) {
      TimerList& l = lists_[i];
      while (l.count > 0 && dead(l.front())) l.pop_front();
      if (l.count > 0 && (best == nullptr || before(l.front(), *best))) {
        best = &l.front();
        src = static_cast<int32_t>(i);
      }
    }
    head_ = src;
  }

  void sift_up(size_t i);
  void sift_down(size_t i) const;
  void pop_root() const {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  // Mutable: dropping already-dead entries and caching the head from
  // next_time() does not change the observable live set.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<uint32_t> gens_; // per slot; dense so dead() stays cheap
  mutable std::vector<Entry> heap_;
  mutable std::vector<TimerList> lists_;
  mutable int32_t head_ = kHeadEmpty;
  std::vector<uint32_t> free_;
  uint32_t next_seq_ = 0;
  size_t live_ = 0;
};

} // namespace ddbs
