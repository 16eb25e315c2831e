// Open-addressed hash table for nonzero uint64 keys (linear probing,
// Fibonacci hashing, backward-shift deletion -- no tombstones). Built for
// the RPC pending-request table: keys are monotonically-increasing ids,
// the live set is small and churns fast, and std::unordered_map's
// node-per-entry allocation plus bucket chasing dominated the profile.
// KvStore also uses it to index each site's hosted copies.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ddbs {

template <typename V>
class U64Table {
 public:
  // Returns the mapped value or nullptr. Key 0 is reserved (empty marker).
  V* find(uint64_t key) {
    if (size_ == 0) return nullptr;
    for (size_t i = index_of(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].val;
      if (slots_[i].key == 0) return nullptr;
    }
  }

  const V* find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = index_of(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].val;
      if (slots_[i].key == 0) return nullptr;
    }
  }

  // Inserts a new key (must be nonzero and absent).
  void insert(uint64_t key, V val) {
    assert(key != 0);
    if ((size_ + 1) * 10 >= capacity() * 7) grow();
    insert_no_grow(key, std::move(val));
    ++size_;
  }

  bool erase(uint64_t key) {
    if (size_ == 0) return false;
    size_t i = index_of(key);
    while (true) {
      if (slots_[i].key == key) break;
      if (slots_[i].key == 0) return false;
      i = (i + 1) & mask_;
    }
    // Backward-shift the probe chain over the hole so lookups never need
    // tombstones: keep scanning forward (k) and pull back any entry whose
    // ideal position lies at or before the hole (j).
    size_t j = i;
    for (size_t k = (j + 1) & mask_; slots_[k].key != 0; k = (k + 1) & mask_) {
      const size_t ideal = index_of(slots_[k].key);
      if (((k - ideal) & mask_) >= ((k - j) & mask_)) {
        slots_[j] = std::move(slots_[k]);
        j = k;
      }
    }
    slots_[j].key = 0;
    slots_[j].val = V{};
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  template <typename F>
  void for_each(F&& f) {
    if (size_ == 0) return;
    for (Slot& s : slots_) {
      if (s.key != 0) f(s.key, s.val);
    }
  }

  // Drop every entry, keeping capacity.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) {
      if (s.key != 0) {
        s.key = 0;
        s.val = V{};
      }
    }
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    V val{};
  };

  size_t capacity() const { return slots_.size(); }

  size_t index_of(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_) & mask_;
  }

  void insert_no_grow(uint64_t key, V val) {
    size_t i = index_of(key);
    while (slots_[i].key != 0) {
      assert(slots_[i].key != key && "duplicate key");
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].val = std::move(val);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_; // 64 - log2(cap)
    for (Slot& s : old) {
      if (s.key != 0) insert_no_grow(s.key, std::move(s.val));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

} // namespace ddbs
