#include "storage/kv_store.h"

#include <algorithm>
#include <cassert>

#include "storage/storage_sink.h"

namespace ddbs {

const Copy* KvStore::find(ItemId item) const {
  if (is_ns_item(item)) {
    const size_t i = static_cast<size_t>(item - kNsBase);
    return i < ns_.size() && ns_[i].item == item ? &ns_[i].copy : nullptr;
  }
  const uint32_t* pos = index_.find(static_cast<uint64_t>(item) + 1);
  return pos == nullptr ? nullptr : &data_[*pos].copy;
}

Copy& KvStore::ensure_copy(ItemId item, bool* created) {
  if (is_ns_item(item)) {
    const size_t i = static_cast<size_t>(item - kNsBase);
    if (i >= ns_.size()) ns_.resize(i + 1);
    Entry& e = ns_[i];
    *created = e.item != item;
    if (*created) {
      e.item = item;
      ++ns_count_;
    }
    return e.copy;
  }
  assert(is_data_item(item) && "the store holds data and NS copies only");
  const uint64_t key = static_cast<uint64_t>(item) + 1;
  if (const uint32_t* pos = index_.find(key)) {
    *created = false;
    return data_[*pos].copy;
  }
  *created = true;
  index_.insert(key, static_cast<uint32_t>(data_.size()));
  data_.push_back(Entry{item, Copy{}});
  return data_.back().copy;
}

void KvStore::create(ItemId item, Value initial) {
  bool created;
  Copy& c = ensure_copy(item, &created);
  assert(created && "create() of an existing copy");
  (void)created;
  c = Copy{initial, Version{}, false};
  if (sink_ != nullptr) sink_->on_kv_create(item, initial);
}

void KvStore::install(ItemId item, Value value, Version version) {
  bool created;
  Copy& c = ensure_copy(item, &created);
  if (!created && c.unreadable) --unreadable_count_;
  c = Copy{value, version, false};
  if (sink_ != nullptr) sink_->on_kv_install(item, value, version);
}

void KvStore::mark_unreadable(ItemId item) {
  Copy* c = const_cast<Copy*>(find(item));
  assert(c != nullptr);
  if (!c->unreadable) {
    c->unreadable = true;
    ++unreadable_count_;
    if (sink_ != nullptr) sink_->on_kv_mark(item);
  }
}

void KvStore::clear_mark(ItemId item) {
  Copy* c = const_cast<Copy*>(find(item));
  assert(c != nullptr);
  if (c->unreadable) {
    c->unreadable = false;
    --unreadable_count_;
    if (sink_ != nullptr) sink_->on_kv_clear_mark(item);
  }
}

void KvStore::wipe() {
  data_.clear();
  index_.clear();
  ns_.clear();
  ns_count_ = 0;
  unreadable_count_ = 0;
}

std::vector<ItemId> KvStore::unreadable_items() const {
  std::vector<ItemId> out;
  for (const Entry& e : data_) {
    if (e.copy.unreadable) out.push_back(e.item);
  }
  std::sort(out.begin(), out.end());
  // NS ids all exceed every data id, so appending them keeps the order.
  for (const Entry& e : ns_) {
    if (e.item != 0 && e.copy.unreadable) out.push_back(e.item);
  }
  return out;
}

} // namespace ddbs
