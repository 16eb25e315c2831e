// Per-site store of committed physical copies. This object models the
// site's *stable* database image: it survives crashes (only the DM's
// volatile state -- locks, staged writes, status tables in volatile mode --
// is lost). The unreadable mark of paper Section 3.2 lives here too, so a
// crash during refresh can only leave copies pessimistically marked.
//
// Like site k in the paper (Section 3.1), the store holds only the copies
// x_k of the items the site hosts, plus its copy of every NS[j]. Data copies
// sit in a vector in creation order, reached through an open-addressed
// index keyed by item + 1 (key 0 is the table's empty marker), so the store
// costs O(hosted copies) rather than O(n_items). NS copies (kNsBase + site)
// get a small side vector indexed by site: every site holds every NS[j], so
// it is already tight. Status-table items are lock-only and never reach the
// store. Pointers returned by find() are invalidated by create()/install()
// of a previously-absent item -- no caller holds one across an install
// (they re-find after staging).
#pragma once

#include <vector>

#include "common/types.h"
#include "common/u64_table.h"

namespace ddbs {

class StorageSink;

struct Copy {
  Value value = 0;
  Version version;         // tag of the writing transaction
  bool unreadable = false; // missed updates; refresh before serving reads
};

class KvStore {
 public:
  // Create a copy with the initial database state (writer txn 0).
  void create(ItemId item, Value initial);

  bool exists(ItemId item) const { return find(item) != nullptr; }

  const Copy* find(ItemId item) const;

  // Install a committed write. Creates the copy if absent (a copier can
  // materialize a copy the site hosts but never initialized).
  void install(ItemId item, Value value, Version version);

  void mark_unreadable(ItemId item);
  void clear_mark(ItemId item);

  std::vector<ItemId> unreadable_items() const; // ascending
  size_t unreadable_count() const { return unreadable_count_; }
  size_t size() const { return data_.size() + ns_count_; }

  // Mutation observer (durable engine); null = no notifications.
  void set_sink(StorageSink* sink) { sink_ = sink; }
  // Drop every copy (a durable-engine crash discards the RAM image; the
  // checkpoint + log rebuild it at reboot). Not a sink-visible mutation.
  void wipe();

 private:
  struct Entry {
    ItemId item = 0; // an NS slot is present iff it carries its item id
    Copy copy;
  };

  // Returns the copy of `item` (a data or NS id), creating it when absent.
  // Sets *created when it was.
  Copy& ensure_copy(ItemId item, bool* created);

  std::vector<Entry> data_;      // hosted data copies, creation order
  U64Table<uint32_t> index_;     // item + 1 -> position in data_
  std::vector<Entry> ns_;        // NS copies, indexed by site
  size_t ns_count_ = 0;
  size_t unreadable_count_ = 0;
  StorageSink* sink_ = nullptr;
};

} // namespace ddbs
