#include "verify/one_sr_checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "verify/online_verifier.h"

namespace ddbs {

CheckReport check_one_sr_graph(const History& h) {
  OnlineVerifier v{Config{}};
  for (const TxnRecord& t : h.txns) v.on_commit(t);
  CheckReport rep;
  rep.ok = !v.graph_has_cycle();
  rep.nodes = v.graph_node_count();
  rep.edges = v.graph_edge_count();
  if (!rep.ok) rep.detail = describe_cycle(v.cycle_witness());
  return rep;
}

std::string describe_cycle(const std::vector<TxnId>& cycle) {
  std::ostringstream os;
  os << "1-STG cycle:";
  for (TxnId t : cycle) os << " " << t;
  return os.str();
}

BruteForceReport check_one_sr_bruteforce(const History& h, size_t max_txns) {
  BruteForceReport rep;
  // Logical view of each non-copier transaction.
  struct Logical {
    TxnId txn;
    std::vector<std::pair<ItemId, TxnId>> reads; // item -> writer read from
    std::set<ItemId> writes;
  };
  std::vector<Logical> txns;
  std::map<ItemId, std::pair<uint64_t, TxnId>> final_writer; // max counter
  for (const TxnRecord& t : h.txns) {
    if (is_copierish(t.kind)) continue;
    Logical l;
    l.txn = t.txn;
    std::set<std::pair<ItemId, TxnId>> seen;
    for (const ReadEvent& r : t.reads) {
      if (!is_data_item(r.item)) continue;
      if (seen.insert({r.item, r.from_writer}).second) {
        l.reads.emplace_back(r.item, r.from_writer);
      }
    }
    for (const WriteEvent& w : t.writes) {
      if (!is_data_item(w.item) || w.copier_install) continue;
      l.writes.insert(w.item);
      auto& fw = final_writer[w.item];
      if (w.counter > fw.first) fw = {w.counter, t.txn};
    }
    if (!l.reads.empty() || !l.writes.empty()) txns.push_back(std::move(l));
  }
  if (txns.size() > max_txns) {
    rep.applicable = false;
    return rep;
  }
  rep.applicable = true;

  std::vector<size_t> perm(txns.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end());
  do {
    std::map<ItemId, TxnId> last; // one-copy database: item -> last writer
    bool ok = true;
    for (size_t idx : perm) {
      const Logical& l = txns[idx];
      for (const auto& [item, from] : l.reads) {
        auto it = last.find(item);
        const TxnId cur = it == last.end() ? 0 : it->second;
        if (cur != from) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
      for (ItemId item : l.writes) last[item] = l.txn;
    }
    if (ok) {
      // Final writes must coincide with the replicated execution's final
      // version order (augmented history's final reads).
      for (const auto& [item, fw] : final_writer) {
        auto it = last.find(item);
        if (it == last.end() || it->second != fw.second) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      rep.one_sr = true;
      for (size_t idx : perm) rep.witness_order.push_back(txns[idx].txn);
      return rep;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  rep.one_sr = false;
  return rep;
}

} // namespace ddbs
