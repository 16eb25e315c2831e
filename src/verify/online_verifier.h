// Online incremental verification (ROADMAP: "online incremental
// verification off the critical path").
//
// OnlineVerifier observes the HistoryRecorder's committed-transaction
// stream as a HistorySink and maintains the revised 1-STG of Section 4's
// Theorem 3 corollary *incrementally*: per logical item it keeps the
// non-copier writer chain and the observed reads, and feeds READ-FROM /
// write-order / read-before edges into an IncrementalDigraph as they
// become known. A cycle is therefore detected within O(repair) of the
// commit that closes it, instead of an O(history) rebuild per check.
//
// Late events are first-class: participant applies, WAL redo after
// recovery and spool replay all record writes on already-committed
// records. An out-of-order writer insertion splices the write-order chain
// (prev -> new -> next) and re-targets the read-before edges of reads
// that observed a counter in the gap. The stale edges left behind are
// transitively implied by the refreshed ones, so cycle-equivalence with a
// from-scratch build is preserved.
//
// This is the one 1-STG builder: check_one_sr_graph judges a recorded
// History by replaying it through a fresh OnlineVerifier, and the
// exponential check_one_sr_bruteforce is the reference both are tested
// against (tests/test_online_verifier.cpp).
//
// maybe_prune() bounds memory over arbitrarily long runs: at a settled,
// all-sites-up, converged, violation-free boundary every copy of item i
// holds its maximum committed counter M_i, so any future read observes a
// counter >= M_i and every future edge lands strictly among future
// writers. No edge can re-enter the consumed prefix, hence no cycle can
// cross the prune boundary, and the graph + recorder prefix reset whole.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "explore/oracles.h"
#include "verify/history.h"
#include "verify/incremental_graph.h"

namespace ddbs {

class ClusterRuntime;

class OnlineVerifier : public HistorySink {
 public:
  // Nothing is taken from cfg: every verdict reads the judged cluster's
  // own Config.
  explicit OnlineVerifier(const Config& cfg);

  // HistorySink: the recorder calls these; never call directly in
  // production (tests drive them to simulate event streams).
  void on_commit(const TxnRecord& rec) override;
  void on_late_read(const TxnRecord& rec, const ReadEvent& r) override;
  void on_late_write(const TxnRecord& rec, const WriteEvent& w) override;

  // Mid-run boundary check: session monotonicity (live site state) and
  // NS-write discipline (streamed, so writes that land late on committed
  // records are not missed). First violation or nullopt.
  std::optional<Violation> checkpoint(ClusterRuntime& cluster);

  // Quiesced-cluster verdicts: quiescence_oracles (convergence, NS
  // agreement under the session-vector scheme), then lost writes against
  // the streamed per-item maxima, then 1-SR from the incremental graph.
  std::vector<Violation> quiescence(ClusterRuntime& cluster);

  // O(1) view of the incremental 1-SR verdict, usable at any boundary.
  bool graph_has_cycle() const { return graph_.has_cycle(); }

  // The first cycle detected (first == last), empty while acyclic.
  const std::vector<TxnId>& cycle_witness() const { return graph_.cycle(); }

  // Prune the fully-consumed history prefix when sound (see file
  // comment); returns the number of records dropped (0 == not eligible).
  size_t maybe_prune(ClusterRuntime& cluster);

  bool pruned_any() const { return pruned_any_; }
  uint64_t commits_seen() const { return commits_seen_; }
  size_t graph_node_count() const { return graph_.node_count(); }
  size_t graph_edge_count() const { return graph_.edge_count(); }
  bool violated() const { return violated_; }

 private:
  struct ItemState {
    // Non-copier writers by version counter (the write-order chain).
    std::map<uint64_t, TxnId> writers;
    // Data reads by observed counter, retained so an out-of-order writer
    // insertion can re-target their read-before edges.
    std::multimap<uint64_t, TxnId> reads;
  };
  struct LastWrite {
    uint64_t counter = 0;
    Value value = 0;
    TxnId writer = 0;
  };
  struct NsCandidate {
    SimTime commit_time = kNoTime;
    TxnId txn = 0;
    TxnKind kind = TxnKind::kUser;
    ItemId item = 0;
  };

  void ingest_read(TxnId txn, const ReadEvent& r);
  void ingest_write(TxnId txn, const WriteEvent& w);
  void note_ns_write(const TxnRecord& rec, const WriteEvent& w);
  std::optional<Violation> find_lost_write(ClusterRuntime& cluster) const;

  IncrementalDigraph graph_;
  std::map<ItemId, ItemState> items_;
  // Authoritative last committed non-copier write per item. Survives
  // pruning: the lost-write oracle needs the whole run's maximum even
  // after the records carrying it are gone.
  std::map<ItemId, LastWrite> last_write_;
  // NS-discipline candidates accumulated since the last checkpoint().
  std::vector<NsCandidate> ns_candidates_;
  // Per-site session high-water marks (monotonicity oracle).
  std::vector<SessionNum> max_session_;
  uint64_t commits_seen_ = 0;
  bool pruned_any_ = false;
  bool violated_ = false;
};

} // namespace ddbs
