#include "verify/online_verifier.h"

#include <algorithm>
#include <sstream>

#include "core/runtime.h"
#include "verify/one_sr_checker.h"

namespace ddbs {

OnlineVerifier::OnlineVerifier(const Config& /*cfg*/) {}

void OnlineVerifier::ingest_read(TxnId txn, const ReadEvent& r) {
  if (!is_data_item(r.item)) return;
  ItemState& st = items_[r.item];
  // (i) READ-FROM: original writer -> reader (0 = initial state).
  if (r.from_writer != 0 && r.from_writer != txn) {
    graph_.add_edge(r.from_writer, txn);
  }
  // (iii) read-before: reader -> first writer ordered after the version it
  // observed. Writers that are not known yet (still in flight, or applied
  // late) re-target this via the retained reads in ingest_write.
  auto nit = st.writers.upper_bound(r.from_counter);
  if (nit != st.writers.end() && nit->second != txn) {
    graph_.add_edge(txn, nit->second);
  }
  st.reads.emplace(r.from_counter, txn);
}

void OnlineVerifier::ingest_write(TxnId txn, const WriteEvent& w) {
  if (!is_data_item(w.item) || w.copier_install) return;
  ItemState& st = items_[w.item];
  auto [it, inserted] = st.writers.emplace(w.counter, txn);
  if (!inserted) return; // same version already known (multi-site apply)
  if (w.counter >= last_write_[w.item].counter) {
    last_write_[w.item] = LastWrite{w.counter, w.value, txn};
  }
  // (ii) write-order: splice into the chain. When the insertion is
  // out-of-order (WAL redo, spool replay) the old prev -> next edge stays
  // behind, but it is transitively implied by prev -> new -> next, so the
  // graph remains cycle-equivalent to a fresh rebuild.
  if (it != st.writers.begin()) {
    const TxnId prev = std::prev(it)->second;
    if (prev != txn) graph_.add_edge(prev, txn);
  }
  if (auto next = std::next(it); next != st.writers.end()) {
    if (next->second != txn) graph_.add_edge(txn, next->second);
  }
  // Re-target read-before edges: a read that observed counter x gets its
  // edge to the first writer after x, which this insertion just became
  // for every x in [prev_counter, w.counter).
  const uint64_t lo =
      it == st.writers.begin() ? 0 : std::prev(it)->first;
  for (auto rit = st.reads.lower_bound(lo),
            rend = st.reads.lower_bound(w.counter);
       rit != rend; ++rit) {
    if (rit->second != txn) graph_.add_edge(rit->second, txn);
  }
}

void OnlineVerifier::note_ns_write(const TxnRecord& rec, const WriteEvent& w) {
  if (is_control(rec.kind)) {
    return;
  }
  if (!is_ns_item(w.item)) return;
  for (const NsCandidate& c : ns_candidates_) {
    if (c.txn == rec.txn) return; // first NS write per txn is the witness
  }
  ns_candidates_.push_back(
      NsCandidate{rec.commit_time, rec.txn, rec.kind, w.item});
}

void OnlineVerifier::on_commit(const TxnRecord& rec) {
  ++commits_seen_;
  for (const WriteEvent& w : rec.writes) note_ns_write(rec, w);
  if (is_copierish(rec.kind)) return;
  graph_.add_node(rec.txn);
  // Writes before reads, so a transaction's own installed version is in
  // the writer chain before its reads look up their read-before target
  // (and the self-edge skip drops it).
  for (const WriteEvent& w : rec.writes) ingest_write(rec.txn, w);
  for (const ReadEvent& r : rec.reads) ingest_read(rec.txn, r);
}

void OnlineVerifier::on_late_read(const TxnRecord& rec, const ReadEvent& r) {
  if (is_copierish(rec.kind)) return;
  ingest_read(rec.txn, r);
}

void OnlineVerifier::on_late_write(const TxnRecord& rec, const WriteEvent& w) {
  note_ns_write(rec, w);
  if (is_copierish(rec.kind)) return;
  ingest_write(rec.txn, w);
}

std::optional<Violation> OnlineVerifier::checkpoint(ClusterRuntime& cluster) {
  if (max_session_.empty()) {
    max_session_.assign(static_cast<size_t>(cluster.n_sites()), 0);
  }
  // Session numbers grow monotonically across incarnations (the paper's
  // "never reused" requirement); a site observed with a session below a
  // previous incarnation's would let stale-session writes slip the DM
  // check.
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    const SiteState& st = cluster.site(s).state();
    if (!st.operational()) continue;
    SessionNum& hi = max_session_[static_cast<size_t>(s)];
    if (st.session < hi) {
      std::ostringstream os;
      os << "site " << s << " runs session " << st.session
         << " after having reached " << hi;
      violated_ = true;
      return make_violation(cluster, "session-monotonic", os.str());
    }
    hi = st.session;
  }
  // Only control transactions may write NS items (Section 3.1). The
  // witness is the earliest offender by (commit time, txn id), wherever
  // in the stream its NS write arrived.
  if (!ns_candidates_.empty()) {
    std::sort(ns_candidates_.begin(), ns_candidates_.end(),
              [](const NsCandidate& a, const NsCandidate& b) {
                if (a.commit_time != b.commit_time)
                  return a.commit_time < b.commit_time;
                return a.txn < b.txn;
              });
    const NsCandidate& c = ns_candidates_.front();
    std::ostringstream os;
    os << to_string(c.kind) << " txn " << c.txn << " wrote NS["
       << ns_site(c.item) << "]";
    violated_ = true;
    return make_violation(cluster, "ns-write-discipline", os.str());
  }
  return std::nullopt;
}

std::optional<Violation> OnlineVerifier::find_lost_write(
    ClusterRuntime& cluster) const {
  // The authoritative final value of each item is its highest-counter
  // non-copier write (writers of one item are serialized under strict
  // 2PL). The per-item maxima survive pruning, so this covers the whole
  // run after the records are gone; items are walked in ascending id.
  for (const auto& [item, l] : last_write_) {
    for (SiteId s : cluster.catalog().sites_of(item)) {
      const Site& site = cluster.site(s);
      if (!site.state().operational()) continue;
      const Copy* c = site.stable().kv().find(item);
      if (c == nullptr || c->unreadable) continue; // convergence's problem
      if (c->version.counter < l.counter || c->value != l.value) {
        std::ostringstream os;
        os << "item " << item << " at site " << s << " holds value "
           << c->value << " (counter " << c->version.counter
           << ") but txn " << l.writer << " committed value " << l.value
           << " (counter " << l.counter << ")";
        return make_violation(cluster, "lost-write", os.str());
      }
    }
  }
  return std::nullopt;
}

std::vector<Violation> OnlineVerifier::quiescence(ClusterRuntime& cluster) {
  std::vector<Violation> out = quiescence_oracles(cluster);
  if (auto v = find_lost_write(cluster)) out.push_back(*v);
  if (graph_.has_cycle()) {
    out.push_back(
        make_violation(cluster, "one-sr", describe_cycle(graph_.cycle())));
  }
  if (!out.empty()) violated_ = true;
  return out;
}

size_t OnlineVerifier::maybe_prune(ClusterRuntime& cluster) {
  // Pruning is only sound at a boundary where nothing can ever reach back
  // into the consumed prefix: verdicts clean, every site up and idle, no
  // in-flight records, replicas converged (every copy at its maximum
  // committed counter).
  if (violated_ || graph_.has_cycle()) return 0;
  if (!ns_candidates_.empty()) return 0; // unconsumed checkpoint evidence
  HistoryRecorder& rec = cluster.history();
  if (!rec.enabled()) return 0;
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    Site& site = cluster.site(s);
    if (site.state().mode != SiteMode::kUp) return 0;
    if (site.tm().active_coordinators() > 0 ||
        site.dm().active_txn_count() > 0 ||
        site.dm().parked_read_count() > 0 || !site.rm().refresh_idle()) {
      return 0;
    }
  }
  if (!cluster.replicas_converged()) return 0;
  // Any record still in flight at this boundary belongs to a coordinator
  // that crashed mid-2PC; presumed abort means it can never commit, so it
  // is dropped rather than left to pin the pending map forever.
  rec.clear_pending();
  const size_t n = rec.committed_count();
  if (n == 0) return 0;
  rec.prune_committed_prefix(n);
  graph_.clear();
  items_.clear();
  pruned_any_ = true;
  return n;
}

} // namespace ddbs
