#include "explore/oracles.h"

#include <optional>
#include <sstream>

#include "core/runtime.h"
#include "replication/session.h"

namespace ddbs {

std::string to_string(const Violation& v) {
  std::ostringstream os;
  os << v.oracle << "@" << v.at / 1000 << "ms: " << v.detail;
  return os.str();
}

Violation make_violation(const ClusterRuntime& cluster, std::string oracle,
                         std::string detail) {
  Violation v;
  v.oracle = std::move(oracle);
  v.detail = std::move(detail);
  v.at = cluster.now();
  return v;
}

namespace {

// nullopt == invariant holds.
std::optional<Violation> check_convergence(ClusterRuntime& cluster) {
  std::string why;
  if (cluster.replicas_converged(&why)) return std::nullopt;
  return make_violation(cluster, "convergence", why);
}

std::optional<Violation> check_ns_agreement(ClusterRuntime& cluster) {
  SessionVector ref;
  SiteId ref_site = kInvalidSite;
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    if (!cluster.site(s).state().operational()) continue;
    const SessionVector v =
        peek_ns_vector(cluster.site(s).stable().kv(), cluster.n_sites());
    if (ref_site == kInvalidSite) {
      ref = v;
      ref_site = s;
    } else if (v != ref) {
      std::ostringstream os;
      os << "NS disagreement: site " << ref_site << " has " << to_string(ref)
         << " but site " << s << " has " << to_string(v);
      return make_violation(cluster, "ns-agreement", os.str());
    }
  }
  if (ref_site == kInvalidSite) {
    return make_violation(cluster, "ns-agreement", "no operational site left");
  }
  // The agreed vector matches reality: up sites carry their own session,
  // down sites carry 0.
  for (SiteId s = 0; s < cluster.n_sites(); ++s) {
    const SiteState& st = cluster.site(s).state();
    const SessionNum nominal = ref[static_cast<size_t>(s)];
    const SessionNum actual = st.operational() ? st.session : 0;
    if (nominal != actual) {
      std::ostringstream os;
      os << "NS[" << s << "] = " << nominal << " but site " << s << " is "
         << to_string(st.mode) << " with session " << actual;
      return make_violation(cluster, "ns-agreement", os.str());
    }
  }
  return std::nullopt;
}

} // namespace

std::vector<Violation> quiescence_oracles(ClusterRuntime& cluster) {
  std::vector<Violation> out;
  if (auto v = check_convergence(cluster)) out.push_back(*v);
  // NS agreement is a session-vector invariant; the spooler baseline
  // recovers without control transactions, so only convergence applies.
  if (cluster.config().recovery_scheme == RecoveryScheme::kSessionVector) {
    if (auto v = check_ns_agreement(cluster)) out.push_back(*v);
  }
  return out;
}

} // namespace ddbs
