// Invariant oracles over cluster state. Each oracle inspects a quiesced
// Cluster from outside the protocol -- the same omniscient-observer stance
// as verify/ -- and reports the first violation it can prove, with enough
// detail to act on.
//
//   - convergence:   every readable copy of every item identical; no copy
//                    still unreadable at an up site (Section 3.2's goal).
//   - ns-agreement:  operational sites agree on NS, and NS matches the
//                    actual sessions (up sites carry their own session,
//                    down sites carry 0) -- Section 3.1.
//
// The history-based verdicts (1-SR, lost writes, session monotonicity,
// NS-write discipline) belong to OnlineVerifier, whose quiescence() runs
// these two first and then appends its own.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace ddbs {

class ClusterRuntime;

struct Violation {
  std::string oracle; // "convergence", "ns-agreement", "one-sr", ...
  std::string detail; // human-readable witness
  SimTime at = 0;     // sim time the oracle fired
};

std::string to_string(const Violation& v);

// A violation stamped with the cluster's current sim time.
Violation make_violation(const ClusterRuntime& cluster, std::string oracle,
                         std::string detail);

// Convergence, then NS agreement under the session-vector scheme; returns
// all violations found (empty == clean).
std::vector<Violation> quiescence_oracles(ClusterRuntime& cluster);

} // namespace ddbs
