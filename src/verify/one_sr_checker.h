// One-serializability checks with respect to DB (paper Section 4):
//
// 1. check_one_sr_graph: tests the *revised* 1-STG of Theorem 3's
//    corollary -- READ-FROM edges resolved through copiers, write-order
//    edges between non-copier writers of the same logical item, and
//    read-before edges -- for acyclicity. Acyclic => the history is 1-SR
//    (sufficient condition). The graph is OnlineVerifier's: the history
//    is replayed through a fresh verifier, record by record.
//
// 2. check_one_sr_bruteforce: for small histories, enumerates serial
//    orders of the non-copier transactions and checks equivalence of
//    READ-FROM relations and final writes against a one-copy execution.
//    Exact; the reference the 1-STG is tested against.
//
// Copier resolution is implicit: a copier installs the source copy's
// version tag, so any read of a refreshed copy already observes the
// *original* non-copier writer in `from_writer` -- exactly the paper's
// indirect READS-X-FROM.
#pragma once

#include "verify/sr_checker.h"

namespace ddbs {

// Revised 1-STG over data items only (NS excluded: one-serializability is
// wanted "with respect to DB", Section 4.1). nodes/edges are the replayed
// graph's; detail is describe_cycle() of its first cycle.
CheckReport check_one_sr_graph(const History& h);

// "1-STG cycle: t1 t2 ... t1" -- the one-sr violation detail.
std::string describe_cycle(const std::vector<TxnId>& cycle);

struct BruteForceReport {
  bool applicable = false; // false when too many transactions
  bool one_sr = false;
  std::vector<TxnId> witness_order; // a valid serial order when one_sr
};

BruteForceReport check_one_sr_bruteforce(const History& h,
                                         size_t max_txns = 8);

} // namespace ddbs
