// Quickstart: a five-site replicated database, one crash, one recovery.
//
//   build/examples/quickstart
//
// Shows the public API end to end: configure a cluster, run transactions,
// crash a site, watch ROWAA keep the data available, recover the site and
// print the recovery milestones from Section 3.4 of the paper.
#include <cstdio>

#include "core/cluster.h"

using namespace ddbs;

int main() {
  Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 100;
  cfg.replication_degree = 3;
  cfg.outdated_strategy = OutdatedStrategy::kMissingList;

  Cluster cluster(cfg, /*seed=*/2026);
  cluster.bootstrap();
  std::printf("cluster up: %d sites, %lld items, %d copies each\n",
              cfg.n_sites, static_cast<long long>(cfg.n_items),
              cfg.replication_degree);

  // Ordinary transactions: logical READ/WRITE on items; the TM interprets
  // them under the read-one/write-all-available convention.
  auto w = cluster.run_txn(0, {{OpKind::kWrite, 7, 4200}});
  std::printf("write item7=4200 at site0 -> %s\n",
              w.committed ? "committed" : to_string(w.reason));

  auto r = cluster.run_txn(3, {{OpKind::kRead, 7, 0}});
  std::printf("read item7 at site3 -> %lld\n",
              static_cast<long long>(r.reads.at(0)));

  // Crash site 2. The failure detectors notice, a type-2 control
  // transaction marks it nominally down, and writes keep committing on the
  // remaining copies.
  std::printf("\n-- crashing site 2 at t=%lldus --\n",
              static_cast<long long>(cluster.now()));
  cluster.crash_site(2);
  cluster.run_until(cluster.now() + 400'000);

  int ok = 0;
  for (ItemId x = 0; x < 50; ++x) {
    ok += cluster.run_txn(0, {{OpKind::kWrite, x, 1000 + x}}).committed;
  }
  std::printf("50 writes while site 2 is down: %d committed\n", ok);

  // Recover. The site marks the copies its missing list says are stale,
  // claims itself nominally up with a type-1 control transaction, and is
  // operational immediately; copiers refresh concurrently.
  std::printf("\n-- recovering site 2 at t=%lldus --\n",
              static_cast<long long>(cluster.now()));
  cluster.recover_site(2);
  cluster.settle();

  // The recovery episode: site 2's milestones, folded from the trace.
  const RecoveryEpisode ep = cluster.episodes().latest(2);
  std::printf("recovery started:        t=%lldus\n",
              static_cast<long long>(ep.reboot_at));
  std::printf("nominally up (session %lld): +%lldus\n",
              static_cast<long long>(ep.session),
              static_cast<long long>(ep.nominally_up_at - ep.reboot_at));
  std::printf("fully current:           +%lldus  (%lld copies refreshed by "
              "%lld copier commits)\n",
              static_cast<long long>(ep.fully_current_at - ep.reboot_at),
              static_cast<long long>(ep.marked_unreadable),
              static_cast<long long>(ep.copier_commits));

  auto r2 = cluster.run_txn(2, {{OpKind::kRead, 7, 0}});
  std::printf("\nread item7 at recovered site 2 -> %lld\n",
              static_cast<long long>(r2.reads.at(0)));

  std::string why;
  std::printf("replicas converged: %s\n",
              cluster.replicas_converged(&why) ? "yes" : why.c_str());
  return 0;
}
