// Self-tests for the benchmark's own arithmetic (perfbench/stats.h): the
// tail-percentile rule, the host-normalised load time, recovery phase
// durations with missing milestones, per-commit ratios at zero commits, and
// the timing sink interposed in front of the online verifier. Exits
// non-zero if any check fails.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>

#include "core/cluster.h"
#include "stats.h"
#include "verify/online_verifier.h"
#include "workload/runner.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;
using ddbs::kNoTime;

void percentile_rule() {
  // Below 20 samples even the median has fewer than ten beyond it.
  CHECK(!tail_percentile(0).supported);
  CHECK(!tail_percentile(19).supported);
  CHECK(tail_percentile(19).beyond == 9);
  TailPick p = tail_percentile(20);
  CHECK(p.supported && p.pct == 50 && p.beyond == 10);
  // 99 samples: p90 leaves only 9 beyond, so the median is the tail.
  p = tail_percentile(99);
  CHECK(p.pct == 50 && p.beyond == 49);
  p = tail_percentile(100);
  CHECK(p.pct == 90 && p.beyond == 10);
  p = tail_percentile(999);
  CHECK(p.pct == 90 && p.beyond == 99);
  p = tail_percentile(1000);
  CHECK(p.pct == 99 && p.beyond == 10);
  p = tail_percentile(1'000'000, 99); // capped at the asked-for tail
  CHECK(p.pct == 99 && p.beyond == 10'000);
  p = tail_percentile(1'000'000);
  CHECK(p.pct == 99.99 && p.beyond == 100);

  CHECK(percentile({}, 50) == 0);
  CHECK(percentile({3, 1, 2}, 50) == 2);
  CHECK(percentile({1, 2, 3, 4}, 100) == 4);
  CHECK(percentile({1, 2, 3, 4}, 0) == 1);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(median({}) == 0);
  CHECK(mean({}) == 0);
}

ddbs::RecoveryEpisode full_episode() {
  ddbs::RecoveryEpisode e;
  e.site = 3;
  e.crash_at = 1'000'000;
  e.declared_down_at = 1'080'000;
  e.type2_commit_at = 1'095'000;
  e.reboot_at = 1'400'000;
  e.replay_done_at = 1'430'000;
  e.nominally_up_at = 1'600'000;
  e.fully_current_at = 2'100'000;
  e.replay_records = 500;
  e.type1_attempts = 3;
  e.copier_commits = 40;
  e.marked_unreadable = 40;
  e.complete = true;
  return e;
}

void episode_phases() {
  const ddbs::RecoveryEpisode e = full_episode();
  CHECK(phase_us(e, kDetect) == 80'000);
  CHECK(phase_us(e, kType2) == 15'000);
  CHECK(phase_us(e, kReplay) == 30'000);
  CHECK(phase_us(e, kType1) == 170'000); // from replay done, not reboot
  CHECK(phase_us(e, kDrain) == 500'000);
  CHECK(phase_us(e, kToOperational) == 200'000);
  CHECK(phase_us(e, kToCurrent) == 700'000);

  // In-memory engine: no replay milestone; type-1 is timed from reboot.
  ddbs::RecoveryEpisode mem = e;
  mem.replay_done_at = kNoTime;
  CHECK(phase_us(mem, kReplay) == kNoTime);
  CHECK(phase_us(mem, kType1) == 200'000);

  // Never fully current: drain and ttcur unobserved, ttop still defined.
  ddbs::RecoveryEpisode stuck = e;
  stuck.fully_current_at = kNoTime;
  CHECK(phase_us(stuck, kDrain) == kNoTime);
  CHECK(phase_us(stuck, kToCurrent) == kNoTime);
  CHECK(phase_us(stuck, kToOperational) == 200'000);

  // A false declaration has no crash: detection is unobserved.
  ddbs::RecoveryEpisode false_decl = e;
  false_decl.crash_at = kNoTime;
  CHECK(phase_us(false_decl, kDetect) == kNoTime);

  // A milestone out of order is not a negative duration.
  ddbs::RecoveryEpisode early = e;
  early.type2_commit_at = e.declared_down_at - 1;
  CHECK(phase_us(early, kType2) == kNoTime);

  // Folding: incomplete episodes are excluded whole and counted; missing
  // phases of complete ones are counted as unobserved.
  ddbs::RecoveryEpisode cut = stuck;
  cut.complete = false;
  const PhaseSamples s = fold_episodes({e, mem, cut, false_decl});
  CHECK(s.complete == 3 && s.incomplete == 1);
  CHECK(s.ms[kReplay].size() == 2 && s.unobserved[kReplay] == 1);
  CHECK(s.ms[kDetect].size() == 2 && s.unobserved[kDetect] == 1);
  CHECK(s.median_ms(kToOperational) == 200.0);
  CHECK(s.median_ms(kToCurrent) == 700.0);
  CHECK(s.per_episode(s.type1_attempts) == 3.0);
  CHECK(s.replay_records.size() == 2);

  const PhaseSamples none = fold_episodes({});
  CHECK(none.complete == 0 && none.median_ms(kType1) == 0);
  CHECK(none.per_episode(none.copier_commits) == 0);
}

void ratios_at_zero_commits() {
  CHECK(per_commit(123, 0) == 0);
  CHECK(per_commit(0, 0) == 0);
  CHECK(per_commit(6, 3) == 2);
}

void normalised_window() {
  // A host running at half speed doubles both the slices and the probe.
  CHECK(normalised_window_s({1.0, 1.0}, {2e-3, 2e-3}, 1e-3) == 1.0);
  CHECK(normalised_window_s({2.0, 2.0}, {4e-3, 4e-3}, 1e-3) == 1.0);
  // The probe is smoothed: one outlier among five does not move a slice.
  CHECK(normalised_window_s({1, 1, 1, 1, 1}, {1, 1, 9, 1, 1}, 1, 2) == 5.0);
  // The slowdown is followed slice by slice.
  CHECK(normalised_window_s({1, 1, 2, 2}, {1, 1, 2, 2}, 1, 0) == 4.0);
  CHECK(normalised_window_s({}, {}, 1) == 0);
  CHECK(normalised_window_s({1.0}, {}, 1) == 0);
  CHECK(normalised_window_s({1.0}, {0.0}, 1) == 0);
}

ddbs::TxnRecord record(ddbs::TxnId t, ddbs::SimTime at) {
  ddbs::TxnRecord r;
  r.txn = t;
  r.commit_time = at;
  return r;
}

// The lost-update shape: both txns read version 1 of item 9 and both
// write it, which closes a read-before cycle in the revised 1-STG.
template <typename Sink>
void feed_lost_update(Sink& sink) {
  ddbs::TxnRecord w0 = record(1, 1'000);
  w0.writes.push_back(ddbs::WriteEvent{0, 9, 1, 0, false});
  sink.on_commit(w0);
  ddbs::TxnRecord a = record(2, 2'000);
  a.reads.push_back(ddbs::ReadEvent{0, 9, 1, 1});
  a.writes.push_back(ddbs::WriteEvent{0, 9, 2, 0, false});
  sink.on_commit(a);
  ddbs::TxnRecord b = record(3, 3'000);
  b.reads.push_back(ddbs::ReadEvent{0, 9, 1, 1});
  b.writes.push_back(ddbs::WriteEvent{0, 9, 3, 0, false});
  sink.on_commit(b);
  ddbs::TxnRecord late = record(4, 4'000);
  sink.on_late_write(late, ddbs::WriteEvent{1, 9, 4, 0, false});
}

void timing_sink_keeps_cycle_verdict() {
  ddbs::Config cfg;
  ddbs::OnlineVerifier direct(cfg), behind(cfg);
  TimingSink sink(behind);
  feed_lost_update(direct);
  feed_lost_update(sink);
  CHECK(direct.graph_has_cycle());
  CHECK(behind.graph_has_cycle() == direct.graph_has_cycle());
  CHECK(behind.cycle_witness() == direct.cycle_witness());
  CHECK(behind.graph_edge_count() == direct.graph_edge_count());
  CHECK(sink.commit_us().count() == 3);
  CHECK(sink.late_calls() == 1);
  CHECK(sink.total_seconds() > 0);
}

struct Verdict {
  std::vector<std::string> violations;
  uint64_t commits_seen = 0;
  size_t nodes = 0, edges = 0;
  int64_t committed = 0;
};

// A small crash/recover run with the online verifier, optionally behind
// the timing sink.
Verdict verifier_run(bool interpose) {
  ddbs::Config cfg;
  cfg.n_sites = 5;
  cfg.n_items = 60;
  cfg.record_history = true;
  cfg.online_verify = true;
  cfg.storage_engine = ddbs::StorageEngineKind::kDurable;
  ddbs::Cluster c(cfg, 7);
  c.bootstrap();
  ddbs::OnlineVerifier* v = c.online_verifier();
  TimingSink sink(*v);
  if (interpose) c.history().set_sink(&sink);
  ddbs::RunnerParams p;
  p.clients_per_site = 2;
  p.duration = 1'500'000;
  p.workload = {3, 0.3, 0.6, 0};
  p.schedule = {{300'000, ddbs::FailureEvent::What::kCrash, 2},
                {700'000, ddbs::FailureEvent::What::kRecover, 2}};
  const ddbs::RunnerStats st = ddbs::Runner(c, p, 7).run();
  c.run_until(c.now() + 4 * cfg.detector_interval);
  c.settle();
  Verdict out;
  if (auto cv = v->checkpoint(c)) out.violations.push_back(cv->oracle);
  for (const ddbs::Violation& q : v->quiescence(c))
    out.violations.push_back(q.oracle);
  out.commits_seen = v->commits_seen();
  out.nodes = v->graph_node_count();
  out.edges = v->graph_edge_count();
  out.committed = st.committed;
  if (interpose) {
    CHECK(sink.commit_us().count() == v->commits_seen());
    c.history().set_sink(v);
  }
  return out;
}

void timing_sink_keeps_run_verdicts() {
  const Verdict plain = verifier_run(false);
  const Verdict timed = verifier_run(true);
  CHECK(plain.committed > 0);
  CHECK(plain.violations.empty());
  CHECK(timed.violations == plain.violations);
  CHECK(timed.commits_seen == plain.commits_seen);
  CHECK(timed.nodes == plain.nodes);
  CHECK(timed.edges == plain.edges);
  CHECK(timed.committed == plain.committed);
}

} // namespace

int main() {
  percentile_rule();
  episode_phases();
  ratios_at_zero_commits();
  normalised_window();
  timing_sink_keeps_cycle_verdict();
  timing_sink_keeps_run_verdicts();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
