// Recovery-episode folding, the availability time series, and causal
// spans on the event ring.
//
// The synthetic tests drive EpisodeTracker / TimeSeries / Tracer directly
// with hand-scheduled trace events, pinning the folding rules: phase
// ordering, retry counting, overlap attribution, false-suspicion handling,
// backlog-curve shape and the ring/cap semantics. The cluster tests prove
// the same products come out of a real crash-recover run, that the JSON
// report and Chrome span export are structurally valid, and that both are
// byte-identical across fixed-seed replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/timeseries.h"
#include "core/cluster.h"
#include "json_test_util.h"
#include "recovery/episode.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace ddbs {
namespace {

using json_test::JsonArray;
using json_test::JsonObject;
using json_test::JsonValue;
using json_test::parse_checked;

// Replays a hand-written trace stream through the online sinks, stamping
// each event with a real scheduler clock (the Tracer reads sched.now()).
struct Fold {
  Scheduler sched;
  Tracer tracer{sched, 64};
  EpisodeTracker eps{4};

  Fold() { tracer.add_sink(&eps); }

  void at(SimTime t, TraceKind k, SiteId site, int64_t a = 0, int64_t b = 0) {
    sched.at(t, [this, k, site, a, b]() { tracer.record(k, site, 0, a, b); });
  }
  std::vector<RecoveryEpisode> run() {
    sched.run_all();
    return eps.episodes();
  }
};

// --------------------------------------------------------------------------
// EpisodeTracker folding rules.

TEST(EpisodeTracker, FoldsFullChainWithPhaseOrdering) {
  Fold f;
  f.at(100'000, TraceKind::kSiteCrash, 1);
  f.at(200'000, TraceKind::kDetectorDeclare, 0, /*a=target*/ 1);
  f.at(210'000, TraceKind::kControlDownStart, 0, /*a=*/1);
  f.at(250'000, TraceKind::kControlDownCommit, 0, /*a=*/1);
  f.at(400'000, TraceKind::kSiteRecover, 1);
  f.at(400'000, TraceKind::kRecoveryStarted, 1);
  f.at(410'000, TraceKind::kControlUpStart, 1, /*a=attempt*/ 1);
  f.at(500'000, TraceKind::kNominallyUp, 1, /*a=session*/ 2, /*b=marked*/ 3);
  f.at(520'000, TraceKind::kCopierCommit, 1, /*a=item*/ 7);
  f.at(540'000, TraceKind::kCopierCommit, 1, /*a=*/8);
  f.at(560'000, TraceKind::kCopierCommit, 1, /*a=*/9);
  f.at(560'000, TraceKind::kFullyCurrent, 1);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 1u);
  const RecoveryEpisode& e = eps[0];
  EXPECT_EQ(e.site, 1);
  EXPECT_TRUE(e.complete);
  EXPECT_EQ(e.crash_at, 100'000);
  EXPECT_EQ(e.declared_down_at, 200'000);
  EXPECT_EQ(e.type2_commit_at, 250'000);
  EXPECT_EQ(e.reboot_at, 400'000);
  EXPECT_EQ(e.nominally_up_at, 500'000);
  EXPECT_EQ(e.fully_current_at, 560'000);
  EXPECT_EQ(e.type1_attempts, 1);
  EXPECT_EQ(e.type2_rounds, 1);
  EXPECT_EQ(e.session, 2);
  EXPECT_EQ(e.marked_unreadable, 3);
  EXPECT_EQ(e.copier_commits, 3);
  // Backlog curve: 3 at nominally-up, drained one commit at a time, 0 at
  // fully-current.
  ASSERT_EQ(e.backlog.size(), 5u);
  const int64_t want[] = {3, 2, 1, 0, 0};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(e.backlog[i].remaining, want[i]) << "point " << i;
    if (i) {
      EXPECT_GE(e.backlog[i].at, e.backlog[i - 1].at);
    }
  }
}

TEST(EpisodeTracker, AttributesOverlappingRecoveriesPerSite) {
  Fold f;
  // Sites 1 and 2 crash and recover with interleaved events.
  f.at(100'000, TraceKind::kSiteCrash, 1);
  f.at(150'000, TraceKind::kSiteCrash, 2);
  f.at(200'000, TraceKind::kDetectorDeclare, 0, /*a=*/1);
  f.at(220'000, TraceKind::kDetectorDeclare, 0, /*a=*/2);
  f.at(300'000, TraceKind::kRecoveryStarted, 2);
  f.at(310'000, TraceKind::kControlUpStart, 2, 1);
  // Site 2's type-1 collides with site 1 still down and retries.
  f.at(360'000, TraceKind::kControlUpStart, 2, 2);
  f.at(400'000, TraceKind::kNominallyUp, 2, /*session*/ 3, /*marked*/ 0);
  f.at(400'000, TraceKind::kFullyCurrent, 2);
  f.at(500'000, TraceKind::kRecoveryStarted, 1);
  f.at(510'000, TraceKind::kControlUpStart, 1, 1);
  f.at(600'000, TraceKind::kNominallyUp, 1, /*session*/ 4, /*marked*/ 1);
  f.at(650'000, TraceKind::kCopierCommit, 1, 5);
  f.at(650'000, TraceKind::kFullyCurrent, 1);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 2u);
  // Closure order: site 2 finished first.
  EXPECT_EQ(eps[0].site, 2);
  EXPECT_EQ(eps[0].type1_attempts, 2); // retried against the other crash
  EXPECT_EQ(eps[0].copier_commits, 0);
  EXPECT_TRUE(eps[0].complete);
  EXPECT_EQ(eps[1].site, 1);
  EXPECT_EQ(eps[1].type1_attempts, 1);
  EXPECT_EQ(eps[1].copier_commits, 1);
  EXPECT_EQ(eps[1].crash_at, 100'000);
  EXPECT_EQ(eps[1].declared_down_at, 200'000);
}

TEST(EpisodeTracker, FalseSuspicionOpensEpisodeWithoutCrash) {
  Fold f;
  // The detector declares site 3 down though it never crashed; the forced
  // restart then fills the rest of the chain in.
  f.at(200'000, TraceKind::kDetectorDeclare, 0, /*a=*/3);
  f.at(300'000, TraceKind::kRecoveryStarted, 3);
  f.at(310'000, TraceKind::kControlUpStart, 3, 1);
  f.at(400'000, TraceKind::kNominallyUp, 3, /*session*/ 2, /*marked*/ 0);
  f.at(400'000, TraceKind::kFullyCurrent, 3);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].site, 3);
  EXPECT_EQ(eps[0].crash_at, kNoTime); // no fail-stop ever happened
  EXPECT_EQ(eps[0].declared_down_at, 200'000);
  EXPECT_TRUE(eps[0].complete);
}

TEST(EpisodeTracker, SecondCrashMidRecoveryClosesIncompleteEpisode) {
  Fold f;
  f.at(100'000, TraceKind::kSiteCrash, 1);
  f.at(200'000, TraceKind::kDetectorDeclare, 0, /*a=*/1);
  f.at(300'000, TraceKind::kRecoveryStarted, 1);
  f.at(310'000, TraceKind::kControlUpStart, 1, 1);
  // Crashes again before ever reaching nominally-up.
  f.at(350'000, TraceKind::kSiteCrash, 1);
  f.at(500'000, TraceKind::kRecoveryStarted, 1);
  f.at(510'000, TraceKind::kControlUpStart, 1, 1);
  f.at(600'000, TraceKind::kNominallyUp, 1, /*session*/ 3, /*marked*/ 0);
  f.at(600'000, TraceKind::kFullyCurrent, 1);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_FALSE(eps[0].complete);
  EXPECT_EQ(eps[0].crash_at, 100'000);
  EXPECT_EQ(eps[0].nominally_up_at, kNoTime);
  EXPECT_EQ(eps[0].type1_attempts, 1);
  EXPECT_TRUE(eps[1].complete);
  EXPECT_EQ(eps[1].crash_at, 350'000);
  EXPECT_EQ(eps[1].nominally_up_at, 600'000);
}

TEST(EpisodeTracker, CountsType1RetriesAndType2Rounds) {
  Fold f;
  f.at(100'000, TraceKind::kSiteCrash, 2);
  f.at(200'000, TraceKind::kDetectorDeclare, 0, /*a=*/2);
  // Three type-2 rounds before one commits (lock contention).
  f.at(210'000, TraceKind::kControlDownStart, 0, /*a=*/2);
  f.at(260'000, TraceKind::kControlDownStart, 1, /*a=*/2);
  f.at(310'000, TraceKind::kControlDownStart, 0, /*a=*/2);
  f.at(340'000, TraceKind::kControlDownCommit, 0, /*a=*/2);
  f.at(400'000, TraceKind::kRecoveryStarted, 2);
  f.at(410'000, TraceKind::kControlUpStart, 2, 1);
  f.at(460'000, TraceKind::kControlUpStart, 2, 2);
  f.at(510'000, TraceKind::kControlUpStart, 2, 3);
  f.at(600'000, TraceKind::kNominallyUp, 2, /*session*/ 2, /*marked*/ 0);
  f.at(600'000, TraceKind::kFullyCurrent, 2);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].type2_rounds, 3);
  EXPECT_EQ(eps[0].type2_commit_at, 340'000);
  EXPECT_EQ(eps[0].type1_attempts, 3);
}

TEST(EpisodeTracker, BacklogCurveCapsByOverwritingLastPoint) {
  Fold f;
  f.at(100'000, TraceKind::kSiteCrash, 1);
  f.at(300'000, TraceKind::kRecoveryStarted, 1);
  const int64_t marked = 400; // more commits than kMaxBacklogPoints
  f.at(400'000, TraceKind::kNominallyUp, 1, /*session*/ 2, marked);
  for (int64_t i = 0; i < marked; ++i) {
    f.at(400'000 + (i + 1) * 100, TraceKind::kCopierCommit, 1, i);
  }
  f.at(500'000, TraceKind::kFullyCurrent, 1);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].copier_commits, marked);
  // Capped, newest state kept: the curve still starts at `marked` and
  // ends at zero.
  EXPECT_EQ(eps[0].backlog.size(), 256u);
  EXPECT_EQ(eps[0].backlog.front().remaining, marked);
  EXPECT_EQ(eps[0].backlog.back().remaining, 0);
}

TEST(EpisodeTracker, SecondCrashAfterFullyCurrentOpensFreshEpisode) {
  Fold f;
  // Full recovery, then a second crash long after fully-current: the
  // second episode must start clean (no carried-over milestones) and the
  // first must stay closed and complete.
  f.at(100'000, TraceKind::kSiteCrash, 1);
  f.at(200'000, TraceKind::kRecoveryStarted, 1);
  f.at(210'000, TraceKind::kControlUpStart, 1, 1);
  f.at(300'000, TraceKind::kNominallyUp, 1, /*session*/ 2, /*marked*/ 1);
  f.at(320'000, TraceKind::kCopierCommit, 1, 7);
  f.at(320'000, TraceKind::kFullyCurrent, 1);
  f.at(800'000, TraceKind::kSiteCrash, 1);
  f.at(900'000, TraceKind::kRecoveryStarted, 1);
  f.at(910'000, TraceKind::kControlUpStart, 1, 1);
  f.at(950'000, TraceKind::kNominallyUp, 1, /*session*/ 3, /*marked*/ 0);
  f.at(950'000, TraceKind::kFullyCurrent, 1);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_TRUE(eps[0].complete);
  EXPECT_EQ(eps[0].crash_at, 100'000);
  EXPECT_EQ(eps[0].copier_commits, 1);
  EXPECT_TRUE(eps[1].complete);
  EXPECT_EQ(eps[1].crash_at, 800'000);
  EXPECT_EQ(eps[1].nominally_up_at, 950'000);
  EXPECT_EQ(eps[1].copier_commits, 0); // nothing leaked from episode 1
  EXPECT_EQ(eps[1].session, 3);
}

TEST(EpisodeTracker, EpisodeStillOpenAtQuiescenceIsReportedIncomplete) {
  Fold f;
  // Crash with no recovery before the run ends: the open episode must
  // still be visible (marked incomplete) rather than dropped.
  f.at(100'000, TraceKind::kSiteCrash, 2);
  f.at(200'000, TraceKind::kDetectorDeclare, 0, /*a=*/2);
  f.at(250'000, TraceKind::kControlDownCommit, 0, /*a=*/2);

  const auto eps = f.run();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_FALSE(eps[0].complete);
  EXPECT_EQ(eps[0].site, 2);
  EXPECT_EQ(eps[0].crash_at, 100'000);
  EXPECT_EQ(eps[0].type2_commit_at, 250'000);
  EXPECT_EQ(eps[0].nominally_up_at, kNoTime);
  EXPECT_EQ(eps[0].fully_current_at, kNoTime);
}

TEST(EpisodeTracker, FinishedEpisodesAreCappedWithDropCount) {
  Scheduler sched;
  Tracer tracer(sched, 64);
  EpisodeTracker eps(4);
  tracer.add_sink(&eps);
  // Soak-scale churn: far more completed episodes than the cap.
  const uint64_t rounds = 4096 + 50;
  SimTime t = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    sched.at(t += 1'000, [&]() { tracer.record(TraceKind::kSiteCrash, 1); });
    sched.at(t += 1'000,
             [&]() { tracer.record(TraceKind::kRecoveryStarted, 1); });
    sched.at(t += 1'000,
             [&]() { tracer.record(TraceKind::kNominallyUp, 1, 0, 2, 0); });
    sched.at(t += 1'000,
             [&]() { tracer.record(TraceKind::kFullyCurrent, 1); });
  }
  sched.run_all();
  EXPECT_EQ(eps.episodes().size(), 4096u);
  EXPECT_EQ(eps.finished_dropped(), rounds - 4096);
  eps.clear();
  EXPECT_EQ(eps.finished_dropped(), 0u);
  EXPECT_TRUE(eps.episodes().empty());
}

TEST(EpisodeTracker, StrayEventsWithoutOpenEpisodeAreIgnored) {
  Fold f;
  // Copier commits and type-1 starts on a healthy site must not conjure
  // an episode out of thin air.
  f.at(100'000, TraceKind::kCopierCommit, 0, 5);
  f.at(200'000, TraceKind::kControlUpStart, 0, 1);
  f.at(300'000, TraceKind::kControlDownStart, 0, /*a=*/2);
  EXPECT_TRUE(f.run().empty());
}

// --------------------------------------------------------------------------
// TimeSeries bucketing and sites-up derivation.

TEST(TimeSeries, CountsOnlyUserTransactionsPerBucket) {
  Scheduler sched;
  Tracer tracer(sched, 16);
  TimeSeries ts(100'000, 3);
  tracer.add_sink(&ts);

  auto emit = [&](SimTime t, TraceKind k, TxnKind who) {
    sched.at(t, [&tracer, k, who]() {
      tracer.record(k, 0, 1, 0, static_cast<int64_t>(who));
    });
  };
  emit(50'000, TraceKind::kTxnCommit, TxnKind::kUser);
  emit(60'000, TraceKind::kTxnCommit, TxnKind::kCopier);     // overhead
  emit(70'000, TraceKind::kTxnCommit, TxnKind::kControlUp);  // overhead
  emit(150'000, TraceKind::kTxnCommit, TxnKind::kUser);
  emit(160'000, TraceKind::kTxnCommit, TxnKind::kUser);
  emit(155'000, TraceKind::kTxnAbort, TxnKind::kUser);
  emit(250'000, TraceKind::kTxnAbort, TxnKind::kControlDown); // overhead
  sched.run_all();

  const TimeSeriesData d = ts.data();
  EXPECT_EQ(d.bucket_width, 100'000);
  ASSERT_EQ(d.commits.size(), 2u); // nothing user-visible in bucket 2
  EXPECT_EQ(d.commits[0], 1);
  EXPECT_EQ(d.commits[1], 2);
  ASSERT_EQ(d.aborts.size(), 2u);
  EXPECT_EQ(d.aborts[0], 0);
  EXPECT_EQ(d.aborts[1], 1);
  // All arrays padded to one shared length.
  EXPECT_EQ(d.session_rejects.size(), d.commits.size());
  EXPECT_EQ(d.sites_up.size(), d.commits.size());
}

TEST(TimeSeries, DerivesSitesUpFromCrashAndNominallyUp) {
  Scheduler sched;
  Tracer tracer(sched, 16);
  TimeSeries ts(100'000, 5);
  tracer.add_sink(&ts);

  sched.at(150'000, [&]() { tracer.record(TraceKind::kSiteCrash, 2); });
  sched.at(250'000, [&]() { tracer.record(TraceKind::kSiteCrash, 4); });
  sched.at(450'000,
           [&]() { tracer.record(TraceKind::kNominallyUp, 2, 0, 2, 0); });
  sched.run_all();

  const TimeSeriesData d = ts.data();
  // Buckets extend through the last transition.
  ASSERT_EQ(d.sites_up.size(), 5u);
  EXPECT_EQ(d.sites_up[0], 5); // all up at bootstrap
  EXPECT_EQ(d.sites_up[1], 4); // site 2 crashed at 150ms
  EXPECT_EQ(d.sites_up[2], 3); // site 4 crashed at 250ms
  EXPECT_EQ(d.sites_up[3], 3);
  EXPECT_EQ(d.sites_up[4], 4); // site 2 back at 450ms
}

TEST(TimeSeries, SecondCrashMidRecoveryDoesNotDoubleDecrement) {
  Scheduler sched;
  Tracer tracer(sched, 16);
  TimeSeries ts(100'000, 4);
  tracer.add_sink(&ts);

  // Site 1 crashes, reboots, and crashes again BEFORE reaching
  // nominally-up. site.cpp emits kSiteCrash unconditionally on the second
  // fail-stop, which used to drive sites_up to 2 although only one site
  // was ever down.
  sched.at(150'000, [&]() { tracer.record(TraceKind::kSiteCrash, 1); });
  sched.at(250'000, [&]() { tracer.record(TraceKind::kSiteCrash, 1); });
  sched.at(450'000,
           [&]() { tracer.record(TraceKind::kNominallyUp, 1, 0, 2, 0); });
  sched.run_all();

  const TimeSeriesData d = ts.data();
  ASSERT_EQ(d.sites_up.size(), 5u);
  EXPECT_EQ(d.sites_up[0], 4);
  EXPECT_EQ(d.sites_up[1], 3);
  EXPECT_EQ(d.sites_up[2], 3); // second crash of the same site: no change
  EXPECT_EQ(d.sites_up[3], 3);
  EXPECT_EQ(d.sites_up[4], 4);
  // And a duplicate nominally-up cannot over-increment either.
  tracer.record(TraceKind::kNominallyUp, 1, 0, 2, 0);
  const TimeSeriesData d2 = ts.data();
  EXPECT_EQ(d2.sites_up.back(), 4);
}

TEST(TimeSeries, ThroughExtendsQuietTailIntoPartialFinalBucket) {
  Scheduler sched;
  Tracer tracer(sched, 16);
  TimeSeries ts(100'000, 3);
  tracer.add_sink(&ts);

  sched.at(50'000, [&]() {
    tracer.record(TraceKind::kTxnCommit, 0, 1, 0,
                  static_cast<int64_t>(TxnKind::kUser));
  });
  sched.at(150'000, [&]() { tracer.record(TraceKind::kSiteCrash, 2); });
  sched.run_all();

  // Legacy view truncates at the last event's bucket...
  EXPECT_EQ(ts.data().sites_up.size(), 2u);
  // ...but a run that kept simulating quietly until 470ms has buckets 2-4
  // too, the last one partial. The crash (never recovered) must persist
  // through the extended tail instead of vanishing with the truncation.
  const TimeSeriesData d = ts.data(470'000);
  ASSERT_EQ(d.sites_up.size(), 5u);
  EXPECT_EQ(d.commits.size(), 5u);
  EXPECT_EQ(d.sites_up[0], 3);
  for (size_t b = 1; b < d.sites_up.size(); ++b) EXPECT_EQ(d.sites_up[b], 2);
  EXPECT_EQ(d.commits[0], 1);
  for (size_t b = 1; b < d.commits.size(); ++b) EXPECT_EQ(d.commits[b], 0);
  // `through` on a bucket boundary must not add a trailing empty bucket.
  EXPECT_EQ(ts.data(200'000).sites_up.size(), 2u);
  EXPECT_EQ(ts.data(200'001).sites_up.size(), 3u);
}

TEST(TimeSeries, ZeroWidthDisablesRecording) {
  Scheduler sched;
  Tracer tracer(sched, 16);
  TimeSeries ts(0, 3);
  tracer.add_sink(&ts);
  tracer.record(TraceKind::kTxnCommit, 0, 1, 0,
                static_cast<int64_t>(TxnKind::kUser));
  tracer.record(TraceKind::kSiteCrash, 1);
  const TimeSeriesData d = ts.data();
  EXPECT_EQ(d.bucket_width, 0);
  EXPECT_TRUE(d.commits.empty());
  EXPECT_TRUE(d.sites_up.empty());
}

// --------------------------------------------------------------------------
// Spans on the event ring: nesting, ambient scope, null-safety, ring
// semantics.

TEST(TracerSpans, NestsChildrenUnderAmbientSpan) {
  Scheduler sched;
  Tracer log(sched, 32);
  const SpanId root = log.begin(TraceKind::kTxnBegin, 0, 42);
  EXPECT_NE(root, 0u);
  EXPECT_EQ(log.current(), 0u); // begin() does not install the span
  SpanId child = 0;
  {
    SpanScope scope(&log, root);
    EXPECT_EQ(log.current(), root);
    child = log.begin(TraceKind::kLockWait, 1, 42);
    log.record(TraceKind::kSessionReject, 1, 42, /*a=*/7);
  }
  EXPECT_EQ(log.current(), 0u); // scope restored
  log.end(child, TraceKind::kLockWait, 1, 42);
  log.end(root, TraceKind::kTxnBegin, 0, 42);

  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[0].parent, 0u); // root has no parent
  EXPECT_EQ(events[1].kind, TraceKind::kLockWait);
  EXPECT_EQ(events[1].parent, root); // ambient parent captured
  EXPECT_EQ(events[2].kind, TraceKind::kSessionReject);
  EXPECT_EQ(events[2].phase, TracePhase::kInstant);
  EXPECT_EQ(events[2].parent, root);
  EXPECT_EQ(events[2].a, 7);
  EXPECT_EQ(events[3].phase, TracePhase::kEnd);
  EXPECT_EQ(events[3].span, child);
  EXPECT_EQ(events[4].span, root);
}

TEST(TracerSpans, ExplicitParentOverridesAmbient) {
  Scheduler sched;
  Tracer log(sched, 32);
  const SpanId a = log.begin(TraceKind::kTxnBegin, 0);
  const SpanId b = log.begin_under(a, TraceKind::kCopierStart, 1);
  log.record_under(b, TraceKind::kCopierCommit, 1);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].parent, a);
  EXPECT_EQ(events[2].parent, b);
}

TEST(TracerSpans, NullTracerIsSafeEverywhere) {
  EXPECT_EQ(Tracer::open(nullptr, TraceKind::kTxnBegin, 0), 0u);
  Tracer::close(nullptr, 3, TraceKind::kTxnBegin, 0); // no crash
  Tracer::emit(nullptr, TraceKind::kSessionReject, 0);
  Tracer::emit_under(nullptr, 9, TraceKind::kCopierCommit, 0);
  SpanScope scope(nullptr, 5); // no crash, no effect
}

TEST(TracerSpans, RingWrapsAndCountsDropped) {
  Scheduler sched;
  Tracer log(sched, 4);
  std::vector<SpanId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(log.begin(TraceKind::kTxnBegin, 0, 100 + i));
  }
  for (SpanId id : ids) log.end(id, TraceKind::kTxnBegin, 0);
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  // Newest events survive: the four end events.
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (const TraceEvent& e : events) EXPECT_EQ(e.phase, TracePhase::kEnd);

  log.clear();
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

// --------------------------------------------------------------------------
// The whole pipeline on a real cluster.

// A quiet crash-recover scenario: no client load, so the type-2 control
// transaction is not starved by lock contention and the full episode
// chain (declare -> type-2 commit -> type-1 -> copier drain) completes.
void run_quiet_recovery(Cluster& cluster) {
  cluster.bootstrap();
  // Seed some data and write to items replicated at site 1 after it goes
  // down, so recovery has missed copies to drain.
  for (ItemId i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        cluster.run_txn(0, {{OpKind::kWrite, i, 100 + i}}).committed);
  }
  cluster.crash_site(1);
  cluster.run_until(cluster.now() + 400'000);
  for (ItemId i = 0; i < 10; ++i) {
    (void)cluster.run_txn(0, {{OpKind::kWrite, i, 200 + i}});
  }
  cluster.run_until(cluster.now() + 1'200'000);
  cluster.recover_site(1);
  cluster.settle();
}

Config quiet_config() {
  Config cfg;
  cfg.n_sites = 4;
  cfg.n_items = 24;
  cfg.replication_degree = 3;
  cfg.timeseries_bucket = 250'000;
  return cfg;
}

TEST(EpisodeReport, ClusterRunProducesOrderedEpisodeAndSeries) {
  Config cfg = quiet_config();
  Cluster cluster(cfg, 41);
  run_quiet_recovery(cluster);

  RunReport report("unit");
  cluster.report_run(report, "quiet");
  const JsonValue doc = parse_checked(report.to_json());
  const JsonObject& run = doc.obj().at("runs").arr()[0].obj();

  // Trace accounting is always present.
  const JsonObject& trace = run.at("trace").obj();
  EXPECT_GT(trace.at("recorded").num(), 0.0);
  EXPECT_GE(trace.at("dropped").num(), 0.0);
  EXPECT_GT(trace.at("spans_recorded").num(), 0.0);

  // Exactly one complete recovery episode for site 1, with every phase
  // milestone in causal order and the durations filled in.
  const JsonArray& eps = run.at("episodes").arr();
  ASSERT_EQ(eps.size(), 1u);
  const JsonObject& ep = eps[0].obj();
  EXPECT_EQ(ep.at("site").num(), 1.0);
  EXPECT_TRUE(std::get<bool>(ep.at("complete").v));
  const double crash = ep.at("crash_at").num();
  const double declared = ep.at("declared_down_at").num();
  const double type2 = ep.at("type2_commit_at").num();
  const double reboot = ep.at("reboot_at").num();
  const double up = ep.at("nominally_up_at").num();
  const double current = ep.at("fully_current_at").num();
  EXPECT_LT(crash, declared);
  EXPECT_LT(declared, type2);
  EXPECT_LT(type2, reboot);
  EXPECT_LT(reboot, up);
  EXPECT_LE(up, current);
  EXPECT_DOUBLE_EQ(ep.at("declared_to_type2_us").num(), type2 - declared);
  EXPECT_DOUBLE_EQ(ep.at("reboot_to_nominally_up_us").num(), up - reboot);
  EXPECT_DOUBLE_EQ(ep.at("nominally_up_to_current_us").num(), current - up);
  EXPECT_GE(ep.at("type1_attempts").num(), 1.0);
  EXPECT_GT(ep.at("marked_unreadable").num(), 0.0); // missed writes existed
  EXPECT_GT(ep.at("copier_commits").num(), 0.0);
  // Backlog curve starts at the marked count and drains to zero.
  const JsonArray& backlog = ep.at("backlog").arr();
  ASSERT_GE(backlog.size(), 2u);
  EXPECT_DOUBLE_EQ(backlog.front().obj().at("remaining").num(),
                   ep.at("marked_unreadable").num());
  EXPECT_DOUBLE_EQ(backlog.back().obj().at("remaining").num(), 0.0);

  // The availability curve shows the site count dipping to 3 and back.
  const JsonObject& series = run.at("time_series").obj();
  EXPECT_EQ(series.at("bucket_us").num(), 250'000.0);
  const JsonArray& sites_up = series.at("sites_up").arr();
  ASSERT_FALSE(sites_up.empty());
  double lowest = 1e9, highest = 0;
  for (const JsonValue& v : sites_up) {
    lowest = std::min(lowest, v.num());
    highest = std::max(highest, v.num());
  }
  EXPECT_EQ(lowest, 3.0);
  EXPECT_EQ(highest, 4.0);
  EXPECT_EQ(sites_up.back().num(), 4.0); // recovered by the end
  // User commits happened and are padded to the series length.
  const JsonArray& commits = series.at("commits").arr();
  EXPECT_EQ(commits.size(), sites_up.size());
  double total = 0;
  for (const JsonValue& v : commits) total += v.num();
  EXPECT_GE(total, 10.0);
}

TEST(EpisodeReport, ChromeSpanExportIsStructurallyValid) {
  Config cfg = quiet_config();
  Cluster cluster(cfg, 41);
  run_quiet_recovery(cluster);

  const JsonValue doc =
      parse_checked(cluster.spans_chrome_json());
  ASSERT_TRUE(doc.is_object());
  const JsonArray& events = doc.obj().at("traceEvents").arr();
  ASSERT_FALSE(events.empty());
  bool saw_complete = false, saw_instant = false, saw_recovery = false;
  for (const JsonValue& v : events) {
    const JsonObject& e = v.obj();
    ASSERT_TRUE(e.count("name"));
    ASSERT_TRUE(e.count("ph"));
    ASSERT_TRUE(e.count("ts"));
    ASSERT_TRUE(e.count("pid"));
    const std::string& ph = e.at("ph").str();
    if (ph == "X") {
      saw_complete = true;
      EXPECT_GE(e.at("dur").num(), 0.0);
    } else {
      EXPECT_EQ(ph, "i");
      saw_instant = true;
    }
    if (ph == "X" && e.at("name").str() ==
                         std::string(to_string(TraceKind::kRecoveryStarted))) {
      saw_recovery = true;
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_recovery); // the recovery episode span made it out
}

TEST(EpisodeReport, FixedSeedReplayIsByteIdentical) {
  auto render = []() {
    Config cfg = quiet_config();
    Cluster cluster(cfg, 97);
    run_quiet_recovery(cluster);
    RunReport report("determinism");
    cluster.report_run(report, "quiet");
    return std::make_pair(report.to_json(),
                          cluster.spans_chrome_json());
  };
  const auto first = render();
  const auto second = render();
  EXPECT_EQ(first.first, second.first);   // report JSON, episodes included
  EXPECT_EQ(first.second, second.second); // Chrome span export
}

} // namespace
} // namespace ddbs
