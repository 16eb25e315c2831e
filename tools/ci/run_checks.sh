#!/usr/bin/env bash
# Tier-1 verification gate: build + tests, the sanitizer build, and a
# smoke run of the observability pipeline (ddbs_sim report/span export ->
# ddbs_trace.py -> compare_reports.py). Run from anywhere; everything is
# anchored to the repo root. Exits non-zero on the first failure.
#
# Usage: tools/ci/run_checks.sh [--no-asan] [--no-tsan] [--no-perf] [--no-soak]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
run_asan=1
run_tsan=1
run_perf=1
run_soak=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-perf) run_perf=0 ;;
    --no-soak) run_soak=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

step() { printf '\n=== %s ===\n' "$*"; }

# cmake resolves --preset against the current directory, so run every
# preset command from the repo root.
cd "$repo"

step "tier-1 build (preset: default)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"

step "tier-1 tests"
ctest --preset default -j "$jobs"

if [[ "$run_asan" == 1 ]]; then
  step "ASan+UBSan build (preset: asan)"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs"

  step "ASan+UBSan tests"
  ctest --preset asan -j "$jobs"
fi

if [[ "$run_tsan" == 1 ]]; then
  step "TSan build (preset: tsan)"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs"

  step "TSan: parallel-backend tests (shard threads, rings, barrier)"
  # The race surface is the site-parallel backend; running only its tests
  # keeps the TSan job minutes, not hours. Any write outside the epoch
  # protocol (ring slots, per-shard metrics, recorder callbacks) trips
  # -fno-sanitize-recover and fails the gate.
  ctest --preset tsan -j "$jobs" \
    -R 'SpscRing|ShardedMetrics|ParallelRuntime|ParallelDifferential'
fi

step "adversarial explorer smoke (planted-bug self-checks + clean run)"
# Self-validation: with a planted protocol bug the bounded exploration
# must find a violation, shrink it, and verify the repro byte-for-byte
# (nonzero exit otherwise). The same bounded run on the unmutated
# protocol must find nothing. Repro artifacts land in explore-corpus/
# for the workflow to archive when this gate fails.
corpus="$repo/explore-corpus"
rm -rf "$corpus"
"$repo/build/tools/ddbs_explore" \
  --planted-bug=skip-mark --schedules=6 --seeds=1 -j "$jobs" \
  --sites=4 --items=40 --horizon-ms=1500 \
  --shrink-budget=80 --max-shrinks=2 --corpus="$corpus" >/dev/null
# The session-check mutation has no step here. Its only fail-stop catches
# came through a lost ping that let a recovering site re-found the
# cluster beside a live one; ControlUpCoordinator::pick_sponsor now
# ping-verifies every silent site first. Since then no schedule violates
# with the mutation and runs clean without it: 400 runs per setting at
# 5-20% loss with 2-4 clients on 4 sites, and 300 runs each on 3, 5 and 6
# sites at 10% loss, find none (ROADMAP item 12).
"$repo/build/tools/ddbs_explore" \
  --schedules=4 --seeds=1 -j "$jobs" \
  --sites=4 --items=40 --horizon-ms=1500 --corpus= >/dev/null
rm -rf "$corpus"

step "footprint-NS scale smoke (128 sites x 100k items, oracles on)"
# The footprint-proportional session protocol at a size where the dense
# protocol would read 128 NS entries per transaction: one crash/recover
# cycle, invariant oracles + replica convergence judged at quiescence
# (ddbs_sweep exits nonzero on any violation or missed convergence).
"$repo/build/tools/ddbs_sweep" \
  --sites=128 --items=100000 --degree=3 --footprint-ns=on \
  --seeds=1 -j "$jobs" --clients=1 --duration-ms=500 \
  --crash=5@150 --recover=5@300 \
  --out="$repo/build/SWEEP_scale_smoke.json" >/dev/null

step "idle detector cost (256 sites, no clients, <= 200k events)"
# Each failure detector probes only its ring window, so an idle cluster's
# event count grows with n, not n^2 (a full probe mesh executes ~4.8M
# events here). The count is deterministic for a fixed seed.
"$repo/build/tools/ddbs_sweep" \
  --sites=256 --items=10240 --clients=0 --duration-ms=2000 --seeds=1 -j1 \
  --out="$repo/build/SWEEP_idle_detector.json" >/dev/null
python3 -c '
import json, sys
events = json.load(open(sys.argv[1]))["host"]["events_executed"]
assert events <= 200000, f"idle 256-site run executed {events} events (> 200000)"
' "$repo/build/SWEEP_idle_detector.json"

step "commit work (64 sites, fault-free: <= 32 events/commit, p50 <= 2.72 ms)"
# The fault-free 64-site reference twin. A user transaction sends every
# site's batch at once, no-wait, and prepared sites vote with their batch,
# so an uncontended commit costs one round trip; only a busy site starts
# the ordered chain. 29.9 events per commit and a 2.60 ms p50 (the p50
# bound is that plus 5%), against 30.9 and 7.09 ms when every transaction
# chained (n + 1 one-way hops). Both figures are deterministic for a fixed
# seed.
"$repo/build/tools/ddbs_sweep" \
  --sites=64 --items=6400 --clients=4 --seeds=1 -j1 \
  --out="$repo/build/SWEEP_commit_work.json" >/dev/null
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
run = d["cells"][0]["runs"][0]
per_commit = d["host"]["events_executed"] / run["committed"]
p50_ms = run["p50_latency_us"] / 1000
assert per_commit <= 32, f"{per_commit:.2f} events per commit (> 32)"
assert p50_ms <= 2.72, f"p50 {p50_ms:.2f} ms (> 2.72)"
' "$repo/build/SWEEP_commit_work.json"

step "hot-spot tail (64 sites, zipf 0.6: p99 <= 24.8 ms, >= 28368 commits)"
# churn-64's transaction mix without its faults: writes skewed onto a few
# hot items. A user transaction's lock request waits behind holders only;
# one that would queue behind another waiter is refused (kBusy) and the
# transaction aborts. With FIFO queues the chained batches held X locks at
# lower sites while they waited, and the queues drained only through the
# 200 ms lock_timeout: p99 205.5 ms and 10,602 commits. Now p99 22.5 ms and
# 31,521 commits (commit ratio 0.888). The bounds are those figures +10%
# and -10%; both are deterministic for a fixed seed.
"$repo/build/tools/ddbs_sweep" \
  --sites=64 --items=6400 --clients=2 --ops=3 --reads=0.2 --zipf=0.6 \
  --seeds=1 -j1 --out="$repo/build/SWEEP_hot_spot.json" >/dev/null
python3 -c '
import json, sys
run = json.load(open(sys.argv[1]))["cells"][0]["runs"][0]
p99_ms = run["p99_latency_us"] / 1000
assert p99_ms <= 24.8, f"hot-spot p99 {p99_ms:.2f} ms (> 24.8)"
commits = run["committed"]
assert commits >= 28368, f"hot-spot {commits} commits (< 28368)"
' "$repo/build/SWEEP_hot_spot.json"

step "256-site memory (compact copy store, peak RSS <= 100 MB)"
# Each site stores only the copies it hosts plus the NS vector, so 256
# sites x 10240 items peak near 55 MB. A store that reserves a slot per
# item at every site (O(sites x items)) peaks above 150 MB and trips the
# ceiling: ddbs_soak exits 3.
"$repo/build/tools/ddbs_soak" \
  --cells=mark-all --rounds=1 --round-ms=300 --sites=256 --items=10240 \
  --clients=1 --rss-limit-mb=100 --out="$repo/build/SOAK_memory_256.json" \
  >/dev/null

step "watchdog self-test (planted NS-lock stall caught, clean run quiet)"
# Self-validation of the no-progress watchdog. --planted-stall restores
# the historical fixed type-1 retry backoff + permanent give-up; with the
# retry cycle squeezed to one attempt, a first type-1 that times out on
# site 3 (crashed just before site 2 reboots, still nominally up) strands
# the recovering site, and the watchdog must catch it (exit 4) within the
# bounded recovery budget and freeze a diagnostic bundle carrying the
# livelock signature. The same squeeze WITHOUT the planted flag must run
# clean. Bundles land in watchdog-bundles/ for the workflow to archive
# when this gate fails; the directory is removed on success.
bundles="$repo/watchdog-bundles"
rm -rf "$bundles"; mkdir -p "$bundles"
stall_flags=(--sites=4 --items=100 --degree=3 --scheme=spooler --clients=6
             --ops=3 --duration-ms=4000 --seed=4 --crash=2@200
             --crash=3@290 --recover=2@300 --recover=3@2000
             --retry-limit=1 --watchdog
             --watchdog-recovery-ms=2500)
rc=0
"$repo/build/tools/ddbs_sim" "${stall_flags[@]}" --planted-stall \
  --bundle-out="$bundles/planted.json" >/dev/null 2>&1 || rc=$?
if [[ "$rc" != 4 ]]; then
  echo "watchdog self-test: planted stall NOT caught (exit $rc, want 4)" >&2
  exit 1
fi
for key in '"waits_for"' '"ns_lock_holders"' '"ns_vector"' '"trace_tail"'; do
  grep -q "$key" "$bundles/planted.json" || {
    echo "watchdog self-test: bundle missing $key" >&2; exit 1; }
done
if ! "$repo/build/tools/ddbs_sim" "${stall_flags[@]}" \
    --bundle-out="$bundles/clean.json" >/dev/null 2>&1; then
  echo "watchdog self-test: fixed-backoff run stalled or failed" >&2
  exit 1
fi
if [[ -f "$bundles/clean.json" ]]; then
  echo "watchdog self-test: clean run unexpectedly wrote a bundle" >&2
  exit 1
fi
rm -rf "$bundles"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [[ "$run_perf" == 1 ]]; then
  step "perf gate (bench_micro vs committed baseline)"
  # DDBS_PERF_BASELINE_DIR was born opt-in (see tools/CMakeLists.txt for
  # the equivalent ctest wiring); here it defaults to the committed
  # baseline so CI always runs the gate. The threshold is loose because
  # CI hosts differ from the baseline's host -- this catches hot paths
  # going accidentally quadratic, not few-percent drift (see
  # tools/ci/baselines/README.md).
  perf_baseline="${DDBS_PERF_BASELINE_DIR:-$repo/tools/ci/baselines}"
  if [[ -f "$perf_baseline/BENCH_micro.json" ]]; then
    DDBS_REPORT_DIR="$tmp" "$repo/build/bench/bench_micro" \
      --benchmark_min_time=0.05 >/dev/null 2>&1
    python3 "$repo/tools/compare_reports.py" \
      --scalar events_per_sec \
      --threshold "${DDBS_PERF_THRESHOLD:-50}" \
      "$perf_baseline/BENCH_micro.json" "$tmp/BENCH_micro.json"
  else
    echo "no BENCH_micro.json under $perf_baseline; skipping"
  fi
fi

if [[ "$run_soak" == 1 ]]; then
  step "online-verifier soak smoke (>= 1M committed txns, bounded RSS)"
  # Every outdated strategy plus the spooler baseline through repeated
  # crash/recover rounds with the incremental verifier judging each round
  # boundary and pruning the consumed history. Exit is nonzero on any
  # invariant violation, (exit 3) if peak RSS exceeds the ceiling -- the
  # ceiling is what proves acknowledged-prefix pruning works -- and
  # (exit 4) if the no-progress watchdog sees a stall: a clean default
  # config must produce zero stall events.
  "$repo/build/tools/ddbs_soak" \
    --rounds=100 --round-ms=5000 --clients=6 --sites=4 --items=100 \
    --target-committed=200000 --rss-limit-mb=512 -j "$jobs" \
    --watchdog --bundle-out="$tmp/soak_bundle" \
    --out="$tmp/SOAK_ci.json"

  step "parallel-backend soak smoke (>= 1e5 committed txns, bounded RSS)"
  # Same harness on the site-parallel backend: shard threads, mailbox
  # rings and the epoch barrier under sustained crash/recover load, with
  # the online verifier judging every round boundary. The RSS ceiling
  # holds the per-shard rings/metrics/trace buffers to a bounded footprint.
  # A hung barrier fails the step after ten minutes (it takes ~10 s).
  timeout 600 "$repo/build/tools/ddbs_soak" \
    --cells=missing-list --rounds=100 --round-ms=5000 --clients=6 \
    --sites=8 --items=200 --threads=4 \
    --target-committed=100000 --rss-limit-mb=512 \
    --out="$tmp/SOAK_parallel_ci.json"

  step "durable-engine soak smoke (>= 1e5 committed txns, bounded RSS)"
  # Checkpoint + redo-log storage under sustained crash/recover churn:
  # every commit pays journal/flush device time, every reboot is a real
  # checkpoint read + batched redo replay, and checkpoints keep truncating
  # the log. The RSS ceiling is the proof that the redo log, the pending
  # checkpoint images and the acked-outcome table all stay bounded.
  "$repo/build/tools/ddbs_soak" \
    --cells=mark-all,missing-list --rounds=100 --round-ms=5000 --clients=6 \
    --sites=4 --items=100 --storage-engine=durable \
    --checkpoint-interval=2048 \
    --target-committed=100000 --rss-limit-mb=512 -j "$jobs" \
    --out="$tmp/SOAK_durable_ci.json"
fi

step "observability smoke (ddbs_sim -> ddbs_trace.py)"
"$repo/build/tools/ddbs_sim" \
  --duration-ms=3000 --crash=2@600 --recover=2@1500 \
  --report-out="$tmp/report.json" --spans-out="$tmp/spans.json" \
  --telemetry-out="$tmp/telemetry.jsonl" >/dev/null
python3 "$repo/tools/ddbs_trace.py" "$tmp/report.json" >/dev/null
python3 "$repo/tools/ddbs_trace.py" "$tmp/spans.json" >/dev/null
python3 "$repo/tools/ddbs_trace.py" "$tmp/telemetry.jsonl" --tail 8 >/dev/null
# A report must never regress against itself.
python3 "$repo/tools/compare_reports.py" \
  --scalar throughput_txn_s "$tmp/report.json" "$tmp/report.json" >/dev/null
# Site 2's crash and recovery fold into exactly one complete episode, on
# either backend (the type-2 may run on another shard than site 2).
expect_one_episode() {
  python3 -c '
import json, sys
eps = json.load(open(sys.argv[1]))["runs"][0]["episodes"]
assert len(eps) == 1 and eps[0]["site"] == 2 and eps[0]["complete"], eps
' "$1"
}
expect_one_episode "$tmp/report.json"

step "observability smoke, parallel backend (--threads=4)"
# Bounded like the parallel soak: a hung barrier fails here, not at the
# workflow's own timeout.
timeout 300 "$repo/build/tools/ddbs_sim" --threads=4 \
  --duration-ms=3000 --crash=2@600 --recover=2@1500 \
  --report-out="$tmp/report4.json" --spans-out="$tmp/spans4.json" \
  --telemetry-out="$tmp/telemetry4.jsonl" >/dev/null
python3 "$repo/tools/ddbs_trace.py" "$tmp/report4.json" >/dev/null
python3 "$repo/tools/ddbs_trace.py" "$tmp/spans4.json" >/dev/null
python3 "$repo/tools/ddbs_trace.py" "$tmp/telemetry4.jsonl" --tail 8 >/dev/null
expect_one_episode "$tmp/report4.json"

step "all checks passed"
