#!/usr/bin/env python3
"""Compare two BENCH_*.json run reports and flag scalar regressions.

Usage:
  compare_reports.py BASELINE.json CURRENT.json [options]

Options:
  --scalar NAME      scalar to compare (repeatable; default: events_per_sec)
  --threshold PCT    allowed regression in percent (default: 10)
  --higher-is-better / --lower-is-better
                     direction of goodness for the named scalars
                     (default: higher is better, which fits rates like
                     events_per_sec / throughput_txn_s)

Runs are matched by label; a scalar absent from either side of a matched
run is skipped and reported as added/removed rather than treated as an
error (new benches and new report fields shouldn't fail old baselines).
Schema v3 runs additionally carry a "histograms" object (log-bucketed
latency stats); each histogram statistic is flattened into a synthetic
scalar named "<histogram>.<stat>" (e.g. "commit_latency_us.p99") so it
can be gated with --scalar --lower-is-better, and histograms new to the
current report surface as added scalars, not failures. Comparing a v3
report against a v2 baseline therefore stays green until a shared scalar
actually regresses. Schema v4 drops the per-run "recoveries" block (the
"episodes" block is the one per-recovery record) and the two
rm.reboot_to_up_us / rm.up_to_current_us histograms, which surface as
removed scalars against an older baseline; nothing here reads either.
Schema v5 folds the trace block's two rings into one (a single "dropped",
no "spans_dropped"); nothing here reads it.
Exits 1 when any compared scalar regressed by more than the threshold,
0 otherwise -- including when nothing was comparable at all, which is the
expected state right after a schema change. Stdlib only -- usable straight
from CTest or CI.
"""

import argparse
import json
import sys


def flatten(run):
    scalars = dict(run.get("scalars", {}))
    for name, stats in run.get("histograms", {}).items():
        if not isinstance(stats, dict):
            continue
        for stat, value in stats.items():
            scalars[f"{name}.{stat}"] = value
    return scalars


def load_runs(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"compare_reports: cannot read {path}: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"compare_reports: {path} is not a run report object")
    version = doc.get("schema_version")
    if version is not None and version not in (1, 2, 3, 4, 5):
        sys.exit(f"compare_reports: {path}: unknown schema_version {version}")
    return version, {run["label"]: flatten(run) for run in doc.get("runs", [])}


def main():
    ap = argparse.ArgumentParser(add_help=True)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--scalar", action="append", default=[])
    ap.add_argument("--threshold", type=float, default=10.0)
    ap.add_argument("--higher-is-better", dest="higher", action="store_true",
                    default=True)
    ap.add_argument("--lower-is-better", dest="higher", action="store_false")
    args = ap.parse_args()
    scalars = args.scalar or ["events_per_sec"]

    base_version, base = load_runs(args.baseline)
    cur_version, cur = load_runs(args.current)
    if base_version != cur_version:
        print(f"  note: schema_version {base_version} -> {cur_version} "
              f"(fields added by the newer schema are compared only when "
              f"both sides have them)")

    compared = 0
    regressions = []
    for label in sorted(cur):
        if label not in base:
            print(f"  note: run '{label}' added since baseline")
    for label, base_scalars in sorted(base.items()):
        if label not in cur:
            print(f"  note: run '{label}' missing from current report")
            continue
        # Scalars present on only one side of a matched run are fine --
        # report them so schema drift is visible, then move on.
        added = sorted(set(cur[label]) - set(base_scalars))
        removed = sorted(set(base_scalars) - set(cur[label]))
        if added:
            print(f"  note: '{label}' scalars added: {', '.join(added)}")
        if removed:
            print(f"  note: '{label}' scalars removed: {', '.join(removed)}")
        for name in scalars:
            if name not in base_scalars or name not in cur[label]:
                continue
            b, c = float(base_scalars[name]), float(cur[label][name])
            compared += 1
            if b == 0:
                continue
            # Regression = goodness moved the wrong way by > threshold.
            change = (c - b) / abs(b) * 100.0
            regressed = (change < -args.threshold) if args.higher \
                else (change > args.threshold)
            marker = "REGRESSION" if regressed else "ok"
            print(f"  {label}/{name}: {b:.6g} -> {c:.6g} "
                  f"({change:+.1f}%) {marker}")
            if regressed:
                regressions.append((label, name, change))

    if compared == 0:
        print("compare_reports: nothing comparable (no shared runs or "
              "scalars); not a failure")
        return 0
    if regressions:
        print(f"compare_reports: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%")
        return 1
    print(f"compare_reports: {compared} scalar(s) within "
          f"{args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
