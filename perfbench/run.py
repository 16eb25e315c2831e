#!/usr/bin/env python3
"""Repo benchmark entry point: builds perfbench optimised, then runs it.

  python3 perfbench/run.py --workload oltp-64 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all [--seconds 30]     # every workload, both modes
  python3 perfbench/run.py --spread 10 --workload churn-64 [--trace 0]
  python3 perfbench/run.py --self-test

The single-workload form prints the driver's table and, as its last line,
the result object {"correct", "attempted", "failed", "metrics"}. --spread N
runs N seeds and prints, per metric, the median and the quartile spread
(Q3 - Q1) / median that the BENCHMARK.json bounds are checked against.
Build output goes to .bench_build/perfbench/build.log; per-run detail and
span files go to .bench_build/perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
WORKLOADS = ["oltp-64", "churn-64", "scale-256-par"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; False when the sources do not build."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "w") as out:
        def step(cmd):
            return subprocess.run(cmd, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT).returncode == 0

        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        configured = any((BUILD / f).exists()
                         for f in ("build.ninja", "Makefile"))
        if not configured and not step(configure):
            return False
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        return step(["cmake", "--build", str(BUILD), "-j", jobs])


def source_commit():
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10, env=env)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_driver(workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, result dict or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT), "--commit", source_commit()]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if echo:
        sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result


def spread(values):
    """(median, (Q3 - Q1) / median) as the acceptance check computes it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed, see " + str(BUILD / "build.log"))
        return 1

    if args.self_test:
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode

    if args.spread:
        if not args.workload:
            ap.error("--spread needs --workload")
        values, ok = {}, True
        for seed in range(1, args.spread + 1):
            rc, res = run_driver(args.workload, seed, args.seconds,
                                 args.trace, echo=False)
            if rc != 0 or not res or not res["correct"]:
                log(f"seed {seed}: run failed (rc={rc})")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"seed {seed}: done")
        print(f"{'metric':36s} {'median':>14s} {'IQR/median':>11s}  values")
        for name, vs in values.items():
            med, sp = spread(vs)
            print(f"{name:36s} {med:14.6g} {sp:11.4f}  "
                  + " ".join(f"{v:.5g}" for v in vs))
        return 0 if ok else 1

    if args.all:
        combined, ok = {}, True
        attempted = failed = 0
        for wl in WORKLOADS:
            for trace in (0, 1):
                log(f"== {wl} --trace {trace}")
                rc, res = run_driver(wl, args.seed, args.seconds, trace)
                if rc != 0 or not res or not res["correct"]:
                    ok = False
                if res:
                    attempted += res["attempted"]
                    failed += res["failed"]
                    for name, m in res["metrics"].items():
                        combined[f"{wl}.{name}"] = m
        print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": combined}))
        return 0 if ok else 1

    if not args.workload:
        ap.error("--workload is required (or --all, --spread, --self-test)")
    rc, res = run_driver(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        log("perfbench: driver printed no result")
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
