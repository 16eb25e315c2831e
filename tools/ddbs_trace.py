#!/usr/bin/env python3
"""Analyze ddbs observability output: run reports, Chrome span dumps,
or live-telemetry JSONL streams.

Usage:
  ddbs_trace.py FILE [--width N] [--tail N]

FILE is auto-detected:
  * a run report written by --report-out (JSON object with "runs"):
    prints per-site recovery-episode summaries (phase durations, type-1
    retries, missed-copy backlog drain) and an ASCII degradation timeline
    built from the report's time series (commits / aborts / sites up per
    bucket);
  * a Chrome trace_event span dump written by --spans-out (JSON object
    with "traceEvents"): prints per-kind span statistics (count, mean /
    max duration, total time) and the per-site event volume;
  * a telemetry stream written by --telemetry-out (JSONL, one interval
    snapshot per line): prints an ASCII commit-rate / backlog timeline
    with per-tick site modes, and any watchdog stall events. --tail N
    limits the timeline to the last N ticks (stalls always shown).

Stdlib only -- usable straight from CTest or CI.
"""

import argparse
import json
import sys


def fmt_us(us):
    """A duration in microseconds, humanized."""
    if us is None:
        return "n/a"
    us = float(us)
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


def fmt_at(us):
    """An absolute sim timestamp in microseconds, as seconds."""
    return "n/a" if us is None else f"{us / 1e6:.3f}s"


# ---- report mode ----------------------------------------------------------

def print_episode(ep):
    site = ep.get("site")
    tag = "complete" if ep.get("complete") else "INCOMPLETE"
    print(f"  site {site} [{tag}]")
    rows = [
        ("crashed", fmt_at(ep.get("crash_at")), ""),
        ("declared down", fmt_at(ep.get("declared_down_at")),
         f"after {ep.get('type2_rounds', 0)} type-2 round(s)"),
        ("type-2 committed", fmt_at(ep.get("type2_commit_at")),
         f"+{fmt_us(ep.get('declared_to_type2_us'))} after declaration"),
        ("rebooted", fmt_at(ep.get("reboot_at")), ""),
        ("nominally up", fmt_at(ep.get("nominally_up_at")),
         f"+{fmt_us(ep.get('reboot_to_nominally_up_us'))} after reboot, "
         f"{ep.get('type1_attempts', 0)} type-1 attempt(s), "
         f"session {ep.get('session', 0)}, "
         f"{ep.get('marked_unreadable', 0)} copies marked"),
        ("fully current", fmt_at(ep.get("fully_current_at")),
         f"+{fmt_us(ep.get('nominally_up_to_current_us'))} after nominally "
         f"up, {ep.get('copier_commits', 0)} copier commit(s)"),
    ]
    for name, at, extra in rows:
        line = f"    {name:<17} {at:>9}"
        if extra and at != "n/a":
            line += f"   {extra}"
        print(line)
    backlog = ep.get("backlog", [])
    if backlog:
        peak = max(p["remaining"] for p in backlog)
        last = backlog[-1]
        print(f"    backlog           peak {peak} missed copies, "
              f"{last['remaining']} left at {fmt_at(last['at'])}")


def print_timeline(series, width):
    bucket_us = series.get("bucket_us", 0)
    commits = series.get("commits", [])
    aborts = series.get("aborts", [])
    rejects = series.get("session_rejects", [])
    sites_up = series.get("sites_up", [])
    n = max(len(commits), len(aborts), len(rejects), len(sites_up))
    if n == 0 or bucket_us <= 0:
        print("  (no time series recorded)")
        return

    def get(arr, i):
        return arr[i] if i < len(arr) else 0

    peak = max(max(commits, default=0), 1)
    full = max(sites_up, default=0)
    print(f"  {'t':>7} {'commits':>8} {'aborts':>7} {'rejects':>8} "
          f"{'up':>3}  throughput ('.' = degraded bucket)")
    for i in range(n):
        c, a, r = get(commits, i), get(aborts, i), get(rejects, i)
        up = get(sites_up, i)
        bar = "#" * int(round(c / peak * width))
        degraded = up < full or (a > 0 and a >= c)
        mark = " ." if degraded and not bar else ""
        print(f"  {i * bucket_us / 1e6:6.2f}s {c:8d} {a:7d} {r:8d} "
              f"{up:3d}  {bar}{mark}")


def report_mode(doc, width):
    runs = doc.get("runs", [])
    print(f"report: {doc.get('bench', '?')} (schema "
          f"{doc.get('schema_version', '?')}, {len(runs)} run(s))")
    for run in runs:
        print(f"\nrun '{run.get('label', '?')}'")
        trace = run.get("trace", {})
        if trace:
            # Schema 5 has one ring and one "dropped"; older reports
            # also count the span ring's overwrites separately.
            dropped = trace.get('dropped', 0) + trace.get('spans_dropped', 0)
            print(f"  trace: {trace.get('recorded', 0)} events, "
                  f"{trace.get('spans_recorded', 0)} span events "
                  f"({dropped} dropped)")
        episodes = run.get("episodes", [])
        if episodes:
            print(f"  recovery episodes: {len(episodes)}")
            for ep in episodes:
                print_episode(ep)
        else:
            print("  recovery episodes: none")
        series = run.get("time_series", {})
        if series:
            print("  availability timeline:")
            print_timeline(series, width)
    return 0


# ---- telemetry mode -------------------------------------------------------

def mode_glyph(mode):
    return {"up": "U", "recovering": "R", "down": "_"}.get(mode, "?")


def telemetry_mode(lines, width, tail):
    ticks = [o for o in lines if "stall" not in o]
    stalls = [o["stall"] for o in lines if "stall" in o]
    interval = ticks[1]["t"] - ticks[0]["t"] if len(ticks) >= 2 else 0
    span = f", {fmt_at(ticks[0]['t'])}..{fmt_at(ticks[-1]['t'])}" \
        if ticks else ""
    print(f"telemetry: {len(ticks)} tick(s) every {fmt_us(interval)}"
          f"{span}, {len(stalls)} stall event(s)")
    shown = ticks[-tail:] if tail and tail > 0 else ticks
    if len(shown) < len(ticks):
        print(f"  (showing last {len(shown)} of {len(ticks)} ticks)")
    if shown:
        peak = max((t.get("commit_rate", 0) for t in shown), default=0) or 1
        stall_ts = {s.get("at") for s in stalls}
        print(f"  {'t':>8} {'commit/s':>9} {'abort/s':>8} {'queue':>6} "
              f"{'backlog':>7} sites  commit rate")
        for t in shown:
            sites = t.get("sites", [])
            modes = "".join(mode_glyph(s.get("mode", "?")) for s in sites)
            backlog = sum(s.get("backlog", 0) for s in sites)
            rate = t.get("commit_rate", 0)
            bar = "#" * int(round(rate / peak * width))
            mark = "  << STALL" if t.get("t") in stall_ts else ""
            print(f"  {t['t'] / 1e6:7.2f}s {rate:9d} "
                  f"{t.get('abort_rate', 0):8d} "
                  f"{t.get('queue_depth', 0):6d} {backlog:7d} "
                  f"{modes:<5}  {bar}{mark}")
        print("  sites: U=up R=recovering _=down")
    for s in stalls:
        print(f"  STALL at {fmt_at(s.get('at'))}: {s.get('reason', '?')} "
              f"(site {s.get('site')}, value {s.get('value')})")
    return 0


# ---- spans mode -----------------------------------------------------------

def spans_mode(doc, width):
    events = doc.get("traceEvents", [])
    spans = {}   # name -> [count, total_dur, max_dur]
    instants = {}
    sites = {}
    for e in events:
        pid = e.get("pid", 0)
        sites[pid] = sites.get(pid, 0) + 1
        name = e.get("name", "?")
        if e.get("ph") == "X":
            st = spans.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            dur = float(e.get("dur", 0))
            st[1] += dur
            st[2] = max(st[2], dur)
        else:
            instants[name] = instants.get(name, 0) + 1

    print(f"spans: {len(events)} trace events, "
          f"{sum(c for c, _, _ in spans.values())} spans across "
          f"{len(sites)} site lanes")
    if spans:
        print(f"\n  {'span kind':<18} {'count':>7} {'mean':>9} {'max':>9} "
              f"{'total':>10}  share of span time")
        grand = sum(t for _, t, _ in spans.values()) or 1.0
        by_total = sorted(spans.items(), key=lambda kv: -kv[1][1])
        for name, (count, total, peak) in by_total:
            bar = "#" * int(round(total / grand * width))
            print(f"  {name:<18} {count:>7} {fmt_us(total / count):>9} "
                  f"{fmt_us(peak):>9} {fmt_us(total):>10}  {bar}")
    if instants:
        print(f"\n  {'instant kind':<18} {'count':>7}")
        for name, count in sorted(instants.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<18} {count:>7}")
    print(f"\n  {'site lane':<18} {'events':>7}")
    for pid in sorted(sites):
        print(f"  site {pid:<13} {sites[pid]:>7}")
    return 0


def main():
    ap = argparse.ArgumentParser(add_help=True)
    ap.add_argument("file")
    ap.add_argument("--width", type=int, default=40,
                    help="max bar width for ASCII charts (default 40)")
    ap.add_argument("--tail", type=int, default=0,
                    help="telemetry mode: show only the last N ticks "
                         "(default 0 = all)")
    args = ap.parse_args()

    try:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        sys.exit(f"ddbs_trace: cannot read {args.file}: {e}")

    try:
        doc = json.loads(text)
    except ValueError:
        # Not a single JSON document: try telemetry JSONL, one object
        # per line as written by --telemetry-out.
        try:
            lines = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
        except ValueError as e:
            sys.exit(f"ddbs_trace: cannot parse {args.file}: {e}")
        if lines and all(isinstance(o, dict) and "t" in o for o in lines):
            return telemetry_mode(lines, args.width, args.tail)
        sys.exit(f"ddbs_trace: {args.file} is not a telemetry JSONL stream")

    if isinstance(doc, dict) and "runs" in doc:
        return report_mode(doc, args.width)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return spans_mode(doc, args.width)
    if isinstance(doc, dict) and "t" in doc:
        # A single-line telemetry stream parses as one JSON object.
        return telemetry_mode([doc], args.width, args.tail)
    sys.exit(f"ddbs_trace: {args.file} is neither a run report "
             f"(\"runs\"), a Chrome trace (\"traceEvents\"), nor a "
             f"telemetry stream")


if __name__ == "__main__":
    sys.exit(main())
