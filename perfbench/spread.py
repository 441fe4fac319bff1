#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10
    python3 perfbench/spread.py --workload fig7_full --seeds 1-10 --save a.json
    python3 perfbench/spread.py --compare a.json b.json

For every metric it prints the median, the quartiles and the spread:
the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median. A bound
from BENCHMARK.json holds when the spread stays within it; the
benchmark aims for a third of it. setup_s is exempt from the spread
rule. --compare checks that the second set's median is not worse
than the first's by more than each metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values):
    """(q3 - q1) / median of @values; 0 when the median is 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    m1, m2 = statistics.median(first), statistics.median(second)
    if not m1:
        return 0.0
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def collect(workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        if r.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: run failed (exit {r.returncode})")
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        runs.append(res)
    return runs


def report(workload, runs, defs):
    names = list(runs[0]["metrics"])
    ok = True
    print(f"{workload}: {len(runs)} runs")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        sp = quartile_spread(vals)
        bound = defs.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if sp <= bound / 3 else (
                "within" if sp <= bound else "TOO WIDE")
            ok &= sp <= bound
        print(f"{name:36} {statistics.median(vals):14.6g} {q1:14.6g} "
              f"{q3:14.6g} {sp:8.4f} {bound if bound is not None else '':>6} "
              f"{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"failed operations: {failed} of "
          f"{sum(r['attempted'] for r in runs)}; "
          f"all correct: {all(r['correct'] for r in runs)}")
    return ok and failed == 0


def compare(path_a, path_b, defs):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for name, d in defs.items():
        va = [r["metrics"][name]["value"] for r in a["runs"]]
        vb = [r["metrics"][name]["value"] for r in b["runs"]]
        w = worse_by(va, vb, d["better"])
        good = w <= d["bound"]
        ok &= good
        print(f"{a['workload']:12} {name:20} worse by {w:+.4f} "
              f"(bound {d['bound']}) {'ok' if good else 'REGRESSED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    bench, defs = bounds()
    if args.compare:
        sys.exit(0 if compare(*args.compare, defs) else 1)
    if not args.workload:
        ap.error("--workload is required")
    runs = collect(args.workload, parse_seeds(args.seeds),
                   args.seconds or bench["run_seconds"], args.trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f)
    sys.exit(0 if report(args.workload, runs, defs) else 1)


if __name__ == "__main__":
    main()
