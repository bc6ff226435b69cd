#!/usr/bin/env python3
"""Steadiness check for the kbench benchmark.

Runs every workload N times with a different seed each time, alternating
the workload order between passes, and prints for each end-to-end metric
the median, the quartiles and the quartile spread as a share of the
median, next to the bound in BENCHMARK.json. Run from the repository root:

    python3 kbench/steady.py --runs 10 --seed-base 100 --out kbench/out/steady.json

A spread above a third of its bound is flagged `WIDE`, above the bound
`OVER` (setup_s is exempt from the spread rule; its bound applies to the
median between two sets of runs). With --compare A.json B.json it instead
compares the medians of two recorded sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    return result, wall, p.stdout


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def report(spec, record):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w, runs in record.items():
        print(f"\n== {w}: {len(runs)} runs")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"   correct={correct} failed-share={sorted(shares)} wall s: "
              f"min {min(walls):.1f} max {max(walls):.1f}")
        ok &= correct and len(shares) == 1
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, q1, q3, sp = spread(vals)
            flag = "ok"
            if name != "setup_s":
                if sp > bound:
                    flag, ok = "OVER", False
                elif sp > bound / 3:
                    flag = "WIDE"
            if len(set(vals)) == 1:
                flag, ok = "CONSTANT", False
            print(f"   {name:<20} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:6.3f} bound {bound:.3f} {unit:<6} {flag}")
    return ok


def compare(spec, a, b):
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    ok = True
    for w in a:
        print(f"\n== {w}")
        for name, (dirn, bound) in better.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            worse = (mb - ma) / ma if dirn == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE"
            ok &= flag == "ok"
            print(f"   {name:<20} {ma:<14.6g} -> {mb:<14.6g} worse by {worse:+.3f} (bound {bound}) {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            sys.exit(0 if compare(spec, json.load(fa), json.load(fb)) else 1)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = spec["run_seconds"]
    record = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = args.seed_base + i
            res, wall, _ = run_once(spec, w, seed, seconds, 0)
            res["seed"], res["wall_s"] = seed, wall
            record[w].append(res)
            print(f"run {i} {w} seed {seed}: {wall:.1f} s, attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if report(spec, record) else 1)


if __name__ == "__main__":
    main()
