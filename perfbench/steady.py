#!/usr/bin/env python3
"""Steadiness of the benchmark: repeat a workload in fresh processes and
check the spread of every end-to-end metric against BENCHMARK.json.

    python3 perfbench/steady.py run --workload W [--runs 10] [--first-seed 1] [--out set.json]
    python3 perfbench/steady.py compare A.json B.json

`run` makes N runs of the benchmark command in BENCHMARK.json, each of
run_seconds, one per seed first-seed, first-seed+1, ..., prints each
metric's median, quartiles and spread
(interquartile distance over the median, from statistics.quantiles with
n=4), and saves the runs to --out. It exits non-zero if a run fails, is
incorrect, or an end-to-end metric other than setup_s spreads wider than
its bound.

`compare` reads two saved sets of the same workload and exits non-zero
unless, for every end-to-end metric, each set's spread (setup_s excepted)
is within the bound, B's median is not worse than A's by more than the
bound, and the share of failed operations is the same. This is how the
bounds in BENCHMARK.json were set and how they are shown to hold.

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarise(runs, metrics):
    """Print each metric's summary; return {name: (median, spread)}."""
    out = {}
    print(f"{'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        out[m["name"]] = (med, s)
        print(f"{m['name']:32s} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f} {m['bound']:>6}")
    return out


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted


def cmd_run(args):
    spec = load_spec()
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"run with seed {seed} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + json.dumps(result), file=sys.stderr)
        if not result["correct"]:
            print(f"run with seed {seed} is incorrect", file=sys.stderr)
            return 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    metrics = spec["end_to_end"]
    print(f"{args.workload}: {len(runs)} runs, failed share {failed_share(runs)}")
    summary = summarise(runs, metrics)
    worst = [
        m["name"] for m in metrics
        if m["name"] != "setup_s" and summary[m["name"]][1] > m["bound"]
    ]
    if worst:
        print(f"spread beyond bound: {', '.join(worst)}")
        return 1
    return 0


def cmd_compare(args):
    spec = load_spec()
    sets = []
    for path in (args.a, args.b):
        with open(path) as f:
            sets.append(json.load(f))
    if sets[0]["workload"] != sets[1]["workload"]:
        print("the two sets are of different workloads", file=sys.stderr)
        return 2
    ok = True
    summaries = []
    for path, s in zip((args.a, args.b), sets):
        print(f"== {path}")
        summaries.append(summarise(s["runs"], spec["end_to_end"]))
    print("== comparison (B against A)")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        (med_a, spread_a), (med_b, spread_b) = summaries[0][name], summaries[1][name]
        worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
        verdict = "ok"
        if name != "setup_s" and max(spread_a, spread_b) > bound:
            verdict = "SPREAD"
        if worse > bound:
            verdict = "WORSE"
        ok &= verdict == "ok"
        print(f"{name:16s} worse by {worse:+.4f} (bound {bound}), spreads {spread_a:.4f} / {spread_b:.4f}: {verdict}")
    shares = [failed_share(s["runs"]) for s in sets]
    if shares[0] != shares[1]:
        print(f"failed shares differ: {shares[0]} vs {shares[1]}")
        ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="repeat one workload in fresh processes")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out")
    c = sub.add_parser("compare", help="compare two saved sets against the bounds")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
