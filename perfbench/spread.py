#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workload W ...] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

For every workload (default: all in BENCHMARK.json) it makes `--runs`
runs, each with the next seed, and prints per metric the median, the
quartiles as `statistics.quantiles(values, n=4)` gives them, and the
interquartile distance as a share of the median. With BENCHMARK.json
bounds present, each end-to-end spread, `setup_s` included, gets a
verdict: `ok` below a third of its bound, `WIDE` up to the bound, `OVER
BOUND` past it. Exits non-zero if any run fails or reports
`correct: false`, or if any verdict is not `ok`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [
        "python3",
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="also print every value")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {args.first_seed + i}: incorrect: {res}", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.runs} runs)")
        for name, v in values.items():
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            note = ""
            if name in bounds and not args.trace:
                b = bounds[name]
                verdict = "ok" if spread < b / 3 else "WIDE" if spread <= b else "OVER BOUND"
                note = f" bound {bounds[name]} -> {verdict}"
                ok = ok and verdict == "ok"
            print(f"  {name:32s} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.4f}{note}")
            if args.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
