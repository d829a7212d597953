#!/usr/bin/env python3
"""Runs one workload once per seed and reports each metric's median,
quartiles and spread across the runs.

    python3 perfbench/spread.py --workload scan --seeds 1 2 3 4 5

Runs take BENCHMARK.json's run_seconds and report the end-to-end metrics.
The spread is (third quartile - first quartile) / median, with quartiles as
Python's statistics.quantiles(values, n=4) gives them; it is compared with a
third of the metric's bound, the steadiness target. Results are appended to
.bench_out/spread-<workload>.jsonl, so two sets can be compared with
--compare <file>: each median of this set against the median of that set,
within the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    result = json.loads(out.stdout.decode().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: run is not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--compare", help="a .jsonl written by an earlier set")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = [run_once(a.workload, s, seconds) for s in a.seeds]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", f"spread-{a.workload}.jsonl")
    with open(log, "a") as f:
        f.write(json.dumps({"seeds": a.seeds, "runs": runs}) + "\n")

    previous = None
    if a.compare:
        with open(a.compare) as f:
            previous = [json.loads(l) for l in f if l.strip()][-1]["runs"]

    print(f"{a.workload}: {len(runs)} runs, seeds {a.seeds}, {seconds} s each")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med, q1, q3, spread = summary(values)
        line = f"  {name:38s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
        if name in bounds:
            bound = bounds[name]["bound"]
            line += f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            if previous:
                before = statistics.median(r[name] for r in previous)
                worse = (before - med) / before if bounds[name]["better"] == "higher" else (med - before) / before
                line += f"  vs previous {worse:+.4f} {'ok' if worse <= bound else 'WORSE'}"
        print(line)


if __name__ == "__main__":
    main()
