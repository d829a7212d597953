#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The benchmark package (perfbench/) is
built with cargo against the repository's crates, into $CARGO_TARGET_DIR
(default .bench_build). The binary's stdout is relayed: a detail line, then
the result line, which must name exactly the metrics BENCHMARK.json lists
for the mode (end_to_end with --trace 0, per_layer with --trace 1). Spans of
traced runs go to .bench_out/. Exits non-zero, without a result line, when
the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    trace = args[args.index("--trace") + 1]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "alp-perfbench")
    run = subprocess.run([exe, *args], cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.decode().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
