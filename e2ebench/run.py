#!/usr/bin/env python3
"""End-to-end benchmark of the LPS pipeline: load -> evaluate ->
maintain -> freeze -> serve, measured end to end and layer by layer.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0

Workloads: bulk_fixpoint, serve_point, churn_publish (see BENCHMARK.json
for why each exists). Each run first builds the benchmark binary and the
library from source (Release) into $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench, then runs it. The binary prints a readable block
(host context, every metric by name and unit, diagnostics, referee
results) and, as its last line, one JSON object: the end-to-end metrics
of an untraced run, or the per-layer metrics of a traced one
(--trace 1, which also writes the spans to <build dir>/traces/).

This script checks that the result line names exactly the metrics and
units BENCHMARK.json lists for the mode, and exits non-zero - printing
no result - on a build failure, a referee mismatch or a malformed
result. --smoke runs tiny inputs; test_e2ebench.py uses it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench")


def build():
    """Configures and builds the benchmark binary; returns its path or
    None."""
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "e2ebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "e2ebench")


def check_result(line, expected):
    """Returns an error message, or None when `line` is a well-formed
    result naming exactly the `expected` {name: unit} metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not %s" % sorted(RESULT_KEYS)
    if result["correct"] is not True:
        return "result is not correct"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "wrong units %s" % (missing, extra, units)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("e2ebench: unknown workload " + args.workload, file=sys.stderr)
        return 2
    section = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    error = check_result(lines[-1], expected)
    if error is not None:
        print("\n".join(lines[:-1]))
        print("e2ebench: " + error, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
