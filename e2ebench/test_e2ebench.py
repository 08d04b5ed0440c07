#!/usr/bin/env python3
"""The benchmark's own test. At smoke sizes it runs every workload
untraced and traced, and checks that each run passes its referees,
prints the host context, prints every metric by name with its unit, and
ends with a result line naming exactly BENCHMARK.json's metrics.

    python3 e2ebench/test_e2ebench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Each workload's own names for its figures, printed beside the generic
# end-to-end metrics they map onto.
DIAGNOSTICS = {
    "bulk_fixpoint": ["build_s", "build_p90_ms", "failed_frac"],
    "serve_point": ["serve_p50_ms", "serve_p90_ms", "serve_qps", "failed_frac"],
    "churn_publish": ["visible_p50_ms", "visible_p90_ms", "updates_per_s",
                      "churn_read_p50_ms", "churn_read_p90_ms", "failed_frac"],
}
REFEREES = {
    "bulk_fixpoint": 1,
    "serve_point": 1,
    "churn_publish": 2,
}
CONTEXT = ["workload", "seed", "nproc", "lanes", "compiler", "build", "input"]


def run(*args):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in section})
        text = "\n".join(lines[:-1])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            kind = "metric" if m in SPEC["end_to_end"] else "layer"
            self.assertRegex(text, r"(?m)^%s +%s +\S+ %s$" % (
                kind, re.escape(m["name"]), re.escape(m["unit"])))
        for name in DIAGNOSTICS[workload]:
            self.assertRegex(text, r"(?m)^diag +%s +\S+ \S+$" % re.escape(name))
        for key in CONTEXT:
            self.assertRegex(text, r"(?m)^context +%s +\S" % key)
        self.assertIn("optimized", text)
        self.assertEqual(len(re.findall(r"(?m)^referee .*: ok$", text)),
                         REFEREES[workload])
        return result

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_traced_run_records_spans(self):
        result = self.check_run("churn_publish", 1)
        for layer in ("incremental", "snapshot", "registry", "request"):
            self.assertGreater(
                result["metrics"]["trace.self_ms." + layer]["value"], 0)


if __name__ == "__main__":
    unittest.main()
