#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny size so they run in about a minute.

Run from the root of a checkout:

    python3 perfbench/selftest.py

- every metric named in BENCHMARK.json is printed, with its unit, on every
  workload, in both the "name value unit" lines and the JSON result;
- every per-layer metric has a target in perfbench/layer_targets.json;
- the same seed gives identical fault specs and identical per-layer counts;
- the dataflow workload proves it ran under the task runtime;
- a corrupted factor trips the correctness gate (nonzero exit, correct=false);
- without the library's sources next to it, run.py fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--n", "256", "--nb", "32", "--seconds", "1"]
WORKLOADS = ["forkjoin-1gpu", "dataflow-2gpu", "faults-2gpu"]
# Per-layer units whose values are counts of work, not timings.
COUNT_UNITS = {"count", "B"}


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + TINY + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, lines, result


def printed(lines):
    """name -> unit of every "name value unit" line."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            out[parts[0]] = parts[2]
    return out


class Smoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = bench_spec()
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p, lines, result = run(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    shown = printed(lines)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, unit in expected.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit, name)
                        self.assertEqual(shown.get(name), unit, name)

    def test_every_layer_metric_has_a_target(self):
        spec = bench_spec()
        with open(os.path.join(HERE, "layer_targets.json")) as f:
            targets = json.load(f)["targets"]
        e2e = {m["name"] for m in spec["end_to_end"]}
        workloads = {w["name"] for w in spec["workloads"]}
        self.assertEqual(set(targets), {m["name"] for m in spec["per_layer"]})
        for name, t in targets.items():
            self.assertTrue(set(t["moves"]) <= e2e, name)
            self.assertTrue(set(t["workloads"]) <= workloads, name)


class Determinism(unittest.TestCase):
    def counts(self, result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}

    def test_same_seed_same_fault_specs_and_counts(self):
        first = run("faults-2gpu", 1, seed=11)
        second = run("faults-2gpu", 1, seed=11)
        other = run("faults-2gpu", 1, seed=12)
        specs = [[l for l in r[1] if l.startswith("fault_specs")] for r in (first, second, other)]
        self.assertEqual(len(specs[0]), 3)
        self.assertEqual(specs[0], specs[1])
        self.assertNotEqual(specs[0], specs[2])
        self.assertEqual(self.counts(first[2]), self.counts(second[2]))
        self.assertGreater(first[2]["metrics"]["fault.triggered_share"]["value"], 0)

    def test_dataflow_runs_under_the_task_runtime(self):
        p, lines, result = run("dataflow-2gpu", 1)
        self.assertEqual(p.returncode, 0, p.stdout)
        self.assertIn("scheduler_ran cholesky=dataflow,lu=dataflow,qr=dataflow", lines)
        for d in ("cholesky", "lu", "qr"):
            self.assertGreater(result["metrics"]["runtime.%s.dep_release_edges" % d]["value"], 0)
        again = run("dataflow-2gpu", 1)[2]
        self.assertEqual(self.counts(result), self.counts(again))


class Gate(unittest.TestCase):
    def test_corrupted_factor_trips_the_gate(self):
        p, lines, result = run("forkjoin-1gpu", 0, extra=["--corrupt-factor"])
        self.assertEqual(p.returncode, 1, p.stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any(l.startswith("FAILED FT") for l in lines))

    def test_missing_sources_fail_without_a_result(self):
        build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        bare = os.path.join(build_dir, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "forkjoin-1gpu",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
