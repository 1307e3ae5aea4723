"""Smoke tests for the benchmark itself, at tiny scale.

Run from the root of a checkout with ``python3 perfbench/smoke.py`` (or
``python3 -m pytest perfbench/smoke.py``).  Each workload runs once untraced
and once traced at ``--scale 0.02``; every metric ``BENCHMARK.json`` names
must be printed with its unit and every output check must pass.  The last
test copies only ``BENCHMARK.json`` and the benchmark's files into an empty
directory, where the command must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _command(spec):
    return [sys.executable if part == "python3" else part for part in spec["command"]]


def _run(spec, cwd, workload, trace, seconds="0.5", scale="0.02"):
    command = _command(spec) + [
        "--workload", workload, "--seed", "3", "--seconds", seconds,
        "--trace", str(trace), "--scale", scale,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


class SpecTest(unittest.TestCase):
    def test_shape(self):
        spec = _spec()
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for entry in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for entry in spec["end_to_end"]:
            self.assertEqual(set(entry), {"name", "unit", "better", "bound"})
            self.assertLessEqual(entry["bound"], 0.25)
        setup = [entry for entry in spec["end_to_end"] if entry["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(entry["bound"] for entry in spec["end_to_end"]))
        for entry in spec["per_layer"]:
            self.assertEqual(set(entry), {"name", "unit", "better"})


class WorkloadTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = _spec()
        done = _run(spec, ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = spec["per_layer" if trace else "end_to_end"]
        expected = {entry["name"]: entry["unit"] for entry in declared}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], expected[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)
            if not trace:
                self.assertGreater(entry["value"], 0, name)


def _add_workload_tests():
    for workload in [entry["name"] for entry in _spec()["workloads"]]:
        for trace in (0, 1):
            test = lambda self, w=workload, t=trace: self.check(w, t)  # noqa: E731
            setattr(WorkloadTest, "test_%s_trace%d" % (workload.replace("-", "_"), trace), test)


_add_workload_tests()


class EmptyCheckoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        spec = _spec()
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in spec["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path),
                    os.path.join(bare, path),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            done = _run(spec, bare, spec["workloads"][0]["name"], 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
