"""Repeat the benchmark and report how steady each metric is.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --runs 10 [--workloads f0-bulk,l0-durable]
        [--seed 1] [--out runs.json] [--baseline earlier.json]

Runs every workload ``--runs`` times, alternating the workload order on
every pass, with a new seed per pass (``--seed``, ``--seed + 1``, ...).
For each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``; an end-to-end metric whose spread exceeds its bound
in ``BENCHMARK.json`` is flagged ``SPREAD``, and one whose spread exceeds a
third of it ``close``.  With ``--baseline`` (an earlier ``--out`` file),
a median worse than the baseline's by more than the bound is flagged
``WORSE``.  Runs on different kernel backends are never pooled: the command
stops if the backends differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROW = "%-36s %14s %14s %14s %8s %6s  %s"


def _run(spec, workload, seed):
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    command += [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            "%s seed %d exited %d:\n%s" % (workload, seed, done.returncode, done.stderr[-2000:])
        )
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "backend": detail["backend"]["name"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}

    runs = {workload: [] for workload in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            runs[workload].append(_run(spec, workload, args.seed + index))
            print("run %d/%d %s done" % (index + 1, args.runs, workload), file=sys.stderr)
    backends = {run["backend"] for results in runs.values() for run in results}
    if len(backends) > 1:
        raise SystemExit("runs used different kernel backends: %s" % sorted(backends))
    backend = backends.pop()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    baseline = {}
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    flagged = 0
    for workload in workloads:
        print("== %s (%d runs, %s kernel backend)" % (workload, len(runs[workload]), backend))
        print(ROW % ("metric", "median", "q1", "q3", "spread", "bound", "flags"))
        for metric in runs[workload][0]["metrics"]:
            values = [run["metrics"][metric] for run in runs[workload]]
            median, q1, q3, spread = _summary(values)
            flags = []
            bound = bounds.get(metric)
            if bound:
                if spread > bound["bound"]:
                    flags.append("SPREAD")
                elif spread > bound["bound"] / 3:
                    flags.append("close")
                before = [run for run in baseline.get(workload, ()) if metric in run["metrics"]]
                if before:
                    old = statistics.median(run["metrics"][metric] for run in before)
                    change = (median - old) / old
                    worse = -change if bound["better"] == "higher" else change
                    flags.append("%+.1f%%" % (100 * change))
                    if worse > bound["bound"]:
                        flags.append("WORSE")
            flagged += any(flag in ("SPREAD", "WORSE") for flag in flags)
            limit = bound["bound"] if bound else "-"
            print(ROW % (metric, "%.6g" % median, "%.6g" % q1, "%.6g" % q3, "%.4f" % spread,
                         limit, " ".join(flags)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
