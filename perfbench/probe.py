"""Time one workload's set-up in a fresh interpreter (used by ``run.py``).

Usage: ``python3 perfbench/probe.py <workload> <seed> <scale> <work_dir> <cpu>``.
Prints the seconds from just before ``import repro`` until the first call
could start.  ``workloads`` imports NumPy before the clock starts, as the
benchmark's inputs already exist when the real run sets up.  The probe runs
on CPU ``<cpu> mod n`` of the CPUs it may use, so successive probes take
turns on them.
"""

import sys
import time

from workloads import WORKLOADS, pin


def main() -> None:
    name, seed, scale, work_dir, cpu = sys.argv[1:6]
    pin(int(cpu))
    workload = WORKLOADS[name](int(seed), float(scale))
    start = time.perf_counter()
    state = workload.setup(work_dir)
    elapsed = time.perf_counter() - start
    workload.teardown(state)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
