"""Per-kernel microbenchmark: NumPy reference vs. compiled backend.

Times each seam kernel (:mod:`repro.kernels`) on every backend that loads
in this environment, side by side, at array sizes where the fused C
passes should dominate:

* ``hash_affine`` — the fused pairwise Carter--Wegman chain
  (``affine_mod_range``) with the 2^61 - 1 Mersenne field.
* ``hash_kwise`` — the fused k-wise Horner chain (``kwise_mod_range``)
  over 2^61 - 1 at k = 12.
* ``hash_kwise_m31`` — the same chain as the KNW hash bundle's ``h3``
  draws it at eps = 0.05: 10-wise over 2^31 - 1, keys below 2^30 and
  range 1024 (the compiled backend's lane-blocked Horner).
* ``residue_scatter`` — ``grouped_residue_sums``, the turnstile
  scatter-accumulate core.
* ``grouped_max`` / ``grouped_or`` — the sketch-store register scatters.
* ``mulmod_arrays`` — the element-by-element field multiply.
* ``lsb`` — the batched least-significant-bit extraction.

Acceptance gate (asserted at full scale when the compiled backend is
available): the compiled backend must beat the NumPy reference by >= 5x
on at least two kernels.  When the machine cannot build the compiled
backend the gate is *skipped loudly* — the forced-backend CI matrix is
then the proof that the NumPy fallback path still works.

Environment knobs:

* ``BENCH_KERNEL_ITEMS`` — elements per kernel call (default 1_000_000).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import emit, metric, record, run_once

from repro.exceptions import KernelBackendError
from repro.kernels import available_backends, load_backend

#: Full-scale default; override via the environment for smoke runs.
ELEMENTS = int(os.environ.get("BENCH_KERNEL_ITEMS", 1_000_000))

#: Element count below which the speedup gate is skipped (smoke runs).
GATE_SCALE = 1_000_000

#: The compiled backend must beat NumPy by this factor on this many kernels.
GATE_SPEEDUP = 5.0
GATE_KERNELS = 2

MERSENNE61 = (1 << 61) - 1
MERSENNE31 = (1 << 31) - 1

#: Coefficients of the 2^61 - 1 Horner row.
KWISE_K = 12

#: The bundle h3 of a KNW sketch at eps = 0.05 (K = 512): Lemma 2's
#: independence over the domain (2K)^3 = 2^30, into 2K = 1024 bins.
BUNDLE_H3_K = 10
BUNDLE_H3_DOMAIN = 1 << 30
BUNDLE_H3_RANGE = 1 << 10


def _backends():
    loaded = {}
    for name in available_backends():
        try:
            loaded[name] = load_backend(name)
        except KernelBackendError as exc:
            loaded[name] = None
            emit(
                "bench_kernels backend %r" % name,
                "UNAVAILABLE in this environment: %s" % exc,
            )
    return loaded


def _inputs():
    rng = np.random.default_rng(0xBE7C)
    keys = rng.integers(0, 1 << 32, size=ELEMENTS, dtype=np.uint64)
    field = rng.integers(0, MERSENNE61, size=ELEMENTS, dtype=np.uint64)
    groups = rng.integers(0, 1 << 16, size=ELEMENTS).astype(np.int64)
    values = rng.integers(0, 64, size=ELEMENTS).astype(np.int64)
    masks = (1 << (values % 8)).astype(np.uint8)
    coefficients = [int(c) for c in rng.integers(1, MERSENNE61, size=KWISE_K)]
    a, b = coefficients[0], coefficients[1]
    bundle_keys = rng.integers(0, BUNDLE_H3_DOMAIN, size=ELEMENTS, dtype=np.uint64)
    bundle_h3 = [int(c) for c in rng.integers(1, MERSENNE31, size=BUNDLE_H3_K)]
    kernels = {
        "hash_affine": lambda backend: backend.affine_mod_range(
            a, b, keys, MERSENNE61, 1 << 32, 1 << 16
        ),
        "hash_kwise": lambda backend: backend.kwise_mod_range(
            coefficients, keys, MERSENNE61, 1 << 32, 1 << 16
        ),
        "hash_kwise_m31": lambda backend: backend.kwise_mod_range(
            bundle_h3, bundle_keys, MERSENNE31, BUNDLE_H3_DOMAIN, BUNDLE_H3_RANGE
        ),
        "residue_scatter": lambda backend: backend.grouped_residue_sums(
            groups, 1 << 16, field, MERSENNE61
        ),
        "grouped_max": lambda backend: backend.grouped_max_scatter(
            np.zeros(1 << 16, dtype=np.uint8), groups, values
        ),
        "grouped_or": lambda backend: backend.grouped_or_scatter(
            np.zeros(1 << 16, dtype=np.uint8), groups, masks
        ),
        "mulmod_arrays": lambda backend: backend.mulmod_arrays(
            field, keys, MERSENNE61, 1 << 32
        ),
        "lsb": lambda backend: backend.lsb64_batch(keys, 64),
    }
    return kernels


def _rate(fn, backend) -> float:
    """Elements/second for one kernel on one backend (best of 3 passes)."""
    fn(backend)  # warm up (first-touch allocations, lazy imports)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(backend)
        best = min(best, time.perf_counter() - start)
    return ELEMENTS / best


def test_kernel_backend_comparison(benchmark):
    """E-kernels: per-kernel elements/sec per backend plus the 5x gate."""
    backends = _backends()
    kernels = _inputs()

    def experiment():
        rows = {}
        for kernel_name, fn in kernels.items():
            rows[kernel_name] = {
                backend_name: (_rate(fn, backend) if backend else None)
                for backend_name, backend in backends.items()
            }
        return rows

    rows = run_once(benchmark, experiment)
    names = sorted(backends)
    header = "%-16s" % "kernel" + "".join("%16s" % n for n in names)
    if "compiled" in names and "numpy" in names:
        header += "%10s" % "speedup"
    lines = [header + "   (elements/s, %d elements)" % ELEMENTS]
    speedups = {}
    for kernel_name, per_backend in rows.items():
        line = "%-16s" % kernel_name
        for name in names:
            rate = per_backend[name]
            line += "%16s" % ("-" if rate is None else "%.3g" % rate)
        if per_backend.get("compiled") and per_backend.get("numpy"):
            speedups[kernel_name] = per_backend["compiled"] / per_backend["numpy"]
            line += "%9.1fx" % speedups[kernel_name]
        lines.append(line)
    emit("E-kernels -- kernel backend comparison", "\n".join(lines))

    metrics = {}
    for kernel_name, per_backend in rows.items():
        for name in names:
            if per_backend[name] is not None:
                metrics["%s_%s_elements_per_s" % (kernel_name, name)] = metric(
                    per_backend[name], "higher", "rate", "elements/s"
                )
        if kernel_name in speedups:
            metrics["%s_compiled_speedup" % kernel_name] = metric(
                speedups[kernel_name], "higher", "ratio"
            )
    record(
        "kernels",
        metrics,
        scale={
            "elements": ELEMENTS,
            "compiled_available": int(backends.get("compiled") is not None),
        },
    )

    if ELEMENTS < GATE_SCALE:
        emit(
            "E-kernels gate",
            "skipped: smoke-scale arrays (%d elements < %d)"
            % (ELEMENTS, GATE_SCALE),
        )
        return
    if backends.get("compiled") is None:
        emit(
            "E-kernels gate",
            "SKIPPED: compiled backend unavailable on this machine — the "
            "NumPy fallback is covered by the forced-backend CI matrix",
        )
        return
    fast = sorted(
        (s for s in speedups.values() if s >= GATE_SPEEDUP), reverse=True
    )
    assert len(fast) >= GATE_KERNELS, (
        "compiled backend beat numpy %.0fx on only %d kernel(s) "
        "(need >= %dx on >= %d): %s"
        % (
            GATE_SPEEDUP,
            len(fast),
            GATE_SPEEDUP,
            GATE_KERNELS,
            {k: round(v, 2) for k, v in sorted(speedups.items())},
        )
    )


def test_backends_agree_on_the_benchmark_inputs():
    """The comparison is only meaningful if outputs coincide bit-for-bit."""
    backends = {n: b for n, b in _backends().items() if b is not None}
    if len(backends) < 2:
        pytest.skip("only one backend available")
    kernels = _inputs()
    reference = backends.pop("numpy")
    for kernel_name, fn in kernels.items():
        if kernel_name in ("grouped_max", "grouped_or"):
            continue  # in-place mutators, checked separately below
        expected = fn(reference)
        for name, backend in backends.items():
            got = fn(backend)
            if isinstance(expected, list):
                assert got == expected, (kernel_name, name)
            else:
                assert got.dtype == expected.dtype, (kernel_name, name)
                assert np.array_equal(got, expected), (kernel_name, name)
    rng = np.random.default_rng(7)
    groups = rng.integers(0, 256, size=10_000).astype(np.int64)
    values = rng.integers(0, 64, size=10_000).astype(np.int64)
    masks = (1 << (values % 8)).astype(np.uint8)
    ref_max = np.zeros(256, dtype=np.uint8)
    ref_or = np.zeros(256, dtype=np.uint8)
    reference.grouped_max_scatter(ref_max, groups, values)
    reference.grouped_or_scatter(ref_or, groups, masks)
    for name, backend in backends.items():
        mine_max = np.zeros(256, dtype=np.uint8)
        mine_or = np.zeros(256, dtype=np.uint8)
        backend.grouped_max_scatter(mine_max, groups, values)
        backend.grouped_or_scatter(mine_or, groups, masks)
        assert np.array_equal(mine_max, ref_max), name
        assert np.array_equal(mine_or, ref_or), name
