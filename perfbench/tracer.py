"""Outside-in tracer: spans around calls into each layer's public functions.

The program has no instrumentation of its own, so the traced run wraps the
public functions below from the benchmark's side, before the workload builds
its objects.  A function is wrapped at every binding site: a class attribute
for methods, and for module functions every ``repro.*`` module global bound
to the same function object (``repro.core.knw`` imports ``as_key_array`` by
name, for example).  A point that no longer resolves is reported as
unmeasured; it never raises.

Spans keep a stack, so each span's *self* time excludes the wrapped calls it
made.  A group's *total* counts only its outermost spans, so
``count_at_least`` calling ``to_numpy`` is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

#: Seam kernels of ``repro.vectorize``, by group.
HASH_KERNELS = (
    "mulmod",
    "affine_mod",
    "mod_range",
    "affine_mod_range",
    "kwise_mod_range",
    "mulmod_arrays",
    "lsb64_batch",
)
SCATTER_KERNELS = ("grouped_max_scatter", "grouped_or_scatter", "grouped_residue_sums")

#: ``(module:attribute, span group)``; a group's layer is the part before the dot.
POINTS = (
    [
        ("repro.vectorize:as_key_array", "vectorize.validate"),
        ("repro.vectorize:as_delta_array", "vectorize.validate"),
    ]
    + [("repro.vectorize:%s" % name, "kernels.hash") for name in HASH_KERNELS]
    + [("repro.vectorize:%s" % name, "kernels.scatter") for name in SCATTER_KERNELS]
    + [
        ("repro.bitstructs.packed:PackedCounterArray.to_numpy", "bitstructs.read"),
        ("repro.bitstructs.packed:PackedCounterArray.count_at_least", "bitstructs.read"),
        ("repro.bitstructs.packed:PackedCounterArray.maximize_many", "bitstructs.scatter"),
        ("repro.core.rough_estimator:RoughEstimator.estimate", "core.rough_estimate"),
        ("repro.core.rough_estimator:RoughEstimator.update_batch", "core.rough_update"),
        ("repro.core.knw:KNWDistinctCounter.update_batch", "core.bookkeeping"),
        ("repro.core.knw:KNWFigure3Sketch.update_batch", "core.bookkeeping"),
        ("repro.core.small_f0:SmallF0Estimator.update_batch", "core.bookkeeping"),
        ("repro.core.hashes:F0HashBundle.level_batch", "core.bookkeeping"),
        ("repro.core.hashes:F0HashBundle.extended_bin_batch", "core.bookkeeping"),
        ("repro.core.hashes:F0HashBundle.main_bin_batch", "core.bookkeeping"),
        ("repro.core.knw:KNWDistinctCounter.estimate", "core.query"),
        ("repro.l0.knw_l0:KNWHammingNormEstimator.update_batch", "l0.estimator"),
        ("repro.l0.fingerprint:FingerprintMatrix.update_many", "l0.fingerprint"),
        ("repro.l0.rough_l0:RoughL0Estimator.update_batch", "l0.rough"),
        ("repro.l0.knw_l0:KNWHammingNormEstimator.estimate", "l0.query"),
        ("repro.serialize:dumps", "serialize.encode"),
        ("repro.serialize:dumps_tree", "serialize.encode"),
        ("repro.serialize:loads", "serialize.decode"),
        ("repro.serialize:loads_tree", "serialize.decode"),
        ("repro.durability.checkpoint:Checkpointer.ingest", "durability.commit"),
        ("repro.durability.log:DurableLog.append", "durability.append"),
        ("repro.durability.checkpoint:Checkpointer.snapshot", "durability.snapshot"),
        ("repro.parallel.plan:execute_plan", "parallel.coord"),
        ("repro.parallel.plan:as_completed", "parallel.wait"),
        ("repro.parallel.plan:get_pool", "parallel.pool"),
        ("repro.core.knw:KNWDistinctCounter.merge", "parallel.merge"),
    ]
    # A call into the NumPy reference while a seam kernel is on the stack is
    # a delegation: the compiled backend did not compute that call itself.
    + [("repro.kernels.numpy_backend:%s" % name, "kernels.delegated")
       for name in HASH_KERNELS + SCATTER_KERNELS]
)

KERNEL_POINTS = tuple("repro.vectorize:%s" % name for name in HASH_KERNELS + SCATTER_KERNELS)
LAYERS = ("vectorize", "kernels", "bitstructs", "core", "l0", "serialize", "durability", "parallel")
KERNEL_GROUPS = ("kernels.hash", "kernels.scatter")


def _resolve(point):
    """Return ``(owner, attribute, function)`` for a point, or ``None``."""
    module_name, _, path = point.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        function = owner.__dict__.get(attribute)
    else:
        function = getattr(owner, attribute, None)
    if not callable(function):
        return None
    return owner, attribute, function


def _binding_sites(owner, attribute, function):
    """Every place the program can look the function up."""
    if isinstance(owner, type):
        return [(owner, attribute)]
    sites = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is function:
                sites.append((module, key))
    return sites


def resolve_points():
    """Map each point to its number of binding sites (0 = unmeasured)."""
    counts = {}
    for point, _ in POINTS:
        found = _resolve(point)
        counts[point] = len(_binding_sites(*found)) if found else 0
    return counts


class Tracer:
    """Span recorder installed over the program's public functions.

    The wrappers are closures over small lists, not attribute lookups, to
    keep the cost each span adds to the traced run low.
    """

    def __init__(self, compiled_backend: bool) -> None:
        self.compiled_backend = compiled_backend
        #: Per group: ``[outermost total ns, self ns, current depth]``.
        self._stats = {group: [0, 0, 0] for _, group in POINTS}
        #: Per resolved point: ``[calls]``.
        self._calls = {}
        #: Seam kernel calls the compiled backend computed itself; bytes encoded.
        self._native = [0]
        self._bytes_out = [0]
        #: Binding sites found per point (0 = unmeasured).
        self.sites = {}
        self._stack = []
        self._patches = []

    @property
    def total(self):
        return {group: stats[0] for group, stats in self._stats.items()}

    @property
    def own(self):
        return {group: stats[1] for group, stats in self._stats.items()}

    @property
    def calls(self):
        return {point: counter[0] for point, counter in self._calls.items()}

    @property
    def native(self) -> int:
        return self._native[0]

    @property
    def bytes_out(self) -> int:
        return self._bytes_out[0]

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for point, group in POINTS:
            found = _resolve(point)
            sites = _binding_sites(*found) if found else []
            self.sites[point] = len(sites)
            if not sites:
                continue
            function = found[2]
            self._calls[point] = [0]
            if group == "kernels.delegated":
                wrapper = self._delegation(function, point)
            elif group == "parallel.wait":
                wrapper = self._waiting(function, group)
            else:
                wrapper = self._span(function, group, point)
            for owner, attribute in sites:
                self._patches.append((owner, attribute, getattr(owner, attribute)))
                setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Leave out of the record every span that runs inside the block."""
        stats = [list(entry) for entry in self._stats.values()]
        calls = [counter[0] for counter in self._calls.values()]
        native, bytes_out = self._native[0], self._bytes_out[0]
        try:
            yield
        finally:
            for entry, saved in zip(self._stats.values(), stats):
                entry[:] = saved
            for counter, saved in zip(self._calls.values(), calls):
                counter[0] = saved
            self._native[0], self._bytes_out[0] = native, bytes_out

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up's own calls)."""
        for stats in self._stats.values():
            stats[0] = stats[1] = 0
        for counter in self._calls.values():
            counter[0] = 0
        self._native[0] = self._bytes_out[0] = 0

    # -- wrappers --------------------------------------------------------------

    def _span(self, function, group, point):
        clock = time.perf_counter_ns
        stack = self._stack
        stats = self._stats[group]
        counter = self._calls[point]
        native = self._native if group in KERNEL_GROUPS and self.compiled_backend else None
        bytes_out = self._bytes_out if group == "serialize.encode" else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [0, False]
            stack.append(frame)
            stats[2] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[2] -= 1
                if not stats[2]:
                    stats[0] += elapsed
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                counter[0] += 1
            if native is not None and not frame[1]:
                native[0] += 1
            if bytes_out is not None and not stats[2]:
                bytes_out[0] += len(result)
            return result

        return traced

    def _waiting(self, function, group):
        """Time spent blocked inside each ``next()`` of a generator."""
        clock = time.perf_counter_ns
        stack = self._stack
        stats = self._stats[group]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stats[0] += elapsed
                    stats[1] += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                yield item

        return traced

    def _delegation(self, function, point):
        stack = self._stack
        counter = self._calls[point]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            counter[0] += 1
            if stack:
                stack[-1][1] = True
            return function(*args, **kwargs)

        return traced

    # -- results ---------------------------------------------------------------

    def layer_self(self):
        """Self nanoseconds per layer."""
        out = dict.fromkeys(LAYERS, 0)
        for group, stats in self._stats.items():
            layer = group.partition(".")[0]
            if layer in out:
                out[layer] += stats[1]
        return out
