"""Workload zoo: adversarial and realistic stream classes with exact truth.

Every sweep before this module fed uniform or near-uniform synthetic
streams, which is precisely the input the KNW10 guarantees do *not* need:
the paper's bounds are worst-case over adversarially chosen streams, so
the reproduction-level test is a suite of workloads an adversary (or a
production F0 service) would actually produce.  The zoo defines five
classes, each available in the three input shapes the library ingests —
a :class:`~repro.streams.model.MaterializedStream` (scalar / batch /
sharded paths), a :class:`~repro.streams.generators.KeyedWorkload` (the
grouped sketch-store path), and a
:class:`~repro.streams.generators.WindowedWorkload` (the sliding-window
path) — and each stresses a specific subsystem:

========== ==================================================================
class      stressed code path
========== ==================================================================
skew       Zipf/power-law key and item repetition: the sort/group scatter of
           ``SketchArray.update_grouped`` sees a few giant groups, and hot
           keys dominate ``SketchStore`` row traffic.
churn      insert-then-delete turnstile waves: L0 sketches driven near zero
           repeatedly (counter cancellation, ``SmallL0Recovery`` sparse/dense
           transitions), per-key and per-epoch deletions included.
bursty     timestamped bursts separated by long silent gaps: the
           ``repro/window`` epoch ring must close runs of empty epochs and
           keep rollups exact across them.
cold-keys  key-space growth over time: a stream of mostly-never-seen-before
           keys makes ``SketchStore`` grow through many geometric
           over-allocation steps (the millions-of-cold-keys regime, scaled).
adversarial identifiers with planted arithmetic structure (shared low bits,
           power-of-two strides, dense blocks, bit-reversed counters)
           probing the Mersenne/Barrett k-wise hash kernels — the
           BJKST-style lowest-bits stress case, generalized.
========== ==================================================================

Every generator takes an explicit ``seed`` and is deterministic in it;
:func:`workload_fingerprint` serializes a workload's update arrays through
:mod:`repro.serialize` so byte-identical reproducibility is testable.
Ground truth is always exact, computed from the materialized updates
(``ground_truth`` / per-key / per-window), never assumed.

The classes are reachable by name from :mod:`repro.analysis.sweeps`
(pass a class name wherever a stream/workload factory is accepted, or
call :func:`repro.analysis.sweeps.workload_class_grid` for the whole
error-vs-space grid per class).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..exceptions import ParameterError
from ..hashing.bitops import reverse_bits
from ..vectorize import np
from .generators import KeyedWorkload, WindowedWorkload
from .model import MaterializedStream, Update

__all__ = [
    "WorkloadScale",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "scale_from_env",
    "zipf_rank_probabilities",
    "skewed_stream",
    "skewed_keyed_workload",
    "skewed_windowed_workload",
    "churn_stream",
    "churn_keyed_workload",
    "churn_windowed_workload",
    "bursty_stream",
    "bursty_keyed_workload",
    "bursty_windowed_workload",
    "cold_key_stream",
    "cold_key_workload",
    "cold_key_windowed_workload",
    "near_collision_stream",
    "near_collision_keyed_workload",
    "near_collision_windowed_workload",
    "NEAR_COLLISION_MODES",
    "WorkloadClass",
    "workload_class",
    "workload_class_names",
    "make_workload",
    "workload_fingerprint",
]


# ---------------------------------------------------------------------------
# Scale vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadScale:
    """Shared size knobs every zoo class maps onto its own parameters.

    Attributes:
        universe_size: identifier universe ``n`` (items live in ``[0, n)``).
        length: total update count for the stream/keyed shapes.
        key_count: distinct entity keys for the keyed shapes.
        epochs: busy-epoch count for the windowed shapes (gappy classes
            spread these over a longer epoch axis).
        updates_per_epoch: updates per busy epoch.
    """

    universe_size: int = 1 << 16
    length: int = 20_000
    key_count: int = 256
    epochs: int = 12
    updates_per_epoch: int = 1_500

    def __post_init__(self) -> None:
        if self.universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if self.length < 0 or self.updates_per_epoch < 0:
            raise ParameterError("workload lengths must be non-negative")
        if self.key_count <= 0 or self.epochs <= 0:
            raise ParameterError("key_count and epochs must be positive")


#: The scale the sweeps and README grid run at.
DEFAULT_SCALE = WorkloadScale()

#: A CI-smoke scale: every class still exercises its target code path
#: (multiple store grow steps, multiple epoch gaps, several churn waves)
#: in well under a second per workload.
SMOKE_SCALE = WorkloadScale(
    universe_size=1 << 12,
    length=2_000,
    key_count=48,
    epochs=6,
    updates_per_epoch=250,
)


def scale_from_env(
    default: WorkloadScale = SMOKE_SCALE, prefix: str = "WORKLOAD"
) -> WorkloadScale:
    """Build a :class:`WorkloadScale` from ``<prefix>_*`` environment knobs.

    Recognised variables (all optional): ``<prefix>_UNIVERSE``,
    ``<prefix>_LENGTH``, ``<prefix>_KEYS``, ``<prefix>_EPOCHS``,
    ``<prefix>_EPOCH_UPDATES``.  This is how CI smoke steps and local
    full-scale runs drive the same suite at different sizes.
    """
    overrides = {}
    for attr, suffix in (
        ("universe_size", "UNIVERSE"),
        ("length", "LENGTH"),
        ("key_count", "KEYS"),
        ("epochs", "EPOCHS"),
        ("updates_per_epoch", "EPOCH_UPDATES"),
    ):
        raw = os.environ.get("%s_%s" % (prefix, suffix))
        if raw is not None:
            overrides[attr] = int(raw)
    return replace(default, **overrides) if overrides else default


def _require_scale(scale: Optional[WorkloadScale]) -> WorkloadScale:
    if scale is None:
        return DEFAULT_SCALE
    if not isinstance(scale, WorkloadScale):
        raise ParameterError("scale must be a WorkloadScale")
    return scale


def _stream_from_arrays(items, deltas, universe_size: int, name: str) -> MaterializedStream:
    if deltas is None:
        updates = [Update(int(item), 1) for item in items]
    else:
        updates = [
            Update(int(item), int(delta)) for item, delta in zip(items, deltas)
        ]
    return MaterializedStream(updates, universe_size, name=name)


# ---------------------------------------------------------------------------
# Skew: Zipf/power-law repetition on items and keys
# ---------------------------------------------------------------------------


def zipf_rank_probabilities(support: int, skew: float) -> List[float]:
    """Return the normalised Zipf(``skew``) probabilities of ranks ``0..support-1``.

    The rank-``r`` mass is proportional to ``(r + 1) ** -skew``.  Unlike
    :func:`repro.streams.generators.zipf_stream` this accepts ``skew == 0``
    (the exact uniform limit) so the edge behaviour is testable: at
    ``skew = 0`` every rank has probability ``1 / support``, and as
    ``skew`` grows the mass concentrates on rank 0 (the single-key
    limit — at ``skew >= ~1100`` the rank-1 weight underflows to zero in
    IEEE-754 and the distribution is *exactly* degenerate).
    """
    if support <= 0:
        raise ParameterError("support must be positive")
    if skew < 0:
        raise ParameterError("skew must be non-negative")
    weights = [float(rank + 1) ** -skew for rank in range(support)]
    total = sum(weights)
    return [weight / total for weight in weights]


def _zipf_draws(rng, support: int, skew: float, size: int):
    """Vectorized Zipf rank draws (``size`` ranks in ``[0, support)``)."""
    cumulative = np.cumsum(np.asarray(zipf_rank_probabilities(support, skew)))
    cumulative[-1] = 1.0  # guard the float tail so searchsorted stays in range
    return np.searchsorted(cumulative, rng.random(size), side="right").astype(
        np.int64
    )


def skewed_stream(
    universe_size: int,
    length: int,
    skew: float = 1.2,
    support: Optional[int] = None,
    seed: Optional[int] = None,
    name: str = "zoo-skew",
) -> MaterializedStream:
    """A power-law item stream: rank-``r`` identifier drawn with mass ``r^-skew``.

    Ranks map to a seed-deterministic permutation of identifiers so the
    heavy hitters carry no special bit structure (the adversarial class
    covers that separately).  The vectorized counterpart of
    :func:`repro.streams.generators.zipf_stream`, accepting ``skew >= 0``.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if support is None:
        support = min(universe_size, max(length, 1))
    if not 0 < support <= universe_size:
        raise ParameterError("support must lie in (0, universe_size]")
    rng = np.random.default_rng(seed)
    identifiers = rng.permutation(universe_size)[:support].astype(np.uint64)
    items = identifiers[_zipf_draws(rng, support, skew, length)]
    return _stream_from_arrays(items, None, universe_size, name)


def skewed_keyed_workload(
    scale: Optional[WorkloadScale] = None,
    key_skew: float = 1.3,
    item_skew: float = 1.05,
    seed: Optional[int] = None,
    name: str = "zoo-skew-keyed",
) -> KeyedWorkload:
    """Zipfian keys *and* items: a few giant per-key groups, many tiny ones.

    This is the shape that stresses the grouped-ingest sort/group
    scatter: ``np.unique`` over the key batch sees a handful of keys
    covering most updates, and the per-row update counts span orders of
    magnitude.
    """
    scale = _require_scale(scale)
    rng = np.random.default_rng(seed)
    key_ranks = _zipf_draws(rng, scale.key_count, key_skew, scale.length)
    keys = rng.permutation(scale.key_count)[key_ranks].astype(np.int64)
    item_support = min(scale.universe_size, max(scale.length, 1))
    item_ranks = _zipf_draws(rng, item_support, item_skew, scale.length)
    items = (
        rng.permutation(scale.universe_size)[:item_support]
        .astype(np.uint64)[item_ranks]
    )
    return KeyedWorkload(scale.universe_size, keys, items, name=name)


def skewed_windowed_workload(
    scale: Optional[WorkloadScale] = None,
    skew: float = 1.2,
    seed: Optional[int] = None,
    name: str = "zoo-skew-windowed",
) -> WindowedWorkload:
    """Per-epoch Zipf draws over one shared support: hot items recur forever.

    Consecutive windows overlap heavily in their heavy hitters, so the
    window rollup must deduplicate the same hot identifiers across every
    epoch it merges.
    """
    scale = _require_scale(scale)
    rng = np.random.default_rng(seed)
    length = scale.epochs * scale.updates_per_epoch
    support = min(scale.universe_size, max(length, 1))
    identifiers = rng.permutation(scale.universe_size)[:support].astype(np.uint64)
    items = identifiers[_zipf_draws(rng, support, skew, length)]
    epochs = np.repeat(
        np.arange(scale.epochs, dtype=np.int64), scale.updates_per_epoch
    )
    return WindowedWorkload(scale.universe_size, epochs, items, name=name)


# ---------------------------------------------------------------------------
# Churn: turnstile insert-then-delete waves driving L0 near zero
# ---------------------------------------------------------------------------


def churn_stream(
    universe_size: int,
    distinct: int,
    waves: int = 3,
    survivor_fraction: float = 0.05,
    copies: int = 1,
    seed: Optional[int] = None,
    name: str = "zoo-churn",
) -> MaterializedStream:
    """Turnstile waves: each wave inserts ``distinct`` fresh items, then
    deletes all but a ``survivor_fraction`` of them.

    Mid-stream, L0 repeatedly climbs to ``distinct`` and collapses to the
    survivor count — the regime where an L0 sketch's counters cancel back
    toward zero (and where estimators that only ever grow are exposed).
    The final exact L0 is ``waves * round(distinct * survivor_fraction)``
    because waves use disjoint identifier pools.

    Args:
        universe_size: identifier universe; must hold ``waves * distinct``
            disjoint identifiers.
        distinct: identifiers inserted per wave.
        waves: number of insert-then-delete waves.
        survivor_fraction: fraction of each wave's identifiers left alive.
        copies: multiplicity given to each inserted identifier (deletions
            match it, so cancellation is exact).
        seed: RNG seed.
        name: label for reports.
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if distinct < 0:
        raise ParameterError("distinct must be non-negative")
    if waves <= 0:
        raise ParameterError("waves must be positive")
    if not 0.0 <= survivor_fraction <= 1.0:
        raise ParameterError("survivor_fraction must lie in [0, 1]")
    if copies <= 0:
        raise ParameterError("copies must be positive")
    if waves * distinct > universe_size:
        raise ParameterError("universe too small for disjoint churn waves")
    rng = random.Random(seed)
    pool = rng.sample(range(universe_size), waves * distinct)
    updates: List[Update] = []
    survivors = int(round(distinct * survivor_fraction))
    for wave in range(waves):
        wave_ids = pool[wave * distinct : (wave + 1) * distinct]
        inserts = [
            Update(identifier, 1)
            for identifier in wave_ids
            for _ in range(copies)
        ]
        rng.shuffle(inserts)
        updates.extend(inserts)
        doomed = wave_ids[survivors:]
        deletes = [
            Update(identifier, -1) for identifier in doomed for _ in range(copies)
        ]
        rng.shuffle(deletes)
        updates.extend(deletes)
    return MaterializedStream(updates, universe_size, name=name)


def churn_keyed_workload(
    scale: Optional[WorkloadScale] = None,
    survivor_fraction: float = 0.1,
    seed: Optional[int] = None,
    name: str = "zoo-churn-keyed",
) -> KeyedWorkload:
    """Per-key insert-then-delete churn (a turnstile keyed workload).

    Every key receives its own pool of identifiers, all inserted and then
    mostly deleted, with the update order shuffled across keys so the
    grouped turnstile scatter sees interleaved signed updates.  Ground
    truth is the exact per-key support size after cancellation.
    """
    scale = _require_scale(scale)
    per_key = max(scale.length // (2 * scale.key_count), 1)
    rng = np.random.default_rng(seed)
    keys: List = []
    items: List = []
    deltas: List = []
    survivors = int(round(per_key * survivor_fraction))
    for key in range(scale.key_count):
        pool = rng.choice(scale.universe_size, size=per_key, replace=False)
        keys.extend([key] * per_key)
        items.extend(pool.tolist())
        deltas.extend([1] * per_key)
        doomed = pool[survivors:]
        keys.extend([key] * len(doomed))
        items.extend(doomed.tolist())
        deltas.extend([-1] * len(doomed))
    order = rng.permutation(len(items))
    return KeyedWorkload(
        scale.universe_size,
        np.asarray(keys, dtype=np.int64)[order],
        np.asarray(items, dtype=np.uint64)[order],
        deltas=np.asarray(deltas, dtype=np.int64)[order],
        name=name,
    )


def churn_windowed_workload(
    scale: Optional[WorkloadScale] = None,
    survivor_fraction: float = 0.1,
    seed: Optional[int] = None,
    name: str = "zoo-churn-windowed",
) -> WindowedWorkload:
    """Timestamped churn: epoch ``e`` inserts a fresh pool, epoch ``e + 1``
    deletes most of it.

    A window covering both epochs sees the cancelled support; a window
    covering only the deletion epoch sees pure negative frequencies
    (legal in the turnstile model — exactly the generality the KNW L0
    sketch supports and Ganguly-style non-negative schemes do not).
    """
    scale = _require_scale(scale)
    rng = np.random.default_rng(seed)
    per_epoch = max(scale.updates_per_epoch // 2, 1)
    survivors = int(round(per_epoch * survivor_fraction))
    epoch_column: List[int] = []
    items: List[int] = []
    deltas: List[int] = []
    previous_doomed = None
    for epoch in range(scale.epochs):
        pool = rng.choice(scale.universe_size, size=per_epoch, replace=False)
        epoch_updates = pool.tolist()
        epoch_deltas = [1] * per_epoch
        if previous_doomed is not None:
            epoch_updates.extend(previous_doomed.tolist())
            epoch_deltas.extend([-1] * len(previous_doomed))
        order = rng.permutation(len(epoch_updates))
        items.extend(np.asarray(epoch_updates, dtype=np.int64)[order].tolist())
        deltas.extend(np.asarray(epoch_deltas, dtype=np.int64)[order].tolist())
        epoch_column.extend([epoch] * len(epoch_updates))
        previous_doomed = pool[survivors:]
    return WindowedWorkload(
        scale.universe_size,
        np.asarray(epoch_column, dtype=np.int64),
        np.asarray(items, dtype=np.uint64),
        deltas=np.asarray(deltas, dtype=np.int64),
        name=name,
    )


# ---------------------------------------------------------------------------
# Bursty: timestamped bursts with long silent gaps
# ---------------------------------------------------------------------------


def bursty_stream(
    universe_size: int,
    length: int,
    bursts: int = 6,
    burst_support: Optional[int] = None,
    seed: Optional[int] = None,
    name: str = "zoo-bursty",
) -> MaterializedStream:
    """Bursts of heavy repetition over small per-burst pools.

    Each burst hammers its own small identifier pool (mostly-disjoint
    across bursts), so F0 grows in steps: flat within a burst, jumping
    between bursts — the profile RoughEstimator's "correct at all times"
    guarantee must track.
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if length < 0:
        raise ParameterError("length must be non-negative")
    if bursts <= 0:
        raise ParameterError("bursts must be positive")
    rng = np.random.default_rng(seed)
    per_burst = max(length // bursts, 1) if length else 0
    if burst_support is None:
        burst_support = max(min(per_burst // 8, universe_size // max(bursts, 1)), 1)
    items: List[int] = []
    produced = 0
    for burst in range(bursts):
        remaining = length - produced
        if remaining <= 0:
            break
        count = per_burst if burst < bursts - 1 else remaining
        pool = rng.choice(universe_size, size=burst_support, replace=False)
        items.extend(pool[rng.integers(0, burst_support, size=count)].tolist())
        produced += count
    return _stream_from_arrays(
        np.asarray(items, dtype=np.uint64), None, universe_size, name
    )


def bursty_keyed_workload(
    scale: Optional[WorkloadScale] = None,
    seed: Optional[int] = None,
    name: str = "zoo-bursty-keyed",
) -> KeyedWorkload:
    """One key active at a time: all of a burst's updates hit one entity.

    The grouped path degenerates to single-row scatters per batch — the
    opposite extreme from the skew class's many-group batches.
    """
    scale = _require_scale(scale)
    rng = np.random.default_rng(seed)
    per_key = max(scale.length // scale.key_count, 1)
    keys: List[int] = []
    items: List[int] = []
    active = rng.permutation(scale.key_count)
    for key in active.tolist():
        pool_size = max(per_key // 4, 1)
        pool = rng.integers(0, scale.universe_size, size=pool_size, dtype=np.uint64)
        keys.extend([key] * per_key)
        items.extend(pool[rng.integers(0, pool_size, size=per_key)].tolist())
    return KeyedWorkload(
        scale.universe_size,
        np.asarray(keys, dtype=np.int64),
        np.asarray(items, dtype=np.uint64),
        name=name,
    )


def bursty_windowed_workload(
    scale: Optional[WorkloadScale] = None,
    gap_epochs: int = 7,
    burst_epochs: int = 2,
    seed: Optional[int] = None,
    name: str = "zoo-bursty-windowed",
) -> WindowedWorkload:
    """Bursts of busy epochs separated by long runs of silent epochs.

    The epoch column jumps by ``gap_epochs`` between bursts, so the
    window ring must close every intervening epoch as empty
    (:meth:`~repro.window.windowed._EpochRing.advance_epoch`'s gap
    closing) and window queries spanning a gap must roll up across the
    empty epochs without drift.  There are at least two bursts, so
    even the smallest scale has a gap inside its epoch range.
    """
    scale = _require_scale(scale)
    if gap_epochs < 1 or burst_epochs < 1:
        raise ParameterError("gap_epochs and burst_epochs must be positive")
    rng = np.random.default_rng(seed)
    bursts = max(scale.epochs // burst_epochs, 2)
    epoch_column: List[int] = []
    items: List[int] = []
    epoch_cursor = 0
    for burst in range(bursts):
        pool_size = max(scale.updates_per_epoch // 4, 1)
        pool = rng.integers(0, scale.universe_size, size=pool_size, dtype=np.uint64)
        for _ in range(burst_epochs):
            draws = pool[
                rng.integers(0, pool_size, size=scale.updates_per_epoch)
            ]
            items.extend(draws.tolist())
            epoch_column.extend([epoch_cursor] * scale.updates_per_epoch)
            epoch_cursor += 1
        epoch_cursor += gap_epochs  # the silent gap: no updates at all
    return WindowedWorkload(
        scale.universe_size,
        np.asarray(epoch_column, dtype=np.int64),
        np.asarray(items, dtype=np.uint64),
        name=name,
    )


# ---------------------------------------------------------------------------
# Cold keys: key-space growth over time
# ---------------------------------------------------------------------------


def _growth_sequence(rng, total: int, fresh: int):
    """Return ``total`` draws where exactly ``fresh`` positions introduce a
    new sequential id and the rest revisit a uniformly random earlier id.

    The vectorized core of the cold-key generators: position 0 is always
    fresh, fresh positions are a seed-deterministic subset, and revisit
    positions draw uniformly from the ids introduced so far.
    """
    if not 1 <= fresh <= total:
        raise ParameterError("fresh must lie in [1, total]")
    revisit = np.zeros(total, dtype=bool)
    if total > 1:
        chosen = rng.choice(total - 1, size=total - fresh, replace=False) + 1
        revisit[chosen] = True
    introduced = np.cumsum(~revisit)  # ids introduced up to and including i
    values = introduced - 1  # fresh position i introduces id introduced[i]-1
    revisit_positions = np.flatnonzero(revisit)
    if len(revisit_positions):
        values = values.copy()
        values[revisit_positions] = (
            rng.random(len(revisit_positions)) * introduced[revisit_positions]
        ).astype(np.int64)
    return values.astype(np.int64)


def cold_key_stream(
    universe_size: int,
    length: int,
    distinct: Optional[int] = None,
    seed: Optional[int] = None,
    name: str = "zoo-cold",
) -> MaterializedStream:
    """F0 grows steadily for the whole stream: most items are new.

    ``distinct`` of the ``length`` updates introduce a never-seen
    identifier (default 3/4 of them); the rest revisit a uniform earlier
    one.  Sequential introduction ids map through a seed-deterministic
    permutation, so identifiers themselves carry no counter structure.
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if length <= 0:
        raise ParameterError("cold_key_stream needs a positive length")
    if distinct is None:
        distinct = max((3 * length) // 4, 1)
    if not 1 <= distinct <= min(length, universe_size):
        raise ParameterError("distinct must lie in [1, min(length, universe_size)]")
    rng = np.random.default_rng(seed)
    sequence = _growth_sequence(rng, length, distinct)
    identifiers = rng.permutation(universe_size)[:distinct].astype(np.uint64)
    return _stream_from_arrays(identifiers[sequence], None, universe_size, name)


def cold_key_workload(
    scale: Optional[WorkloadScale] = None,
    revisit_fraction: float = 0.25,
    seed: Optional[int] = None,
    name: str = "zoo-cold-keyed",
) -> KeyedWorkload:
    """Key space that grows for the whole workload: mostly cold keys.

    Keys are introduced in increasing order over time (a fraction of
    updates revisit warm keys), so an incrementally fed
    :class:`~repro.store.store.SketchStore` grows through many
    geometric over-allocation steps rather than one up-front
    registration — the scaled-down millions-of-cold-keys regime.
    """
    scale = _require_scale(scale)
    if not 0.0 <= revisit_fraction < 1.0:
        raise ParameterError("revisit_fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    length = max(scale.length, scale.key_count)
    keys = _growth_sequence(rng, length, scale.key_count)
    items = rng.integers(0, scale.universe_size, size=length, dtype=np.uint64)
    return KeyedWorkload(scale.universe_size, keys, items, name=name)


def cold_key_windowed_workload(
    scale: Optional[WorkloadScale] = None,
    seed: Optional[int] = None,
    name: str = "zoo-cold-windowed",
) -> WindowedWorkload:
    """Each epoch introduces a mostly-fresh identifier pool.

    Windows of increasing width therefore have near-linearly growing
    exact distinct counts — the window rollup must track growth rather
    than re-count a stable population.
    """
    scale = _require_scale(scale)
    rng = np.random.default_rng(seed)
    length = scale.epochs * scale.updates_per_epoch
    distinct = min(max((3 * length) // 4, 1), scale.universe_size, max(length, 1))
    sequence = _growth_sequence(rng, length, distinct)
    identifiers = rng.permutation(scale.universe_size)[:distinct].astype(np.uint64)
    epochs = np.repeat(
        np.arange(scale.epochs, dtype=np.int64), scale.updates_per_epoch
    )
    return WindowedWorkload(
        scale.universe_size, epochs, identifiers[sequence], name=name
    )


# ---------------------------------------------------------------------------
# Adversarial: planted arithmetic structure probing the hash kernels
# ---------------------------------------------------------------------------

#: Supported near-collision modes (see :func:`near_collision_stream`).
NEAR_COLLISION_MODES = ("bit-reversed", "shared-lowbits", "stride", "dense")


def _near_collision_items(
    universe_size: int, distinct: int, mode: str, cluster_bits: int
) -> List[int]:
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if not 0 <= distinct <= universe_size:
        raise ParameterError("distinct must lie in [0, universe_size]")
    if cluster_bits < 0:
        raise ParameterError("cluster_bits must be non-negative")
    if mode == "bit-reversed":
        # Generalizes low_bits_adversarial_stream to non-power-of-two
        # universes: reverse counters in the universe's bit width and skip
        # reversals that land outside the universe.
        width = max((universe_size - 1).bit_length(), 1)
        items: List[int] = []
        counter = 0
        while len(items) < distinct:
            if counter >= (1 << width):  # pragma: no cover - defensive
                raise ParameterError("universe exhausted before distinct reached")
            value = reverse_bits(counter, width)
            if value < universe_size:
                items.append(value)
            counter += 1
        return items
    if mode == "shared-lowbits":
        # Every identifier shares the same low cluster_bits bits: lsb of the
        # raw identifier is constant, and polynomial hashes see inputs in
        # one arithmetic progression of gap 2^cluster_bits.
        gap = 1 << cluster_bits
        pattern = gap - 1 if cluster_bits else 0
        if pattern >= universe_size or distinct > (universe_size - 1 - pattern) // max(gap, 1) + 1:
            raise ParameterError(
                "universe too small for %d shared-lowbits identifiers" % distinct
            )
        return [pattern + index * gap for index in range(distinct)]
    if mode == "stride":
        # A maximal-stride arithmetic progression: identifiers differ only
        # in their top bits, the worst case for families that mix low bits
        # weakly (Barrett/Mersenne residues see structured differences).
        stride = max(universe_size // max(distinct, 1), 1)
        if distinct and (distinct - 1) * stride >= universe_size:
            raise ParameterError("universe too small for the stride progression")
        return [index * stride for index in range(distinct)]
    if mode == "dense":
        # A contiguous block at the top of the universe: maximal shared
        # high bits, every hash input numerically adjacent.
        base = universe_size - distinct
        return [base + index for index in range(distinct)]
    raise ParameterError(
        "unknown near-collision mode %r (known: %s)"
        % (mode, ", ".join(NEAR_COLLISION_MODES))
    )


def near_collision_stream(
    universe_size: int,
    distinct: int,
    mode: str = "shared-lowbits",
    cluster_bits: int = 12,
    repetitions: int = 1,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> MaterializedStream:
    """Identifiers with planted arithmetic structure, each appearing once
    (or ``repetitions`` times), in seed-shuffled order.

    Generalizes
    :func:`repro.streams.generators.low_bits_adversarial_stream`: the
    BJKST-style lowest-bits input is one mode among four, each probing a
    different weakness class of the k-wise hash kernels:

    * ``"bit-reversed"`` — low bits change as slowly as a counter's high
      bits (fools raw-identifier subsampling; works for any universe).
    * ``"shared-lowbits"`` — all identifiers share their low
      ``cluster_bits`` bits (constant raw lsb; inputs form one arithmetic
      progression of gap ``2**cluster_bits``).
    * ``"stride"`` — maximal-stride progression (identifiers differ only
      in top bits).
    * ``"dense"`` — one contiguous block of identifiers (maximal shared
      high bits).

    The KNW estimators hash before subsampling, so their accuracy must be
    unaffected by every mode — which is exactly what the workload-grid
    tests assert.
    """
    items = _near_collision_items(universe_size, distinct, mode, cluster_bits)
    if repetitions <= 0:
        raise ParameterError("repetitions must be positive")
    if repetitions > 1:
        items = [item for item in items for _ in range(repetitions)]
    rng = random.Random(seed)
    rng.shuffle(items)
    return MaterializedStream(
        [Update(item, 1) for item in items],
        universe_size,
        name=name or ("zoo-adversarial-%s" % mode),
    )


def near_collision_keyed_workload(
    scale: Optional[WorkloadScale] = None,
    mode: str = "shared-lowbits",
    cluster_bits: int = 6,
    seed: Optional[int] = None,
    name: str = "zoo-adversarial-keyed",
) -> KeyedWorkload:
    """Adversarial identifiers fanned out over strided keys.

    Keys form their own arithmetic progression (stressing the grouped
    path's sort over structured key values); each update's item comes
    from one shared near-collision identifier set.
    """
    scale = _require_scale(scale)
    distinct = min(
        max(scale.length // 2, 1),
        scale.universe_size // max(1 << cluster_bits, 1) or 1,
    )
    base_items = np.asarray(
        _near_collision_items(scale.universe_size, distinct, mode, cluster_bits),
        dtype=np.uint64,
    )
    rng = np.random.default_rng(seed)
    key_stride = max((1 << 62) // max(scale.key_count, 1), 1)
    key_values = np.arange(scale.key_count, dtype=np.int64) * key_stride
    keys = key_values[rng.integers(0, scale.key_count, size=scale.length)]
    items = base_items[rng.integers(0, len(base_items), size=scale.length)]
    return KeyedWorkload(scale.universe_size, keys, items, name=name)


def near_collision_windowed_workload(
    scale: Optional[WorkloadScale] = None,
    mode: str = "shared-lowbits",
    cluster_bits: int = 6,
    seed: Optional[int] = None,
    name: str = "zoo-adversarial-windowed",
) -> WindowedWorkload:
    """Per-epoch slices of one near-collision progression.

    Epoch ``e`` draws from a sliding slice of the structured identifier
    set, so consecutive windows share most of their (structured) support.
    """
    scale = _require_scale(scale)
    length = scale.epochs * scale.updates_per_epoch
    distinct = min(
        max(length // 2, 1),
        scale.universe_size // max(1 << cluster_bits, 1) or 1,
    )
    base_items = np.asarray(
        _near_collision_items(scale.universe_size, distinct, mode, cluster_bits),
        dtype=np.uint64,
    )
    rng = np.random.default_rng(seed)
    per_epoch_support = max(len(base_items) // max(scale.epochs, 1), 1)
    epoch_column: List[int] = []
    items: List[int] = []
    for epoch in range(scale.epochs):
        start = (epoch * per_epoch_support // 2) % len(base_items)
        window = np.take(
            base_items,
            np.arange(start, start + per_epoch_support) % len(base_items),
        )
        draws = window[
            rng.integers(0, len(window), size=scale.updates_per_epoch)
        ]
        items.extend(draws.tolist())
        epoch_column.extend([epoch] * scale.updates_per_epoch)
    return WindowedWorkload(
        scale.universe_size,
        np.asarray(epoch_column, dtype=np.int64),
        np.asarray(items, dtype=np.uint64),
        name=name,
    )


# ---------------------------------------------------------------------------
# The class registry: five named classes, three shapes each
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadClass:
    """One named zoo class: three input shapes plus metadata.

    Attributes:
        name: the registry key (``skew``, ``churn``, ...).
        description: one-line description for tables and docs.
        stresses: the code path this class exists to exercise.
        turnstile: True when the class's streams carry signed deltas
            (score it with L0 estimators; F0 sweeps reject it).
    """

    name: str
    description: str
    stresses: str
    turnstile: bool
    _stream: Callable = field(repr=False)
    _keyed: Callable = field(repr=False)
    _windowed: Callable = field(repr=False)

    def stream(
        self, seed: Optional[int] = None, scale: Optional[WorkloadScale] = None
    ) -> MaterializedStream:
        """Build the class's :class:`MaterializedStream` shape."""
        return self._stream(seed, _require_scale(scale))

    def keyed(
        self, seed: Optional[int] = None, scale: Optional[WorkloadScale] = None
    ) -> KeyedWorkload:
        """Build the class's :class:`KeyedWorkload` shape."""
        return self._keyed(seed, _require_scale(scale))

    def windowed(
        self, seed: Optional[int] = None, scale: Optional[WorkloadScale] = None
    ) -> WindowedWorkload:
        """Build the class's :class:`WindowedWorkload` shape."""
        return self._windowed(seed, _require_scale(scale))


_WORKLOAD_CLASSES: Dict[str, WorkloadClass] = {}


def _register(cls: WorkloadClass) -> None:
    _WORKLOAD_CLASSES[cls.name] = cls


_register(
    WorkloadClass(
        name="skew",
        description="Zipf/power-law key and item repetition",
        stresses="update_grouped sort/group scatter; SketchStore hot rows",
        turnstile=False,
        _stream=lambda seed, scale: skewed_stream(
            scale.universe_size, scale.length, seed=seed
        ),
        _keyed=lambda seed, scale: skewed_keyed_workload(scale, seed=seed),
        _windowed=lambda seed, scale: skewed_windowed_workload(scale, seed=seed),
    )
)

_register(
    WorkloadClass(
        name="churn",
        description="turnstile insert-then-delete waves (L0 near zero)",
        stresses="L0 counter cancellation; sparse/dense recovery transitions",
        turnstile=True,
        _stream=lambda seed, scale: churn_stream(
            scale.universe_size,
            max(min(scale.length // 8, scale.universe_size // 4), 1),
            waves=3,
            seed=seed,
        ),
        _keyed=lambda seed, scale: churn_keyed_workload(scale, seed=seed),
        _windowed=lambda seed, scale: churn_windowed_workload(scale, seed=seed),
    )
)

_register(
    WorkloadClass(
        name="bursty",
        description="bursty arrivals with long silent gaps",
        stresses="window ring gap closing; stepwise F0 growth",
        turnstile=False,
        _stream=lambda seed, scale: bursty_stream(
            scale.universe_size, scale.length, seed=seed
        ),
        _keyed=lambda seed, scale: bursty_keyed_workload(scale, seed=seed),
        _windowed=lambda seed, scale: bursty_windowed_workload(scale, seed=seed),
    )
)

_register(
    WorkloadClass(
        name="cold-keys",
        description="key-space growth over time (mostly cold keys)",
        stresses="SketchStore geometric over-allocation; growing F0",
        turnstile=False,
        _stream=lambda seed, scale: cold_key_stream(
            scale.universe_size, max(scale.length, 1), seed=seed
        ),
        _keyed=lambda seed, scale: cold_key_workload(scale, seed=seed),
        _windowed=lambda seed, scale: cold_key_windowed_workload(scale, seed=seed),
    )
)

def _adversarial_cluster_bits(scale: WorkloadScale) -> int:
    return max(scale.universe_size.bit_length() // 4, 1)


def _adversarial_stream(seed, scale: WorkloadScale) -> MaterializedStream:
    cluster_bits = _adversarial_cluster_bits(scale)
    distinct = min(
        max(scale.length // 2, 1), (scale.universe_size >> cluster_bits) or 1
    )
    return near_collision_stream(
        scale.universe_size,
        distinct,
        mode="shared-lowbits",
        cluster_bits=cluster_bits,
        seed=seed,
    )


_register(
    WorkloadClass(
        name="adversarial",
        description="near-collision identifiers with planted bit structure",
        stresses="Mersenne/Barrett k-wise hash kernels; lsb subsampling",
        turnstile=False,
        _stream=_adversarial_stream,
        _keyed=lambda seed, scale: near_collision_keyed_workload(
            scale, cluster_bits=_adversarial_cluster_bits(scale), seed=seed
        ),
        _windowed=lambda seed, scale: near_collision_windowed_workload(
            scale, cluster_bits=_adversarial_cluster_bits(scale), seed=seed
        ),
    )
)


def workload_class_names() -> List[str]:
    """Return the registered workload class names (zoo order)."""
    return list(_WORKLOAD_CLASSES)


def workload_class(name: str) -> WorkloadClass:
    """Look up a workload class by name."""
    cls = _WORKLOAD_CLASSES.get(name)
    if cls is None:
        raise ParameterError(
            "unknown workload class %r (known: %s)"
            % (name, ", ".join(_WORKLOAD_CLASSES))
        )
    return cls


def make_workload(
    name: str,
    shape: str = "stream",
    seed: Optional[int] = None,
    scale: Optional[WorkloadScale] = None,
):
    """Build one zoo workload by class name and input shape.

    Args:
        name: a class name (see :func:`workload_class_names`).
        shape: ``"stream"`` (:class:`MaterializedStream`), ``"keyed"``
            (:class:`KeyedWorkload`), or ``"windowed"``
            (:class:`WindowedWorkload`).
        seed: generator seed (determinism is byte-exact per seed).
        scale: size knobs; defaults to :data:`DEFAULT_SCALE`.
    """
    cls = workload_class(name)
    if shape == "stream":
        return cls.stream(seed, scale)
    if shape == "keyed":
        return cls.keyed(seed, scale)
    if shape == "windowed":
        return cls.windowed(seed, scale)
    raise ParameterError(
        "unknown workload shape %r (known: stream, keyed, windowed)" % (shape,)
    )


def workload_fingerprint(workload) -> bytes:
    """Serialize a workload's defining arrays to canonical bytes.

    Two generator calls with the same seed must produce byte-identical
    fingerprints (the seed-determinism regression contract); the encoding
    rides the :mod:`repro.serialize` wire format, so whatever canonical
    ordering and framing rules that format guarantees apply here too.
    """
    from .. import serialize

    if isinstance(workload, MaterializedStream):
        state = {
            "shape": "stream",
            "universe_size": workload.universe_size,
            "name": workload.name,
            "items": np.asarray(workload.item_array(), dtype=np.uint64),
            "deltas": np.asarray(workload.delta_array(), dtype=np.int64),
        }
    elif isinstance(workload, KeyedWorkload):
        state = {
            "shape": "keyed",
            "universe_size": workload.universe_size,
            "name": workload.name,
            "keys": np.asarray(workload.keys, dtype=np.int64),
            "items": np.asarray(workload.items, dtype=np.uint64),
            "deltas": None
            if workload.deltas is None
            else np.asarray(workload.deltas, dtype=np.int64),
        }
    elif isinstance(workload, WindowedWorkload):
        state = {
            "shape": "windowed",
            "universe_size": workload.universe_size,
            "name": workload.name,
            "epochs": np.asarray(workload.epochs, dtype=np.int64),
            "items": np.asarray(workload.items, dtype=np.uint64),
            "deltas": None
            if workload.deltas is None
            else np.asarray(workload.deltas, dtype=np.int64),
        }
    else:
        raise ParameterError(
            "workload_fingerprint expects a MaterializedStream, KeyedWorkload, "
            "or WindowedWorkload"
        )
    return serialize.dumps_tree(state)
