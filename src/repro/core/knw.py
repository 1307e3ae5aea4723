"""The KNW F0 algorithm: Figure 3 plus the small-F0 handover (Theorems 2-4).

Two classes live here:

* :class:`KNWFigure3Sketch` — a faithful implementation of the algorithm in
  Figure 3 of the paper: ``K = 1/eps^2`` offset counters rebased against
  the RoughEstimator output, the ``A``-tracked bit budget with an explicit
  FAIL output, and the balls-and-bins inversion estimator.  Its guarantee
  (Theorem 3) holds when ``F0 >= K/32``.
* :class:`KNWDistinctCounter` — the user-facing estimator: it combines the
  Figure 3 sketch with the Section 3.3 small-F0 subroutine (sharing the
  hash bundle, as the paper prescribes) so the ``(1 +/- eps)`` guarantee
  holds for every F0, and exposes merging for same-seed sketches (the
  union-of-streams use case from the introduction).

The time-optimal variant (Theorem 9) is in :mod:`repro.core.fast_knw`.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..bitstructs.space import SpaceBreakdown
from ..estimators.base import CardinalityEstimator
from ..exceptions import MergeError, ParameterError, SketchFailure
from ..hashing.bitops import ceil_log2, is_power_of_two
from ..vectorize import as_key_array, counter_dtype, hashed_max_scatter, np
from .balls_bins import invert_occupancy
from .hashes import F0HashBundle
from .rough_estimator import RoughEstimator
from .small_f0 import SmallF0Estimator

__all__ = ["KNWFigure3Sketch", "KNWDistinctCounter", "bins_for_eps", "BATCH_CHUNK"]

#: Internal chunk length of the vectorized Figure 3 ingestion path.  The
#: batch loop consults the RoughEstimator (and rebases) once per chunk
#: instead of once per item; a bounded chunk keeps the rebasing cadence —
#: and therefore the transient counter-offset magnitudes — close to the
#: scalar schedule while amortising the vectorization overhead.
BATCH_CHUNK = 8192


def bins_for_eps(eps: float, minimum: int = 32) -> int:
    """Return ``K = 1/eps^2`` rounded up to a power of two.

    The paper assumes ``1/eps^2`` is a power of two (Section 3.2); rounding
    up only helps accuracy and keeps the ``K/32`` thresholds integral.

    Args:
        eps: relative-error target in (0, 1).
        minimum: smallest allowed K (the Figure 3 constants need
            ``K >= 32`` so that ``K/32 >= 1``).
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    raw = 1.0 / (eps * eps)
    bins = 1 << max(int(math.ceil(math.log2(raw))), 0)
    return max(bins, minimum)


def _counter_bits(value: int) -> int:
    """Return ``ceil(log2(value + 2))`` — the bit budget of one counter.

    ``value`` is a counter in ``{-1, 0, 1, ...}``; the paper charges
    ``ceil(log(C + 2))`` bits per counter in its ``A`` accounting.
    """
    return ceil_log2(value + 2)


#: The steps of :func:`_counter_bits`: ``C`` costs one bit per ``2^k - 1 <= C``.
_COST_STEPS = (1 << np.arange(63, dtype=np.int64)) - 1


def _total_counter_bits(counters) -> int:
    """Return the paper's ``A``: the sum of :func:`_counter_bits` over counters.

    One ``searchsorted`` against :data:`_COST_STEPS` reads every
    counter's cost at once (0 for an empty ``-1``).
    """
    return int(np.searchsorted(_COST_STEPS, counters, side="right").sum())


def _shift_and_clamp(counters, shift: int):
    """Return the counters moved by ``shift``, in their own dtype.

    Steps (a)-(c) of Figure 3: an occupied counter ``C >= 0`` becomes
    ``max(-1, C + shift)`` and an empty one (``-1``) stays empty.  The
    shift runs in ``int64``, so no counter wraps on the way.
    """
    values = counters.astype(np.int64)
    shifted = np.where(values >= 0, np.maximum(values + shift, -1), -1)
    return shifted.astype(counters.dtype)


class KNWFigure3Sketch(CardinalityEstimator):
    """The main space-optimal sketch of Figure 3 (valid for ``F0 >= K/32``).

    Attributes:
        universe_size: the universe size ``n``.
        bins: the number of counters ``K`` (a power of two).
        eps: the nominal relative-error target (``~ 1/sqrt(K)``).
    """

    name = "knw-figure3"
    requires_random_oracle = False

    #: The FAIL threshold of Figure 3: output FAIL if A exceeds 3K.
    FAIL_FACTOR = 3

    #: The paper's subsampling offset constant: ``b = est - log2(K / 32)``.
    PAPER_OFFSET_DIVISOR = 32

    def __init__(
        self,
        universe_size: int,
        eps: float = 0.05,
        bins: Optional[int] = None,
        seed: Optional[int] = None,
        hashes: Optional[F0HashBundle] = None,
        rough: Optional[RoughEstimator] = None,
        rough_counters: Optional[int] = None,
        rough_uniform_family: bool = False,
        offset_divisor: Optional[int] = None,
    ) -> None:
        """Create the sketch.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            eps: relative-error target; determines ``K`` when ``bins`` is
                not given.
            bins: explicit ``K`` (power of two, >= 32); overrides ``eps``.
            seed: RNG seed for all hash functions (hash bundle and
                RoughEstimator draw from independent sub-seeds).
            hashes: an externally shared :class:`F0HashBundle` (the combined
                estimator passes the bundle it also hands to the small-F0
                subroutine).  When given, its space is *not* charged to this
                sketch (the owner charges it once).
            rough: an externally provided RoughEstimator (same ownership
                convention as ``hashes``).
            rough_counters: ``K_RE`` override forwarded to the internally
                created RoughEstimator when ``rough`` is not supplied.
            rough_uniform_family: use Theorem 6's Pagh--Pagh family for
                the RoughEstimator's ``h3`` (the Lemma 5 fast
                configuration) instead of the ``2 K_RE``-wise polynomial.
            offset_divisor: the constant ``c`` in the rebasing rule
                ``b = max(0, est - log2(K/c))``.  The paper uses 32, chosen
                so the Lemma 3 variance analysis applies verbatim; smaller
                values keep more items in the sampled level (better
                accuracy constants at the same asymptotic space) and are
                benchmarked as an ablation (E12; see "Paper constructions
                and stand-ins" in ``docs/architecture.md``).
                Defaults to the paper's 32.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        self.universe_size = universe_size
        self.bins = bins if bins is not None else bins_for_eps(eps)
        if self.bins < 32 or not is_power_of_two(self.bins):
            raise ParameterError("bins (K) must be a power of two and at least 32")
        self.eps = eps
        self.seed = seed
        self.offset_divisor = (
            offset_divisor if offset_divisor is not None else self.PAPER_OFFSET_DIVISOR
        )
        if (
            self.offset_divisor < 1
            or self.offset_divisor > self.bins
            or not is_power_of_two(self.offset_divisor)
        ):
            raise ParameterError("offset_divisor must be a power of two in [1, bins]")
        rng = random.Random(seed)
        hash_seed = rng.randrange(1 << 62)
        rough_seed = rng.randrange(1 << 62)
        self._owns_hashes = hashes is None
        self.hashes = hashes if hashes is not None else F0HashBundle(
            universe_size, self.bins, eps_hint=eps, seed=hash_seed
        )
        if self.hashes.bins != self.bins:
            raise ParameterError("hash bundle bins do not match the sketch bins")
        self._owns_rough = rough is None
        self.rough = rough if rough is not None else RoughEstimator(
            universe_size,
            counters_per_copy=rough_counters,
            seed=rough_seed,
            use_uniform_family=rough_uniform_family,
        )
        # Offsets C_j in {-1} u [0, log n]: a byte each while log n <= 127.
        self._counters = np.full(
            self.bins, -1, dtype=counter_dtype(self.hashes.level_limit, signed=True)
        )
        self._bit_budget = 0  # the paper's A
        self._base_level = 0  # the paper's b
        self._est_exponent = 0  # the paper's est (2^est is the committed rough estimate)
        self._occupied = 0  # |{j : C_j >= 0}| (the T of Step 7)
        self._failed = False

    # -- update path ----------------------------------------------------------------

    def update(self, item: int) -> None:
        """Process one stream item (Step 6 of Figure 3)."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        index = self.hashes.main_bin(item)
        candidate = self.hashes.level(item) - self._base_level
        current = self._counters.item(index)
        if candidate > current:
            self._bit_budget += _counter_bits(candidate) - _counter_bits(current)
            if current < 0:
                self._occupied += 1
            self._counters[index] = candidate
        if self._bit_budget > self.FAIL_FACTOR * self.bins:
            self._failed = True

        self.rough.update(item)
        rough_estimate = self.rough.estimate()
        if rough_estimate > float(1 << self._est_exponent):
            self._rebase(rough_estimate)

    def update_batch(self, items) -> None:
        """Vectorized ingestion of a chunk of items (Step 6, batched).

        The counter state commutes with rebasing — ``max`` with the
        shift-and-clamp of Steps (a)-(c) satisfies
        ``max(-1, max(a, b) + s) = max(max(-1, a + s), max(-1, b + s))`` —
        so the final counters, base level and occupancy are identical to
        the scalar loop's no matter how updates and rebases interleave.
        The batch path exploits this: it reduces up to :data:`BATCH_CHUNK`
        items into the counters at the current base with one
        :func:`~repro.vectorize.hashed_max_scatter`, then feeds the same
        chunk to the RoughEstimator and rebases if its (monotone) estimate
        crossed a power of two.

        The one semantic difference from the loop is FAIL granularity: the
        ``A > 3K`` test runs once per chunk, *after* rebasing, instead of
        after every item.  A batch whose counters only transiently exceed
        the budget at a stale base — because the rebase that scalar
        processing would have performed items earlier is still pending —
        therefore does not latch FAIL spuriously; a sketch whose
        steady-state budget genuinely overflows still does.
        """
        keys = as_key_array(items, self.universe_size)
        for start in range(0, len(keys), BATCH_CHUNK):
            self._ingest_chunk(keys[start : start + BATCH_CHUNK])

    def _ingest_chunk(self, keys, bits=None) -> None:
        """Reduce one bounded chunk of validated keys into the counters, then rebase once.

        One kernel call updates every counter at the current base (an
        offset below -1 never beats a counter, so the floor is -1) and,
        when given the small-F0 subroutine's ``bits``, sets each key's bit
        ``h3(h2(x))`` there too: the batch form of the shared memo.
        """
        if len(keys) == 0:
            return
        hashes = self.hashes
        hashed_max_scatter(
            self._counters,
            keys,
            hashes.h1,
            hashes.h2,
            hashes.h3,
            -self._base_level,
            -1,
            hashes.level_limit,
            bits,
        )
        self._count_counters()

        self.rough.update_batch_validated(keys)
        rough_estimate = self.rough.estimate()
        if rough_estimate > float(1 << self._est_exponent):
            self._rebase(rough_estimate)
        if self._bit_budget > self.FAIL_FACTOR * self.bins:
            self._failed = True

    def _rebase(self, rough_estimate: float) -> None:
        """Steps (a)-(c) of Figure 3: shift the counter offsets to the new base."""
        self._est_exponent = max(int(math.ceil(math.log2(rough_estimate))), 0)
        new_base = max(
            0, self._est_exponent - int(math.log2(self.bins // self.offset_divisor))
        )
        if new_base != self._base_level:
            self._counters = _shift_and_clamp(self._counters, self._base_level - new_base)
            self._base_level = new_base
        self._count_counters()

    def _count_counters(self) -> None:
        """Recount ``T`` and the paper's ``A`` from the counters."""
        counters = self._counters
        self._occupied = int(np.count_nonzero(counters >= 0))
        self._bit_budget = _total_counter_bits(counters)

    # -- reporting ------------------------------------------------------------------

    def has_failed(self) -> bool:
        """Return True when the sketch has hit the Figure 3 FAIL condition."""
        return self._failed

    def occupied_counters(self) -> int:
        """Return ``T = |{j : C_j >= 0}|``."""
        return self._occupied

    def estimate(self) -> float:
        """Return ``2^b * ln(1 - T/K) / ln(1 - 1/K)`` (Step 7 of Figure 3).

        Raises:
            SketchFailure: if the sketch previously output FAIL (the
                probability of this event is at most 1/32 in the analysed
                regime; median amplification recovers from it).
        """
        if self._failed:
            raise SketchFailure(
                "KNW Figure 3 sketch exceeded its %dK-bit counter budget"
                % self.FAIL_FACTOR
            )
        balls = invert_occupancy(self._occupied, self.bins)
        return float(1 << self._base_level) * balls

    # -- merging --------------------------------------------------------------------

    def merge(self, other: "CardinalityEstimator") -> None:
        """Merge a same-seed, same-parameter sketch (distributed union).

        Both sketches must have been constructed with identical
        ``(universe_size, bins, seed)`` so their hash functions agree; the
        merged counters are the element-wise maximum after aligning the
        base levels, which is exactly the state a single sketch would have
        reached on the concatenated stream (up to the RoughEstimator-driven
        rebasing schedule, whose effect on the estimate is bounded by the
        same analysis).
        """
        if not isinstance(other, KNWFigure3Sketch):
            raise MergeError("can only merge KNWFigure3Sketch with its own kind")
        if (
            self.universe_size != other.universe_size
            or self.bins != other.bins
            or self.offset_divisor != other.offset_divisor
            or self.seed is None
            or self.seed != other.seed
        ):
            raise MergeError(
                "KNW sketches can only be merged when built with identical "
                "parameters and an identical, explicit seed"
            )
        target_base = max(self._base_level, other._base_level)
        self._counters = np.maximum(
            _shift_and_clamp(self._counters, self._base_level - target_base),
            _shift_and_clamp(other._counters, other._base_level - target_base),
        )
        self._base_level = target_base
        self._count_counters()
        self._est_exponent = max(self._est_exponent, other._est_exponent)
        self._failed = self._failed or other._failed
        if self._owns_rough and other._owns_rough:
            self.rough.merge_max(other.rough)
            # Settle against the merged rough estimate, exactly as the
            # update path would: the combined occupancy can cross a power
            # of two that no individual shard crossed, and a single sketch
            # over the concatenated stream would have rebased there.  The
            # RoughEstimator state is a pure per-counter maximum, so (with
            # order-insensitive hash families) the merged rough estimate —
            # and therefore the settled ``est``/``b`` — equals the
            # single-stream one, making shard-and-merge bit-identical to
            # sequential ingestion.
            rough_estimate = self.rough.estimate()
            if rough_estimate > float(1 << self._est_exponent):
                self._rebase(rough_estimate)
        if self._bit_budget > self.FAIL_FACTOR * self.bins:
            self._failed = True

    # -- space accounting -----------------------------------------------------------

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space budget of the sketch.

        Components follow Theorem 2's accounting: the bit-packed counters
        (the paper's ``A`` plus one flag bit per counter), the registers
        ``b``, ``est``, ``A``, the hash bundle (when owned), and the
        RoughEstimator (when owned).
        """
        breakdown = SpaceBreakdown(self.name)
        breakdown.add("packed-counters", self._bit_budget + self.bins)
        loglog_n = max(math.ceil(math.log2(max(self.hashes.level_limit, 2))), 1)
        breakdown.add("base-level-b", loglog_n)
        breakdown.add("est-register", loglog_n)
        breakdown.add("bit-budget-register-A", max(self.bins.bit_length() + 2, 1))
        if self._owns_hashes:
            breakdown.add("hash-bundle", self.hashes.space_bits())
        if self._owns_rough:
            breakdown.add("rough-estimator", self.rough.space_bits())
        return breakdown

    def space_bits(self) -> int:
        """Return the sketch's total space in bits."""
        return self.space_breakdown().total()


class KNWDistinctCounter(CardinalityEstimator):
    """The complete KNW distinct-elements estimator (all F0 regimes).

    Combines, exactly as Section 3.3 prescribes:

    * the exact buffer + ``2K``-bit estimator for small F0, and
    * the Figure 3 sketch for ``F0 = Omega(K)``,

    sharing a single hash bundle between the two so the hash functions are
    paid for once.  The reported estimate follows Theorem 4's handover: the
    small-F0 estimate until it declares LARGE, the Figure 3 estimate after.

    Attributes:
        universe_size: the universe size ``n``.
        eps: the relative-error target.
        bins: the ``K = 1/eps^2`` (rounded to a power of two).
    """

    name = "knw"
    requires_random_oracle = False

    #: Default offset divisor for the user-facing estimator.  The paper's
    #: analysis uses 32 (see ``KNWFigure3Sketch.PAPER_OFFSET_DIVISOR``);
    #: with it the sampled level keeps at most K/32 items, which makes the
    #: hidden constant in the (1 +/- O(eps)) guarantee large at practical
    #: eps.  A divisor of 2 keeps the same structure, the same asymptotic
    #: space, and the same worst-case load bound (at most K/2 sampled
    #: items, so no saturation and no change to the FAIL analysis) while
    #: bringing the empirical error close to eps.  Both settings are
    #: benchmarked (ablation E12); pass ``offset_divisor=32`` to run the
    #: literal paper configuration.
    PRACTICAL_OFFSET_DIVISOR = 2

    def __init__(
        self,
        universe_size: int,
        eps: float = 0.05,
        seed: Optional[int] = None,
        bins: Optional[int] = None,
        rough_counters: Optional[int] = None,
        offset_divisor: Optional[int] = None,
        rough_uniform_family: bool = True,
    ) -> None:
        """Create the estimator.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            eps: relative-error target in (0, 1).
            seed: RNG seed; required for mergeability.
            bins: explicit ``K`` override (power of two >= 32).
            rough_counters: ``K_RE`` override.  The default is
                ``max(K_RE_paper, ceil(log2 n))`` — still ``O(log n)`` bits,
                but with a comfortably small failure probability at the
                finite ``n`` used in experiments (the paper's guarantee is
                asymptotic; see "Paper constructions and stand-ins" in
                ``docs/architecture.md``).
            offset_divisor: the rebasing constant ``c``; defaults to
                ``PRACTICAL_OFFSET_DIVISOR`` (see that attribute's note).
            rough_uniform_family: use the Lemma 5 (Pagh--Pagh) hash family
                inside the RoughEstimator.  This is the configuration the
                paper itself adopts for O(1) time; pass ``False`` for the
                ``2 K_RE``-wise polynomial family of Figure 2.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if not 0.0 < eps < 1.0:
            raise ParameterError("eps must lie in (0, 1)")
        self.universe_size = universe_size
        self.eps = eps
        self.seed = seed
        self.bins = bins if bins is not None else bins_for_eps(eps)
        self.offset_divisor = (
            offset_divisor if offset_divisor is not None else self.PRACTICAL_OFFSET_DIVISOR
        )
        rng = random.Random(seed)
        hash_seed = rng.randrange(1 << 62)
        core_seed = rng.randrange(1 << 62)
        if rough_counters is None:
            from .rough_estimator import rough_counter_count

            rough_counters = max(
                rough_counter_count(universe_size),
                int(math.ceil(math.log2(universe_size))),
            )
        self.hashes = F0HashBundle(universe_size, self.bins, eps_hint=eps, seed=hash_seed)
        self.small = SmallF0Estimator(self.hashes)
        self.core = KNWFigure3Sketch(
            universe_size,
            eps=eps,
            bins=self.bins,
            seed=core_seed,
            hashes=self.hashes,
            rough_counters=rough_counters,
            rough_uniform_family=rough_uniform_family,
            offset_divisor=self.offset_divisor,
        )

    def update(self, item: int) -> None:
        """Process one stream item (feeds both regimes, as the paper does).

        Both regimes read the item's ``h3(h2(.))`` from the bundle's
        one-entry memo, which is then cleared: scalar and batch ingestion
        of a stream leave the same bytes.
        """
        self.small.update(item)
        self.core.update(item)
        self.hashes.forget_last()

    def update_batch(self, items) -> None:
        """Vectorized ingestion of a chunk of items.

        Validates once, then works in :data:`BATCH_CHUNK` slices, so its
        temporaries stay bounded however long the call.  Each slice's
        ``h3(h2(.))`` is evaluated once, inside the kernel call that
        updates the Figure 3 counters and sets the small-F0 bits — the
        batch form of the hash-bundle sharing the paper prescribes (and
        of the scalar one-entry memo).  State after any batch partition
        is identical to the scalar loop's (see
        :meth:`KNWFigure3Sketch.update_batch` for the one FAIL-timing
        caveat, whose chunks these slices are).
        """
        keys = as_key_array(items, self.universe_size)
        bits = self.small._bits
        buffer = bits.byte_view()
        for start in range(0, len(keys), BATCH_CHUNK):
            chunk = keys[start : start + BATCH_CHUNK]
            self.small.admit(chunk)
            self.core._ingest_chunk(chunk, buffer)
        bits.recount()

    def estimate(self) -> float:
        """Return the current ``(1 +/- eps)`` estimate of F0.

        Uses the Theorem 4 handover: the small-F0 estimate until it
        declares LARGE, then the Figure 3 estimate.  If the Figure 3 sketch
        has FAILed (probability <= 1/32), the small-regime estimate is the
        best remaining information and is returned instead of raising, so a
        single ``KNWDistinctCounter`` always produces a number; callers who
        need the amplified guarantee wrap it in
        :class:`repro.estimators.median.MedianEstimator`.
        """
        if not self.small.is_large():
            return self.small.estimate()
        try:
            return self.core.estimate()
        except SketchFailure:
            return self.small.estimate()

    def merge(self, other: "CardinalityEstimator") -> None:
        """Merge a same-seed, same-parameter counter (union of streams)."""
        if not isinstance(other, KNWDistinctCounter):
            raise MergeError("can only merge KNWDistinctCounter with its own kind")
        if (
            self.universe_size != other.universe_size
            or self.bins != other.bins
            or self.seed is None
            or self.seed != other.seed
        ):
            raise MergeError(
                "KNW counters can only be merged when built with identical "
                "parameters and an identical, explicit seed"
            )
        self.small.merge(other.small)
        self.core.merge(other.core)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space budget (hash bundle charged once)."""
        breakdown = SpaceBreakdown(self.name)
        breakdown.add("hash-bundle", self.hashes.space_bits())
        breakdown.add("small-f0", self.small.space_bits())
        breakdown.add("figure3-core", self.core.space_bits())
        return breakdown

    def space_bits(self) -> int:
        """Return the estimator's total space in bits."""
        return self.space_breakdown().total()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "KNWDistinctCounter(universe_size=%d, eps=%g, bins=%d)"
            % (self.universe_size, self.eps, self.bins)
        )
