"""Median-of-repetitions probability amplification.

Every guarantee in the paper is stated with constant success probability
(2/3 for the headline results, 11/20 for the Figure 3 analysis) and then
amplified: "This probability can be amplified by independent repetition"
— run ``Theta(log(1/delta))`` independent copies and report the median
estimate.  This module provides that wrapper generically for both the F0
and L0 estimator interfaces, so any sketch in the library can be lifted to
a ``1 - delta`` success probability, and so the benchmarks can measure the
space/accuracy trade-off of amplification.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, List, Sequence

from ..exceptions import MergeError, ParameterError, SketchFailure
from .base import CardinalityEstimator, ItemBatch, TurnstileEstimator

__all__ = [
    "MedianEstimator",
    "MedianTurnstileEstimator",
    "repetitions_for_failure_probability",
]


def repetitions_for_failure_probability(delta: float, base_failure: float = 1.0 / 3.0) -> int:
    """Return how many independent copies the median trick needs.

    A Chernoff bound gives failure probability at most
    ``exp(-2 r (1/2 - base_failure)^2)`` for ``r`` repetitions, so
    ``r = ceil(ln(1/delta) / (2 (1/2 - base_failure)^2))`` suffices.
    The count is rounded up to the next odd integer so the median is a
    single repetition's output.

    Args:
        delta: target failure probability, in (0, 1).
        base_failure: failure probability of a single copy (< 1/2).
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    if not 0.0 < base_failure < 0.5:
        raise ParameterError("base_failure must lie in (0, 1/2)")
    gap = 0.5 - base_failure
    repetitions = int(math.ceil(math.log(1.0 / delta) / (2.0 * gap * gap)))
    repetitions = max(repetitions, 1)
    if repetitions % 2 == 0:
        repetitions += 1
    return repetitions


def _median_ignoring_failures(values: Sequence[float]) -> float:
    """Return the median of the values, dropping failed (None/NaN) copies."""
    usable: List[float] = [value for value in values if value == value]  # filters NaN
    if not usable:
        raise SketchFailure("every repetition of the sketch failed")
    return float(statistics.median(usable))


class MedianEstimator(CardinalityEstimator):
    """Median-of-k wrapper around any insertion-only F0 estimator.

    Attributes:
        repetitions: number of independent copies.
    """

    def __init__(
        self,
        factory: Callable[[int], CardinalityEstimator],
        repetitions: int,
    ) -> None:
        """Create the wrapper.

        Args:
            factory: callable taking a repetition index (usable as a seed
                offset) and returning a fresh, independently seeded
                estimator.
            repetitions: number of copies; must be a positive odd integer.
        """
        if repetitions <= 0:
            raise ParameterError("repetitions must be positive")
        if repetitions % 2 == 0:
            raise ParameterError("repetitions must be odd so the median is well defined")
        self.repetitions = repetitions
        self._copies: List[CardinalityEstimator] = [
            factory(index) for index in range(repetitions)
        ]
        self.name = "median-%dx-%s" % (repetitions, self._copies[0].name)
        self.requires_random_oracle = any(
            copy.requires_random_oracle for copy in self._copies
        )

    def update(self, item: int) -> None:
        """Feed the item to every copy."""
        for copy in self._copies:
            copy.update(item)

    def update_batch(self, items: ItemBatch) -> None:
        """Forward the whole batch to every copy.

        Without this override the wrapper would fall back to the base
        per-item loop and silently discard the copies' vectorized
        ``update_batch`` fast paths; forwarding preserves both the
        throughput and the batch/scalar equivalence contract (each copy
        guarantees it individually).
        """
        for copy in self._copies:
            copy.update_batch(items)

    def merge(self, other: "CardinalityEstimator") -> None:
        """Merge another median wrapper by merging the copies pairwise.

        Amplification commutes with stream union: copy ``i`` of both
        wrappers was built by the same factory with the same repetition
        index (hence the same seed derivation), so merging copy ``i``
        into copy ``i`` yields exactly the wrapper a single node would
        have produced over the concatenated stream.  Requires equal
        repetition counts; each pairwise merge further validates that the
        copies themselves are merge-compatible (same type, parameters,
        and explicit seed), so mismatched factories still fail loudly.
        """
        if not isinstance(other, MedianEstimator):
            raise MergeError("can only merge MedianEstimator with its own kind")
        if other.repetitions != self.repetitions:
            raise MergeError(
                "cannot merge median wrappers with %d vs %d repetitions"
                % (self.repetitions, other.repetitions)
            )
        for mine, theirs in zip(self._copies, other._copies):
            mine.merge(theirs)

    def estimate(self) -> float:
        """Return the median of the copies' estimates.

        Copies that raise :class:`SketchFailure` (the explicit FAIL output
        of Figure 3) are excluded from the median, matching how independent
        repetition recovers from individual failures.
        """
        values: List[float] = []
        for copy in self._copies:
            try:
                values.append(copy.estimate())
            except SketchFailure:
                values.append(float("nan"))
        return _median_ignoring_failures(values)

    def space_bits(self) -> int:
        """Return the summed space of all copies."""
        return sum(copy.space_bits() for copy in self._copies)

    @property
    def copies(self) -> Sequence[CardinalityEstimator]:
        """The underlying repetitions (read-only by convention)."""
        return self._copies


class MedianTurnstileEstimator(TurnstileEstimator):
    """Median-of-k wrapper around any turnstile L0 estimator."""

    def __init__(
        self,
        factory: Callable[[int], TurnstileEstimator],
        repetitions: int,
    ) -> None:
        """Create the wrapper (same contract as :class:`MedianEstimator`)."""
        if repetitions <= 0:
            raise ParameterError("repetitions must be positive")
        if repetitions % 2 == 0:
            raise ParameterError("repetitions must be odd so the median is well defined")
        self.repetitions = repetitions
        self._copies: List[TurnstileEstimator] = [
            factory(index) for index in range(repetitions)
        ]
        self.name = "median-%dx-%s" % (repetitions, self._copies[0].name)
        self.requires_nonnegative_frequencies = any(
            copy.requires_nonnegative_frequencies for copy in self._copies
        )

    def update(self, item: int, delta: int) -> None:
        """Feed the update to every copy."""
        for copy in self._copies:
            copy.update(item, delta)

    def merge(self, other: "TurnstileEstimator") -> None:
        """Merge another median wrapper by merging the copies pairwise.

        Same argument as :meth:`MedianEstimator.merge`: copy ``i`` of both
        wrappers came from the same factory with the same repetition
        index, so pairwise merging reproduces the single-node wrapper
        over the concatenated stream.  Each pairwise merge validates the
        copies' own compatibility (type, parameters, explicit seed).
        """
        if not isinstance(other, MedianTurnstileEstimator):
            raise MergeError(
                "can only merge MedianTurnstileEstimator with its own kind"
            )
        if other.repetitions != self.repetitions:
            raise MergeError(
                "cannot merge median wrappers with %d vs %d repetitions"
                % (self.repetitions, other.repetitions)
            )
        for mine, theirs in zip(self._copies, other._copies):
            mine.merge(theirs)

    def clear(self) -> None:
        """Clear every copy (see :meth:`TurnstileEstimator.clear`)."""
        for copy in self._copies:
            copy.clear()

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Forward the whole batch of signed updates to every copy.

        Same rationale as :meth:`MedianEstimator.update_batch`: without
        the override the wrapper would take the base scalar loop and lose
        the copies' batch paths.  Each copy re-validates the chunk; the
        first copy does so before mutating anything, so a malformed batch
        still leaves the wrapper untouched.
        """
        for copy in self._copies:
            copy.update_batch(items, deltas)

    def estimate(self) -> float:
        """Return the median of the copies' estimates (skipping failed copies)."""
        values: List[float] = []
        for copy in self._copies:
            try:
                values.append(copy.estimate())
            except SketchFailure:
                values.append(float("nan"))
        return _median_ignoring_failures(values)

    def space_bits(self) -> int:
        """Return the summed space of all copies."""
        return sum(copy.space_bits() for copy in self._copies)

    @property
    def copies(self) -> Sequence[TurnstileEstimator]:
        """The underlying repetitions (read-only by convention)."""
        return self._copies
