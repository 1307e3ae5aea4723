"""Serialization round-trips: the transport contract of the sharded engine.

For every estimator in the registry (and the median amplification
wrappers), ``load_state_dict(state_dict())`` and ``from_bytes(to_bytes())``
must reproduce the sketch *bit-identically*: equal snapshots, equal
estimates, equal byte encodings — and, the strongest form, identical
behaviour under **further ingestion**, which requires the revived sketch
to restore internal aliasing exactly (e.g. the single ``random.Random``
shared by the three RoughEstimator copies' lazily materialised hash
functions).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.rough_estimator import FastRoughEstimator
from repro.estimators.base import CardinalityEstimator, TurnstileEstimator
from repro.estimators.median import MedianEstimator, MedianTurnstileEstimator
from repro.estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from repro.exceptions import SerializationError
from repro.serialize import FORMAT_MAGIC, FORMAT_VERSION, dumps, loads, snapshot

UNIVERSE = 1 << 20
MAGNITUDE = 1 << 16


def _f0_items(count, seed):
    return np.random.RandomState(seed).randint(0, UNIVERSE, size=count).astype(np.uint64)


def _assert_plain_tree(node):
    """state_dict() must contain only plain values (the documented contract)."""
    if node is None or isinstance(node, (bool, int, float, str, bytes)):
        return
    if isinstance(node, list):
        for entry in node:
            _assert_plain_tree(entry)
        return
    if isinstance(node, dict):
        for key, entry in node.items():
            assert isinstance(key, str)
            _assert_plain_tree(entry)
        return
    raise AssertionError("state_dict leaked a %r" % type(node).__name__)


@pytest.mark.parametrize("name", f0_algorithm_names())
def test_f0_round_trip_bit_identical(name):
    estimator = make_f0_estimator(name, UNIVERSE, 0.1, seed=11)
    estimator.update_batch(_f0_items(2500, seed=3))
    state = estimator.state_dict()
    _assert_plain_tree(state)
    blob = estimator.to_bytes()

    revived = CardinalityEstimator.from_bytes(blob)
    assert type(revived) is type(estimator)
    assert revived.state_dict() == state
    assert revived.estimate() == estimator.estimate()
    assert revived.to_bytes() == blob

    # The strongest check: the revived sketch must keep *behaving*
    # identically, which catches broken aliasing of shared components.
    extra = _f0_items(1500, seed=5)
    estimator.update_batch(extra)
    revived.update_batch(extra)
    assert revived.state_dict() == estimator.state_dict()
    assert revived.estimate() == estimator.estimate()


@pytest.mark.parametrize("name", f0_algorithm_names())
def test_f0_load_state_dict_into_fresh_instance(name):
    source = make_f0_estimator(name, UNIVERSE, 0.1, seed=23)
    source.update_batch(_f0_items(2000, seed=7))
    target = make_f0_estimator(name, UNIVERSE, 0.1, seed=24)  # different seed on purpose
    target.load_state_dict(source.state_dict())
    assert target.state_dict() == source.state_dict()
    assert target.estimate() == source.estimate()


@pytest.mark.parametrize("name", l0_algorithm_names())
def test_l0_round_trip_bit_identical(name):
    estimator = make_l0_estimator(name, UNIVERSE, 0.2, MAGNITUDE, seed=13)
    items = _f0_items(1200, seed=9)
    estimator.update_batch(items, [1] * len(items))
    estimator.update_batch(items[:400], [-1] * 400)
    state = estimator.state_dict()
    _assert_plain_tree(state)
    blob = estimator.to_bytes()

    revived = TurnstileEstimator.from_bytes(blob)
    assert type(revived) is type(estimator)
    assert revived.state_dict() == state
    assert revived.estimate() == estimator.estimate()
    assert revived.to_bytes() == blob

    extra = _f0_items(600, seed=15)
    estimator.update_batch(extra, [1] * len(extra))
    revived.update_batch(extra, [1] * len(extra))
    assert revived.state_dict() == estimator.state_dict()
    assert revived.estimate() == estimator.estimate()


def test_median_wrapper_round_trips():
    wrapper = MedianEstimator(
        lambda index: make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=40 + index),
        repetitions=5,
    )
    wrapper.update_batch(_f0_items(2000, seed=21))
    revived = MedianEstimator.from_bytes(wrapper.to_bytes())
    assert revived.state_dict() == wrapper.state_dict()
    assert revived.estimate() == wrapper.estimate()
    assert revived.repetitions == wrapper.repetitions

    turnstile = MedianTurnstileEstimator(
        lambda index: make_l0_estimator(
            "knw-l0", UNIVERSE, 0.2, MAGNITUDE, seed=50 + index
        ),
        repetitions=3,
    )
    items = _f0_items(700, seed=22)
    turnstile.update_batch(items, [1] * len(items))
    revived = MedianTurnstileEstimator.from_bytes(turnstile.to_bytes())
    assert revived.state_dict() == turnstile.state_dict()
    assert revived.estimate() == turnstile.estimate()


def test_fast_rough_estimator_round_trip():
    estimator = FastRoughEstimator(UNIVERSE, seed=37)
    estimator.update_batch(_f0_items(1200, seed=39))
    revived = FastRoughEstimator.from_bytes(estimator.to_bytes())
    assert revived.state_dict() == estimator.state_dict()
    assert revived.estimate() == estimator.estimate()


def test_shared_hash_bundle_aliasing_restored():
    """KNW shares one F0HashBundle between the small-F0 and Figure 3
    regimes; the revived sketch must share a single bundle object too."""
    estimator = make_f0_estimator("knw", UNIVERSE, 0.1, seed=41)
    estimator.update_batch(_f0_items(2000, seed=43))
    revived = CardinalityEstimator.from_bytes(estimator.to_bytes())
    assert revived.hashes is revived.small.hashes
    assert revived.hashes is revived.core.hashes


def test_framing_rejects_garbage():
    estimator = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=1)
    blob = estimator.to_bytes()
    assert blob[: len(FORMAT_MAGIC)] == FORMAT_MAGIC
    assert blob[len(FORMAT_MAGIC)] == FORMAT_VERSION

    with pytest.raises(SerializationError):
        loads(b"NOPE" + blob[4:])
    with pytest.raises(SerializationError):
        loads(blob[: len(blob) // 2])  # truncation
    with pytest.raises(SerializationError):
        loads(blob[: len(FORMAT_MAGIC)] + bytes([FORMAT_VERSION + 1]) + blob[5:])
    with pytest.raises(SerializationError):
        loads(blob + b"trailing")


def test_from_bytes_enforces_class():
    hll = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=1)
    blob = hll.to_bytes()
    from repro.baselines.kmv import KMinimumValues

    with pytest.raises(SerializationError):
        KMinimumValues.from_bytes(blob)
    # The base class accepts any member of its family.
    assert CardinalityEstimator.from_bytes(blob).estimate() == hll.estimate()


def test_load_state_dict_enforces_class():
    hll = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=1)
    kmv = make_f0_estimator("kmv", UNIVERSE, 0.1, seed=1)
    with pytest.raises(SerializationError):
        kmv.load_state_dict(hll.state_dict())


def test_payload_cannot_name_classes_outside_the_package():
    hll = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=1)
    state = snapshot(hll)
    state["__object__"] = "os:system"
    with pytest.raises(SerializationError):
        loads(dumps(None, state=state))


def test_snapshot_rejects_unsupported_state():
    hll = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=1)
    hll._rogue = lambda: None  # a callable is not serializable state
    with pytest.raises(SerializationError):
        hll.state_dict()


def test_state_dict_equality_is_insertion_order_insensitive():
    """Two sketches holding equal dict/set state built in different orders
    must snapshot identically — the property the shard-merge equivalence
    relies on."""
    a = make_f0_estimator("kmv", UNIVERSE, 0.1, seed=3)
    b = make_f0_estimator("kmv", UNIVERSE, 0.1, seed=3)
    items = _f0_items(1000, seed=45)
    a.update_batch(items)
    b.update_batch(items[::-1].copy())
    assert a.state_dict() == b.state_dict()


def test_scalar_and_batch_ingested_sketches_serialize_identically():
    scalar = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=47)
    batched = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=47)
    items = _f0_items(1500, seed=49)
    for item in items.tolist():
        scalar.update(item)
    batched.update_batch(items)
    assert scalar.to_bytes() == batched.to_bytes()


def test_round_trip_through_random_stream_positions():
    """Serialize mid-stream at random cut points; resuming from bytes must
    match never-serialized ingestion."""
    rng = random.Random(51)
    items = _f0_items(4000, seed=53)
    reference = make_f0_estimator("knw", UNIVERSE, 0.1, seed=55)
    resumed = make_f0_estimator("knw", UNIVERSE, 0.1, seed=55)
    cursor = 0
    while cursor < len(items):
        take = rng.randrange(1, 700)
        chunk = items[cursor : cursor + take]
        reference.update_batch(chunk)
        resumed.update_batch(chunk)
        resumed = CardinalityEstimator.from_bytes(resumed.to_bytes())
        cursor += take
    assert resumed.state_dict() == reference.state_dict()
    assert resumed.estimate() == reference.estimate()


# ---------------------------------------------------------------------------
# Adversarial decoding: corrupted or truncated frames must fail *closed*.
# ---------------------------------------------------------------------------

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

_FUZZ_UNIVERSE = 1 << 10
_FUZZ_FAMILIES = [("f0", name) for name in f0_algorithm_names()] + [
    ("l0", name) for name in l0_algorithm_names()
]


@lru_cache(maxsize=None)
def _fuzz_blob(kind, name):
    """One small ingested sketch per registry family, encoded once."""
    if kind == "f0":
        estimator = make_f0_estimator(name, _FUZZ_UNIVERSE, 0.25, seed=61)
        items = np.random.RandomState(63).randint(0, _FUZZ_UNIVERSE, size=200)
        estimator.update_batch(items.astype(np.uint64))
    else:
        estimator = make_l0_estimator(name, _FUZZ_UNIVERSE, 0.25, 1 << 8, seed=61)
        items = np.random.RandomState(65).randint(0, _FUZZ_UNIVERSE, size=150)
        estimator.update_batch(items.astype(np.uint64), [1] * len(items))
    return estimator.to_bytes()


@pytest.mark.parametrize("kind,name", _FUZZ_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_frames_decode_or_raise_serialization_error(kind, name, data):
    """Byte-flip and truncation fuzzing over every registry family.

    The decoder's contract is all-or-nothing: any mutation of a valid
    frame either still decodes (a flip that the checksum happens to
    tolerate is acceptable) or raises exactly ``SerializationError`` —
    never ``KeyError``/``ValueError``/``struct.error``/recursion blowups
    from half-parsed trees.
    """
    blob = bytearray(_fuzz_blob(kind, name))
    mode = data.draw(st.sampled_from(("flip", "truncate", "both")))
    if mode in ("flip", "both"):
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
            blob[position] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    if mode in ("truncate", "both"):
        blob = blob[: data.draw(st.integers(min_value=0, max_value=max(0, len(blob) - 1)))]
    try:
        loads(bytes(blob))
    except SerializationError:
        pass
