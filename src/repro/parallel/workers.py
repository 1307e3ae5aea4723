"""Worker-process bodies for the plan executor.

One module-level function, :func:`ingest_shard`, serves every shard
kind: the payload tells it how to revive the serialized worker-state
template, how to feed the shard, and what to ship back.  Module-level so
the process pool can import it by reference; payloads and results are
plain picklable values (bytes, arrays, tuples).

The payload also carries an optional *fault token* — the seam the
fault-injection tests (and chaos-style soak runs) use to make a specific
attempt of a specific shard raise or die.  Faults are attempt-scoped:
the executor stamps every payload with its attempt number, so a
"fail the first attempt" fault is deterministic and the retried attempt
succeeds, producing bytes identical to a zero-failure run.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .. import serialize
from ..exceptions import ParameterError

__all__ = ["ShardFault", "InjectedShardFault", "ingest_shard"]


@dataclass(frozen=True)
class ShardFault:
    """Fault-injection spec for one shard of a plan.

    Attributes:
        mode: ``"raise"`` (the worker raises mid-shard) or ``"kill"``
            (the worker process dies by SIGKILL, breaking the pool —
            only meaningful for pooled execution; in-process execution
            downgrades it to a raise so the coordinator survives).
        failures: how many attempts fail before the shard succeeds.
            The default of 1 models a transient fault; a value above
            the plan's retry budget models a permanent one.
    """

    mode: str = "raise"
    failures: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "kill"):
            raise ParameterError("fault mode must be 'raise' or 'kill'")
        if self.failures < 1:
            raise ParameterError("fault failures must be at least 1")


class InjectedShardFault(RuntimeError):
    """Raised by a worker whose payload carried a ``"raise"`` fault."""


def _trip_fault(fault: Optional[str], inline: bool) -> None:
    if fault is None:
        return
    if fault == "kill" and not inline:
        os.kill(os.getpid(), signal.SIGKILL)
    raise InjectedShardFault("injected shard fault (%s)" % fault)


def _feed_items(estimator, shard, batch_size: Optional[int]) -> None:
    if batch_size is None:
        values = shard.tolist() if hasattr(shard, "tolist") else shard
        for item in values:
            estimator.update(int(item))
        return
    if batch_size <= 0:
        raise ParameterError("batch_size must be positive")
    for start in range(0, len(shard), batch_size):
        estimator.update_batch(shard[start : start + batch_size])


def _feed_updates(estimator, shard, batch_size: Optional[int]) -> None:
    items, deltas = shard
    if batch_size is None:
        item_values = items.tolist() if hasattr(items, "tolist") else items
        delta_values = deltas.tolist() if hasattr(deltas, "tolist") else deltas
        for item, delta in zip(item_values, delta_values):
            estimator.update(int(item), int(delta))
        return
    if batch_size <= 0:
        raise ParameterError("batch_size must be positive")
    for start in range(0, len(items), batch_size):
        estimator.update_batch(
            items[start : start + batch_size], deltas[start : start + batch_size]
        )


def _feed_keyed(store, shard, batch_size: Optional[int]) -> None:
    keys, items, deltas = shard
    if batch_size is None:
        batch_size = len(items)
    if batch_size <= 0:
        raise ParameterError("batch_size must be positive")
    for start in range(0, len(items), batch_size):
        stop = start + batch_size
        store.update_grouped(
            keys[start:stop],
            items[start:stop],
            None if deltas is None else deltas[start:stop],
        )


def _build_epochs(
    template: bytes, shard, batch_size: Optional[int], meta: Tuple[str, bool]
) -> List[Tuple[int, bytes]]:
    """Build every epoch state of one epoch-range shard from the template.

    Each run revives the ring's empty epoch template and feeds it the
    run's updates through the shared chunking policy
    (:func:`repro.window.windowed.ingest_epoch_sketch`), so the shipped
    epoch states are byte-identical to the ones sequential ingestion
    would have built in place.
    """
    from ..window.windowed import ingest_epoch_sketch, ingest_epoch_store

    kind, turnstile = meta
    out: List[Tuple[int, bytes]] = []
    for run in shard:
        if kind == "store":
            epoch, keys, items, deltas = run
            built = ingest_epoch_store(template, keys, items, deltas, batch_size)
        else:
            epoch, items, deltas = run
            built = ingest_epoch_sketch(template, items, deltas, batch_size, turnstile)
        out.append((int(epoch), built.to_bytes()))
    return out


def ingest_shard(payload: Tuple) -> Any:
    """Worker body: revive the template, ingest one shard, ship the state.

    ``payload`` is ``(kind, template, shard, batch_size, meta, fault,
    inline)``:

    * kind ``"items"`` — revive the template estimator and feed an item
      array; returns the serialized shard sketch.
    * kind ``"updates"`` — same for a turnstile ``(items, deltas)``
      shard.  (The template arrives *already cleared* — additive merges
      must not re-count the coordinator's mid-stream state per shard.)
    * kind ``"keyed"`` — revive an empty store clone and feed a
      ``(keys, items, deltas)`` key-range shard grouped; returns the
      serialized shard store.
    * kind ``"epochs"`` — build each epoch run of an epoch-range shard
      from the ring's epoch template; returns ``[(epoch, bytes), ...]``.
    """
    kind, template, shard, batch_size, meta, fault, inline = payload
    _trip_fault(fault, inline)
    if kind == "epochs":
        return _build_epochs(template, shard, batch_size, meta)
    state = serialize.loads(template)
    if kind == "items":
        _feed_items(state, shard, batch_size)
    elif kind == "updates":
        _feed_updates(state, shard, batch_size)
    elif kind == "keyed":
        _feed_keyed(state, shard, batch_size)
    else:  # pragma: no cover - plans validate their kind
        raise ParameterError("unknown shard kind %r" % (kind,))
    return state.to_bytes()
