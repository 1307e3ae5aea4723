"""Network traffic monitoring: distinct flows, port scans, and worm spread.

The paper's second motivating application (Estan et al., Akella et al.):
a router tracks the number of distinct destination IPs, source/destination
pairs, or flows on a link with a small, constant-time-per-packet sketch.
A sudden jump in distinct destinations contacted by one source is the
signature of a port scan; a jump in distinct sources hitting one service
is the signature of a DDoS or worm spread (the Code Red measurement the
paper cites).

:class:`FlowCardinalityMonitor` keeps one *sliding-window ring* of KNW
sketches per tracked dimension (:class:`repro.window.windowed
.WindowedSketch`): each reporting window is an epoch, closed epochs stay
queryable for ``window_history`` windows, and "distinct flows over the
last ``k`` windows" is answered by exact merge-rollup
(:meth:`distinct_flows_last`) instead of the old reset-and-forget
per-window scalars.  The per-source fan-out detector rides the same
ring as a :class:`repro.window.windowed.WindowedSketchStore` of
linear-counting bitmaps, so scan fan-outs are queryable over multi-window
spans too.  With ``track_active_flows=True`` the monitor additionally
maintains a turnstile L0 sketch of the *currently open* flows (flow-open
events insert, flow-close events delete), fed through the vectorized
turnstile batch pipeline — the paper's Section 4 deletion capability as
a monitoring feature.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..core.fast_knw import FastKNWDistinctCounter
from ..core.knw import KNWDistinctCounter
from ..estimators.base import SerializableState
from ..exceptions import ParameterError, PersistenceError
from ..l0.knw_l0 import KNWHammingNormEstimator
from ..parallel import parallel_ingest_into
from ..store import LinearCountingSketchArray, SketchStore
from ..streams.datasets import FlowRecord
from ..vectorize import np
from ..window import WindowedSketch, WindowedSketchStore

__all__ = ["FlowCardinalityMonitor", "WindowReport"]


@dataclass
class WindowReport:
    """Per-window summary emitted when the monitor rolls its window.

    Attributes:
        window_index: 0-based index of the completed window.
        packets: packets observed in the window.
        distinct_flows: estimated distinct (src, dst, port) flows.
        distinct_sources: estimated distinct source addresses.
        distinct_destinations: estimated distinct destination addresses.
        scan_suspects: sources whose per-window destination fan-out
            exceeded the scan threshold.
    """

    window_index: int
    packets: int
    distinct_flows: float
    distinct_sources: float
    distinct_destinations: float
    scan_suspects: List[int]


class FlowCardinalityMonitor(SerializableState):
    """Streaming monitor of distinct-flow statistics over packet windows.

    Each reporting window is one epoch of four sliding-window rings
    (flows, sources, destinations, per-source fan-out); completed windows
    stay queryable for ``window_history`` windows via the rolling
    ``*_last(k)`` methods, answered by exact merge-rollup rather than by
    re-observing any traffic.

    With ``persist_dir=`` the monitor becomes durable: every observed
    packet batch and window roll is write-ahead logged through a
    :class:`~repro.durability.Checkpointer` before it is acknowledged,
    a full snapshot is taken at each window roll (sealing and compacting
    the log), and constructing over a non-empty directory *recovers* —
    the new monitor resumes bit-identically from the last durably
    acknowledged record, mid-window state included.  :attr:`last_recovery`
    carries the :class:`~repro.durability.RecoveryReport` of that
    construction-time recovery (``None`` on a fresh directory).

    Attributes:
        universe_size: size of the identifier universe flows are folded into.
        eps: relative-error target for the sketches.
        scan_fanout_threshold: per-source distinct-destination count above
            which the source is flagged as a scan suspect.
        window_history: windows retained per ring (open window included).
    """

    #: Replay methods :func:`repro.durability.checkpoint.apply_delta` may
    #: invoke from ``op == "call"`` log records.  Everything the durable
    #: monitor mutates goes through exactly these three, so the log is a
    #: complete transcript of the monitor's evolution.
    WAL_METHODS = ("_wal_packets", "_wal_roll", "_wal_flow_events")

    #: Runtime-only attributes excluded from snapshots: the checkpointer
    #: holds an open log (unserializable by design), and the recovery
    #: report describes *this process's* startup, not monitor state.
    _EPHEMERAL = ("_checkpointer", "_recovery_report")

    #: Class-level defaults so revived instances (whose snapshots never
    #: contain the ephemeral fields) still resolve the attributes.
    _checkpointer: Optional[Any] = None
    _recovery_report: Optional[Any] = None

    def __init__(
        self,
        universe_size: int = 1 << 20,
        eps: float = 0.05,
        window_packets: int = 10_000,
        scan_fanout_threshold: int = 256,
        seed: int = 1,
        mergeable: bool = False,
        track_active_flows: bool = False,
        window_history: int = 8,
        persist_dir: Optional[str] = None,
    ) -> None:
        """Create the monitor.

        Args:
            universe_size: identifier universe for the sketches.
            eps: relative-error target.
            window_packets: number of packets per reporting window.
            scan_fanout_threshold: distinct-destination fan-out that flags a
                source as a likely scanner within one window.
            seed: RNG seed for all sketches.
            mergeable: build the per-window sketches as mergeable
                :class:`~repro.core.knw.KNWDistinctCounter` instances
                instead of the O(1)-time fast variant (which does not
                merge).  Required for :meth:`ingest_window_shards` (the
                per-link sharded deployment where several taps' traffic
                is union-counted) and for the multi-window rolling
                queries (:meth:`distinct_flows_last` with ``k > 1``).
            track_active_flows: additionally maintain a turnstile L0
                sketch of the *currently open* flows — flow-open events
                insert, flow-close events delete — queried via
                :meth:`active_flow_estimate`.  The sketch is long-lived
                (it does not roll with the packet windows: a flow opened
                in one window may close many windows later), which is
                exactly why the deletion path needs the L0 machinery
                rather than an F0 sketch.
            window_history: number of reporting windows each sliding ring
                retains (the open window included); the rolling queries
                accept any width up to this.
            persist_dir: durably log every mutation to this directory
                (write-ahead log + per-window snapshots).  A non-empty
                directory is *recovered from* instead of overwritten:
                the construction parameters are replaced by the persisted
                monitor's state and ingestion resumes where the log ends.
                Incompatible with :meth:`ingest_window_shards` (in-place
                parallel merges bypass the log).  Call :meth:`close` (or
                use the monitor as a context manager) to release the
                directory lock.
        """
        if window_packets <= 0:
            raise ParameterError("window_packets must be positive")
        if scan_fanout_threshold <= 0:
            raise ParameterError("scan_fanout_threshold must be positive")
        if window_history <= 0:
            raise ParameterError("window_history must be positive")
        self.universe_size = universe_size
        self.eps = eps
        self.window_packets = window_packets
        self.scan_fanout_threshold = scan_fanout_threshold
        self.mergeable = mergeable
        self.window_history = window_history
        self._seed = seed
        self._window_index = 0
        self._packets_in_window = 0
        self._reports: List[WindowReport] = []
        self._active_flows: Optional[KNWHammingNormEstimator] = None
        if track_active_flows:
            self._active_flows = KNWHammingNormEstimator(
                universe_size, eps=eps, seed=seed + 4
            )
        if mergeable:
            # Figure 2's polynomial rough-estimator family (the paper's
            # 8-approximation); per-link sharded windows are bit-identical
            # to observing the union serially, and window rollups merge
            # exactly.
            def sketch(sketch_seed):
                return KNWDistinctCounter(
                    universe_size,
                    eps=eps,
                    seed=sketch_seed,
                    rough_uniform_family=False,
                )
        else:
            def sketch(sketch_seed):
                return FastKNWDistinctCounter(
                    universe_size, eps=eps, seed=sketch_seed
                )
        # One sliding-window ring per tracked dimension: each reporting
        # window is one epoch, so closed windows stay queryable as exact
        # merge-rollups for window_history windows instead of being
        # thrown away at every roll.
        self._flows = WindowedSketch(sketch(seed), retention=window_history)
        self._sources = WindowedSketch(sketch(seed + 1), retention=window_history)
        self._destinations = WindowedSketch(
            sketch(seed + 2), retention=window_history
        )
        # Per-source fan-out bitmaps are intentionally tiny: the detector
        # only needs to notice fan-outs in the hundreds, so a small
        # linear-counting bitmap per active source suffices.  They live in
        # a keyed sketch store — one (sources x bits) bit-plane matrix per
        # window epoch — so a window's whole packet batch updates every
        # active source's bitmap in one grouped vectorized sweep instead
        # of one Python call per source.
        self._fanout_bits = max(8 * scan_fanout_threshold, 1024)
        self._fanout_store = WindowedSketchStore(
            SketchStore(
                LinearCountingSketchArray(
                    universe_size, bits=self._fanout_bits, seed=seed + 3
                )
            ),
            retention=window_history,
        )
        self._checkpointer = None
        self._recovery_report = None
        if persist_dir is not None:
            self._attach_persistence(persist_dir)

    # -- durable persistence --------------------------------------------------

    def _attach_persistence(self, persist_dir: str) -> None:
        """Open (or recover) the durable log and bind it to this instance."""
        from ..durability import Checkpointer

        checkpointer, report = Checkpointer.open(persist_dir, lambda: self)
        if checkpointer.target is not self:
            # The directory held prior state: adopt the recovered monitor
            # wholesale (its sketches ARE the durable state) and point the
            # checkpointer back at this instance.
            recovered = checkpointer.target
            if type(recovered) is not FlowCardinalityMonitor:
                checkpointer.close()
                raise PersistenceError(
                    "persist_dir %r holds a durable %s, not a "
                    "FlowCardinalityMonitor"
                    % (persist_dir, type(recovered).__name__)
                )
            self.__dict__.clear()
            self.__dict__.update(recovered.__dict__)
            checkpointer.target = self
        self._checkpointer = checkpointer
        self._recovery_report = report

    @property
    def persistent(self) -> bool:
        """Whether this monitor write-ahead logs to a durable directory."""
        return self._checkpointer is not None

    @property
    def last_recovery(self) -> Optional[Any]:
        """The construction-time :class:`~repro.durability.RecoveryReport`.

        ``None`` for a non-persistent monitor or a fresh directory.
        """
        return self._recovery_report

    @contextmanager
    def _detached(self):
        """Temporarily strip runtime-only fields for snapshot capture."""
        stash = {
            name: self.__dict__.pop(name)
            for name in self._EPHEMERAL
            if name in self.__dict__
        }
        try:
            yield
        finally:
            self.__dict__.update(stash)

    def state_dict(self):
        with self._detached():
            return super().state_dict()

    def to_bytes(self) -> bytes:
        with self._detached():
            return super().to_bytes()

    def close(self) -> None:
        """Snapshot (if persistent) and release the durable-log lock."""
        if self._checkpointer is not None:
            self._checkpointer.snapshot()
            self._checkpointer.close()
            self._checkpointer = None

    def __enter__(self) -> "FlowCardinalityMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _packet_arrays(self, records: Sequence[FlowRecord]) -> Tuple[Any, ...]:
        """Extract the four WAL-record arrays for one in-window packet slice."""
        universe = self.universe_size
        count = len(records)
        return (
            np.fromiter(
                (record.flow_id(universe) for record in records),
                dtype=np.uint64,
                count=count,
            ),
            np.fromiter(
                (record.source % universe for record in records),
                dtype=np.uint64,
                count=count,
            ),
            np.fromiter(
                (record.destination % universe for record in records),
                dtype=np.uint64,
                count=count,
            ),
            np.fromiter(
                (record.source for record in records), dtype=np.int64, count=count
            ),
        )

    def _wal_packets(self, flow_ids, sources, destinations, raw_sources) -> None:
        """Replay method: ingest one in-window packet slice from log arrays."""
        if len(flow_ids):
            self._flows.update_batch(flow_ids)
            self._sources.update_batch(sources)
            self._destinations.update_batch(destinations)
            self._fanout_store.update_grouped(raw_sources, destinations)
        self._packets_in_window += len(flow_ids)

    def _wal_roll(self) -> None:
        """Replay method: close the current window."""
        self._roll_window()

    def _wal_flow_events(self, flow_ids, deltas) -> None:
        """Replay method: batched flow open/close events from log arrays."""
        self._require_active_flows().update_batch(flow_ids, deltas)

    def _close_window(self) -> WindowReport:
        """Roll the window, durably logging the roll when persistent."""
        if self._checkpointer is None:
            return self._roll_window()
        self._checkpointer.call("_wal_roll")
        # A window roll is the natural checkpoint: snapshot, seal the
        # segment, and compact, so recovery replays at most one window.
        self._checkpointer.snapshot()
        return self._reports[-1]

    def observe(self, record: FlowRecord) -> Optional[WindowReport]:
        """Process one packet header; returns a report when a window closes."""
        if self._checkpointer is not None:
            # Persistent monitors route scalars through the (bit-identical)
            # batched WAL path so live and replayed state match exactly.
            reports = self.observe_batch([record])
            return reports[0] if reports else None
        flow_id = record.flow_id(self.universe_size)
        self._flows.update(flow_id)
        self._sources.update(record.source % self.universe_size)
        self._destinations.update(record.destination % self.universe_size)
        self._fanout_store.update(
            record.source, record.destination % self.universe_size
        )

        self._packets_in_window += 1
        if self._packets_in_window >= self.window_packets:
            return self._roll_window()
        return None

    def observe_batch(self, records: Sequence[FlowRecord]) -> List[WindowReport]:
        """Process a chunk of packet headers at once.

        The batch counterpart of :meth:`observe`: equivalent to calling it
        per record (windows still roll at exactly ``window_packets``
        packets — the chunk is split at window boundaries), but the three
        per-window distinct-count sketches ingest each window slice through
        their vectorized ``update_batch``, and the whole slice updates the
        per-source fan-out store in one grouped vectorized sweep
        (:meth:`repro.store.store.SketchStore.update_grouped`).

        Args:
            records: packet headers in arrival order.

        Returns:
            The reports of every window completed within this batch (empty
            when no window boundary was crossed).
        """
        reports: List[WindowReport] = []
        position = 0
        total = len(records)
        while position < total:
            room = self.window_packets - self._packets_in_window
            window_slice = records[position : position + room]
            position += len(window_slice)
            if self._checkpointer is not None:
                # One WAL record per in-window slice: apply-then-log with
                # the decoded arrays (see Checkpointer._commit), so replay
                # reproduces this exact ingestion bit for bit.
                self._checkpointer.call(
                    "_wal_packets", *self._packet_arrays(window_slice)
                )
            else:
                self._observe_slice(window_slice)
                self._packets_in_window += len(window_slice)
            if self._packets_in_window >= self.window_packets:
                reports.append(self._close_window())
        return reports

    def _observe_slice(self, records: Sequence[FlowRecord]) -> None:
        """Ingest records known to fall inside the current window."""
        universe = self.universe_size
        flow_ids = np.fromiter(
            (record.flow_id(universe) for record in records),
            dtype=np.uint64,
            count=len(records),
        )
        sources = np.fromiter(
            (record.source % universe for record in records),
            dtype=np.uint64,
            count=len(records),
        )
        destinations = np.fromiter(
            (record.destination % universe for record in records),
            dtype=np.uint64,
            count=len(records),
        )
        self._flows.update_batch(flow_ids)
        self._sources.update_batch(sources)
        self._destinations.update_batch(destinations)
        self._observe_fanout(records)

    def ingest_window_shards(
        self,
        links: Sequence[Sequence[FlowRecord]],
        workers: Optional[int] = None,
    ) -> WindowReport:
        """Ingest one reporting window observed as per-link traffic shards.

        The distributed deployment of the paper's introduction: each
        network link (tap) contributes the packets it saw during the
        window, the links' packets are re-sharded by range, worker
        processes ingest the shards into same-seed sketch clones through
        the vectorized batch pipeline, and the union counts come from
        merge-reducing the shard sketches (:mod:`repro.parallel`).  The per-source fan-out detector runs on
        the coordinator over all links, since a scanning source's fan-out
        is only visible in the union.

        The whole call is one window: it closes with a report regardless
        of ``window_packets`` (links are unordered, so a mid-link window
        boundary would be ill-defined).  Requires ``mergeable=True`` and
        an empty current window.

        Args:
            links: one packet-record sequence per link.
            workers: worker processes (defaults to the CPUs the process
                may use — see :func:`repro.parallel.default_workers`).

        Returns:
            The completed window's report.
        """
        if not self.mergeable:
            raise ParameterError(
                "per-link sharded ingestion needs mergeable sketches; "
                "construct the monitor with mergeable=True"
            )
        if self._checkpointer is not None:
            raise ParameterError(
                "ingest_window_shards is incompatible with persist_dir: "
                "in-place parallel merges bypass the write-ahead log; "
                "ingest through observe_batch instead"
            )
        if self._packets_in_window:
            raise ParameterError(
                "ingest_window_shards expects an empty current window; "
                "flush() the partial window first"
            )
        universe = self.universe_size
        packets = sum(len(link) for link in links)

        def field_items(extract):
            values = (extract(record) for link in links for record in link)
            return np.fromiter(values, dtype=np.uint64, count=packets)

        fields = [
            (self._flows.current, field_items(lambda r: r.flow_id(universe))),
            (self._sources.current, field_items(lambda r: r.source % universe)),
            (
                self._destinations.current,
                field_items(lambda r: r.destination % universe),
            ),
        ]
        # The engine's persistent pool serves all three field sketches —
        # and every later window: pool startup is paid once per process,
        # not once per window (or per field).
        for sketch, items in fields:
            parallel_ingest_into(sketch, items, workers=workers)
        for link in links:
            self._observe_fanout(link)
        self._packets_in_window = packets
        return self._roll_window()

    # -- active-flow (deletion) tracking -------------------------------------------

    def _require_active_flows(self) -> KNWHammingNormEstimator:
        if self._active_flows is None:
            raise ParameterError(
                "active-flow tracking is off; construct the monitor with "
                "track_active_flows=True"
            )
        return self._active_flows

    def observe_flow_open(self, record: FlowRecord) -> None:
        """Record a flow-establishment event (e.g. a TCP SYN): ``x_flow += 1``."""
        if self._checkpointer is not None:
            self.observe_flow_events_batch([record], [1])
            return
        self._require_active_flows().update(record.flow_id(self.universe_size), 1)

    def observe_flow_close(self, record: FlowRecord) -> None:
        """Record a flow-teardown event (e.g. a FIN/RST): ``x_flow -= 1``."""
        if self._checkpointer is not None:
            self.observe_flow_events_batch([record], [-1])
            return
        self._require_active_flows().update(record.flow_id(self.universe_size), -1)

    def observe_flow_events_batch(
        self, records: Sequence[FlowRecord], deltas: Sequence[int]
    ) -> None:
        """Ingest a chunk of flow open/close events through the batched L0 path.

        The deletion-path counterpart of :meth:`observe_batch`: one signed
        delta per record (``+1`` open, ``-1`` close), driven through the
        vectorized turnstile ``update_batch`` pipeline — bit-identical to
        calling :meth:`observe_flow_open` / :meth:`observe_flow_close`
        per event, at batch throughput.
        """
        sketch = self._require_active_flows()
        if len(records) != len(deltas):
            raise ParameterError(
                "observe_flow_events_batch needs one delta per record"
            )
        universe = self.universe_size
        flow_ids = np.fromiter(
            (record.flow_id(universe) for record in records),
            dtype=np.uint64,
            count=len(records),
        )
        signed = np.asarray(deltas, dtype=np.int64)
        if self._checkpointer is not None:
            self._checkpointer.call("_wal_flow_events", flow_ids, signed)
            return
        sketch.update_batch(flow_ids, signed)

    def active_flow_estimate(self) -> float:
        """Return the estimated number of currently open flows (L0)."""
        return self._require_active_flows().estimate()

    def _observe_fanout(self, records: Sequence[FlowRecord]) -> None:
        """Feed the per-source fan-out store in one grouped vectorized sweep."""
        if not records:
            return
        universe = self.universe_size
        sources = np.fromiter(
            (record.source for record in records),
            dtype=np.int64,
            count=len(records),
        )
        destinations = np.fromiter(
            (record.destination % universe for record in records),
            dtype=np.uint64,
            count=len(records),
        )
        self._fanout_store.update_grouped(sources, destinations)

    def _roll_window(self) -> WindowReport:
        suspects = [
            source
            for source, estimate in self._fanout_store.estimate_current().items()
            if estimate >= self.scan_fanout_threshold
        ]
        report = WindowReport(
            window_index=self._window_index,
            packets=self._packets_in_window,
            distinct_flows=self._flows.estimate_current(),
            distinct_sources=self._sources.estimate_current(),
            distinct_destinations=self._destinations.estimate_current(),
            scan_suspects=sorted(suspects),
        )
        self._reports.append(report)
        self._window_index += 1
        self._packets_in_window = 0
        # The completed window stays queryable: rolling just advances the
        # four epoch rings (evicting beyond window_history).
        self._flows.advance_epoch()
        self._sources.advance_epoch()
        self._destinations.advance_epoch()
        self._fanout_store.advance_epoch()
        return report

    def flush(self) -> Optional[WindowReport]:
        """Close the current (possibly partial) window and return its report."""
        if self._packets_in_window == 0:
            return None
        return self._close_window()

    @property
    def reports(self) -> List[WindowReport]:
        """All window reports emitted so far."""
        return list(self._reports)

    def current_distinct_flows(self) -> float:
        """Return the running estimate of distinct flows in the open window."""
        return self._flows.estimate_current()

    # -- rolling multi-window queries ------------------------------------------------

    def retained_windows(self) -> int:
        """Number of windows currently queryable (the open one included)."""
        return self._flows.retained_epochs

    def distinct_flows_last(self, windows: int) -> float:
        """Estimate distinct flows over the newest ``windows`` windows.

        The open (partial) window counts as one; ``windows`` may reach
        :meth:`retained_windows`.  Widths above 1 merge-rollup the ring's
        closed epochs, which requires ``mergeable=True``.
        """
        return self._flows.estimate_window(windows)

    def distinct_sources_last(self, windows: int) -> float:
        """Estimate distinct source addresses over the newest ``windows`` windows."""
        return self._sources.estimate_window(windows)

    def distinct_destinations_last(self, windows: int) -> float:
        """Estimate distinct destination addresses over the newest ``windows`` windows."""
        return self._destinations.estimate_window(windows)

    def fanout_last(self, windows: int) -> dict:
        """Per-source distinct-destination fan-out over the newest ``windows`` windows.

        The multi-window scan view: a slow scanner that stays under the
        per-window threshold still accumulates fan-out across the rolled
        windows.  Returns every in-window source's estimate.
        """
        return self._fanout_store.estimate_window(windows)
