"""Synthetic datasets modelled on the paper's motivating applications.

Section 1 of the paper motivates distinct-elements estimation with three
database/networking workloads; real traces of those workloads (Code Red
packet headers, search-engine query logs, warehouse table columns) are not
available offline, so this module synthesises workloads with the same
*structure* — the algorithms only ever see item identifiers, so matching
the identifier-multiplicity structure preserves the exercised behaviour
(see "Paper constructions and stand-ins" in ``docs/architecture.md``).

* :func:`packet_trace` — network flows: source/destination/port tuples with
  a configurable number of distinct flows, heavy-hitter flows, and an
  optional "scanning host" that touches many distinct destinations in a
  burst (the port-scan / DDoS-spread detection scenario).
* :func:`query_log` — search-engine queries with Zipf popularity and a
  long tail of one-off queries.
* :func:`table_column` — a relational column with a target number of
  distinct values and configurable null fraction / skew, the input to the
  query-optimizer application.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..exceptions import ParameterError
from .model import MaterializedStream, Update

__all__ = ["packet_trace", "query_log", "table_column", "FlowRecord"]


@dataclass(frozen=True)
class FlowRecord:
    """A synthetic packet header: the fields the network application hashes.

    Attributes:
        source: source address identifier.
        destination: destination address identifier.
        destination_port: destination port number.
    """

    source: int
    destination: int
    destination_port: int

    def flow_id(self, universe_size: int) -> int:
        """Map the (source, destination, port) triple into ``[0, universe_size)``.

        A fixed mixing function (not a random hash — the estimator supplies
        its own hashing) packs the fields and folds them into the universe.
        """
        packed = (self.source * 1_000_003 + self.destination) * 65_537 + self.destination_port
        return packed % universe_size


def packet_trace(
    universe_size: int,
    packets: int,
    distinct_flows: int,
    heavy_flow_fraction: float = 0.1,
    scanner_destinations: int = 0,
    seed: Optional[int] = None,
) -> Tuple[MaterializedStream, List[FlowRecord]]:
    """Synthesise a packet trace for the network-monitoring application.

    Args:
        universe_size: size of the flow-identifier universe.
        packets: number of packets in the trace (before the scan burst).
        distinct_flows: number of distinct (source, destination, port) flows.
        heavy_flow_fraction: fraction of flows that are "heavy" and receive
            most of the traffic (matching the usual flow-size skew).
        scanner_destinations: when positive, one extra source sends a single
            packet to this many distinct destinations at the end of the
            trace — the port-scan signature the application must detect via
            a jump in distinct flows.
        seed: RNG seed.

    Returns:
        ``(stream, flows)`` where ``stream`` is the insertion-only stream of
        flow identifiers and ``flows`` is the underlying list of records
        (useful for application-level reporting).
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if packets < 0:
        raise ParameterError("packets must be non-negative")
    if distinct_flows <= 0:
        raise ParameterError("distinct_flows must be positive")
    if not 0.0 <= heavy_flow_fraction <= 1.0:
        raise ParameterError("heavy_flow_fraction must lie in [0, 1]")
    if scanner_destinations < 0:
        raise ParameterError("scanner_destinations must be non-negative")
    rng = random.Random(seed)
    flows = [
        FlowRecord(
            source=rng.randrange(1 << 24),
            destination=rng.randrange(1 << 24),
            destination_port=rng.choice([80, 443, 53, 22, 25, rng.randrange(1024, 65536)]),
        )
        for _ in range(distinct_flows)
    ]
    heavy_count = max(1, int(round(distinct_flows * heavy_flow_fraction)))
    heavy_flows = flows[:heavy_count]
    records: List[FlowRecord] = []
    for index in range(packets):
        if index < distinct_flows:
            # Guarantee every flow appears at least once so the distinct
            # count is exactly distinct_flows.
            records.append(flows[index % distinct_flows])
        elif rng.random() < 0.8:
            records.append(rng.choice(heavy_flows))
        else:
            records.append(rng.choice(flows))
    scanner_source = rng.randrange(1 << 24)
    for _ in range(scanner_destinations):
        records.append(
            FlowRecord(
                source=scanner_source,
                destination=rng.randrange(1 << 24),
                destination_port=rng.randrange(1, 1024),
            )
        )
    updates = [Update(record.flow_id(universe_size), 1) for record in records]
    stream = MaterializedStream(updates, universe_size, name="packet-trace")
    return (stream, records)


def query_log(
    universe_size: int,
    queries: int,
    distinct_queries: int,
    skew: float = 1.05,
    seed: Optional[int] = None,
) -> MaterializedStream:
    """Synthesise a search-engine query log.

    Query popularity is Zipf-distributed over ``distinct_queries`` query
    identifiers, but every identifier is guaranteed to appear at least once
    so the ground-truth distinct count is exact.

    Args:
        universe_size: size of the query-identifier universe.
        queries: total number of log records.
        distinct_queries: number of distinct queries (must be <= queries).
        skew: Zipf exponent of the popularity distribution.
        seed: RNG seed.
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if distinct_queries <= 0:
        raise ParameterError("distinct_queries must be positive")
    if queries < distinct_queries:
        raise ParameterError("queries must be at least distinct_queries")
    if distinct_queries > universe_size:
        raise ParameterError("distinct_queries cannot exceed the universe size")
    if skew <= 0:
        raise ParameterError("skew must be positive")
    rng = random.Random(seed)
    identifiers = rng.sample(range(universe_size), distinct_queries)
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(distinct_queries)]
    total_weight = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total_weight
        cumulative.append(acc)

    def draw() -> int:
        u = rng.random()
        lo, hi = 0, distinct_queries - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return identifiers[lo]

    items = list(identifiers)
    items.extend(draw() for _ in range(queries - distinct_queries))
    rng.shuffle(items)
    return MaterializedStream(
        [Update(item, 1) for item in items], universe_size, name="query-log"
    )


def table_column(
    universe_size: int,
    rows: int,
    distinct_values: int,
    null_fraction: float = 0.0,
    seed: Optional[int] = None,
    name: str = "table-column",
) -> MaterializedStream:
    """Synthesise a relational column for the query-optimizer application.

    Args:
        universe_size: size of the value universe (e.g. the domain of a key).
        rows: number of rows in the column.
        distinct_values: number of distinct non-null values; the optimizer's
            job is to estimate this from a single pass.
        null_fraction: fraction of rows that are NULL (skipped by the
            estimator, as real systems skip NULLs for NDV statistics).
        seed: RNG seed.
        name: label for reports.
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    if rows <= 0:
        raise ParameterError("rows must be positive")
    if not 0 < distinct_values <= min(rows, universe_size):
        raise ParameterError("distinct_values must lie in (0, min(rows, universe_size)]")
    if not 0.0 <= null_fraction < 1.0:
        raise ParameterError("null_fraction must lie in [0, 1)")
    rng = random.Random(seed)
    values = rng.sample(range(universe_size), distinct_values)
    non_null_rows = rows - int(round(rows * null_fraction))
    non_null_rows = max(non_null_rows, distinct_values)
    items = list(values)
    items.extend(rng.choice(values) for _ in range(non_null_rows - distinct_values))
    rng.shuffle(items)
    return MaterializedStream(
        [Update(item, 1) for item in items], universe_size, name=name
    )
