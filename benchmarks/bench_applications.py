"""E11 — Motivating applications (Section 1): end-to-end quality of the apps.

Runs the three database-domain applications on synthetic workloads with
known ground truth and reports estimation quality and footprint:

* query optimiser: per-column NDV error;
* network monitor: per-window distinct-flow error and scan detection;
* data cleaning: Hamming-distance error for similar/dissimilar column pairs.
"""

from __future__ import annotations

import random
import zlib

from conftest import emit, metric, record, run_once

from repro.analysis import Table, format_bits
from repro.analysis.metrics import relative_error
from repro.apps import ColumnStatisticsCollector, FlowCardinalityMonitor, SimilarColumnFinder
from repro.streams import packet_trace, table_column

UNIVERSE = 1 << 18


def test_query_optimizer_ndv_quality(benchmark):
    def experiment():
        collector = ColumnStatisticsCollector(
            ["low_card", "mid_card", "high_card"], UNIVERSE, eps=0.05, seed=4
        )
        truths = {}
        for name, distinct in (("low_card", 40), ("mid_card", 2_000), ("high_card", 12_000)):
            # A stable digest: str hashes are randomized per process.
            seed = zlib.crc32(name.encode()) % 1000
            column = table_column(UNIVERSE, rows=25_000, distinct_values=distinct, seed=seed)
            collector.ingest_column(name, [u.item for u in column])
            truths[name] = distinct
        rows = []
        for name, truth in truths.items():
            estimate = collector.ndv(name)
            rows.append((name, truth, estimate, relative_error(estimate, truth)))
        return rows, collector.space_bits()

    rows, space = run_once(benchmark, experiment)
    table = Table(
        "E11a: query-optimizer NDV statistics (eps=0.05, footprint %s)" % format_bits(space),
        ["column", "exact NDV", "estimated NDV", "rel. error"],
    )
    for name, truth, estimate, error in rows:
        table.add_row([name, truth, "%.0f" % estimate, "%.3f" % error])
    emit("E11a: query optimiser", table.render_text())
    record(
        "applications",
        dict(
            {
                "ndv_%s_error" % name: metric(error, "lower", "error")
                for name, _, _, error in rows
            },
            ndv_space_bits=metric(space, "lower", "space", "bits"),
        ),
        scale={"universe": UNIVERSE},
    )
    for _, _, _, error in rows:
        assert error < 0.2


def test_network_monitor_quality(benchmark):
    def experiment():
        stream, records = packet_trace(
            UNIVERSE, packets=20_000, distinct_flows=3_000, scanner_destinations=800, seed=6
        )
        monitor = FlowCardinalityMonitor(
            universe_size=UNIVERSE, eps=0.05, window_packets=50_000,
            scan_fanout_threshold=400, seed=2,
        )
        for record in records:
            monitor.observe(record)
        report = monitor.flush()
        return stream.ground_truth(), report

    truth, report = run_once(benchmark, experiment)
    error = relative_error(report.distinct_flows, truth)
    body = (
        "distinct flows: exact %d, estimated %.0f (rel. err %.3f)\n"
        "scan suspects flagged: %d (expected 1 scanning host)"
        % (truth, report.distinct_flows, error, len(report.scan_suspects))
    )
    emit("E11b: network monitor", body)
    record(
        "applications",
        {
            "monitor_distinct_flows_error": metric(error, "lower", "error"),
            "monitor_scan_suspects": metric(
                len(report.scan_suspects), "higher", "count"
            ),
        },
    )
    assert error < 0.25
    assert len(report.scan_suspects) >= 1


def test_data_cleaning_quality(benchmark):
    def experiment():
        rng = random.Random(13)
        base = [rng.randrange(UNIVERSE) for _ in range(6_000)]
        dirty = list(base)
        for position in rng.sample(range(6_000), 600):
            dirty[position] = rng.randrange(UNIVERSE)
        unrelated = [rng.randrange(UNIVERSE) for _ in range(6_000)]
        finder = SimilarColumnFinder(UNIVERSE, eps=0.1, seed=3)
        dirty_estimate = finder.pair_report_streaming(base, dirty)
        unrelated_estimate = finder.pair_report_streaming(base, unrelated)
        from collections import Counter

        def exact(left, right):
            difference = Counter(left)
            difference.subtract(Counter(right))
            return sum(1 for count in difference.values() if count != 0)

        return {
            "dirty": (exact(base, dirty), dirty_estimate),
            "unrelated": (exact(base, unrelated), unrelated_estimate),
        }

    results = run_once(benchmark, experiment)
    table = Table(
        "E11c: data cleaning — Hamming distance between column multisets",
        ["pair", "exact distance", "estimated distance", "rel. error"],
    )
    for pair, (truth, estimate) in results.items():
        table.add_row([pair, truth, "%.0f" % estimate, "%.3f" % relative_error(estimate, truth)])
    emit("E11c: data cleaning", table.render_text())
    record(
        "applications",
        {
            "cleaning_%s_error"
            % pair: metric(relative_error(estimate, truth), "lower", "error")
            for pair, (truth, estimate) in results.items()
        },
    )
    dirty_truth, dirty_estimate = results["dirty"]
    unrelated_truth, unrelated_estimate = results["unrelated"]
    assert relative_error(dirty_estimate, dirty_truth) < 0.35
    assert relative_error(unrelated_estimate, unrelated_truth) < 0.35
    assert dirty_estimate < unrelated_estimate
