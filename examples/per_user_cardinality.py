"""Per-user cardinality: a million-entity keyed sketch store.

Run with::

    python examples/per_user_cardinality.py

The serving-scale shape of the paper's motivating applications: a site
tracks, for every user, the number of distinct items (pages, songs,
peers) that user touched.  One sketch object per user would mean one
Python call per event; the keyed sketch store keeps every user's sketch
as one row of a struct-of-arrays register matrix and ingests the whole
event batch — ``(user_id, item_id)`` pairs — in one hash pass plus a
grouped scatter.

The script ingests a skewed synthetic event log, prints the top users by
estimated distinct items against their exact counts, demonstrates
store-level rollup (two ingest sites merging key-wise), and shows the
key-range sharded multi-process path.
"""

from __future__ import annotations

from repro import SketchStore, parallel_ingest_into
from repro.analysis import Table
from repro.streams import keyed_uniform_stream

UNIVERSE = 1 << 24
USERS = 100_000
EVENTS = 1_000_000
EPS = 0.1
SEED = 7


def main() -> None:
    workload = keyed_uniform_stream(
        UNIVERSE, key_count=USERS, length=EVENTS, distinct_per_key=256, seed=3
    )
    print(
        "Event log: %d events over <= %d users (universe 2^24)\n"
        % (len(workload), USERS)
    )

    # --- grouped ingestion ----------------------------------------------------
    store = SketchStore.for_family("hyperloglog", UNIVERSE, eps=EPS, seed=SEED)
    for keys, items in workload.iter_grouped_batches(1 << 17):
        store.update_grouped(keys, items)
    print(
        "Store: %d user sketches, %.1f MiB of register state"
        % (len(store), store.space_bits() / 8 / (1 << 20))
    )

    truth = workload.ground_truth()
    estimates = store.estimate_all()
    top = sorted(estimates, key=estimates.get, reverse=True)[:5]
    table = Table(
        "Top users by estimated distinct items (eps = %.2f)" % EPS,
        ["user", "estimate", "exact", "relative error"],
    )
    for user in top:
        exact = truth[user]
        table.add_row(
            [
                str(user),
                "%.0f" % estimates[user],
                str(exact),
                "%.3f" % (abs(estimates[user] - exact) / exact),
            ]
        )
    print(table.render_text())
    errors = [
        abs(estimates[user] - count) / count
        for user, count in truth.items()
        if count
    ]
    print(
        "Mean per-user relative error: %.3f over %d users\n"
        % (sum(errors) / len(errors), len(errors))
    )

    # --- store-level rollup ---------------------------------------------------
    # Two ingest sites observe disjoint halves of the traffic; their stores
    # merge key-wise into the union statistics (same family, same seed).
    half = EVENTS // 2
    site_a = store.spawn_empty()
    site_a.update_grouped(workload.keys[:half], workload.items[:half])
    site_b = store.spawn_empty()
    site_b.update_grouped(workload.keys[half:], workload.items[half:])
    site_a.merge_from(site_b)
    merged = site_a.estimate_all()
    print(
        "Rollup: two half-traffic stores merged key-wise; estimates identical "
        "to single-store ingestion: %s"
        % all(merged[user] == estimates[user] for user in estimates)
    )

    # --- key-range sharded multi-process ingestion ----------------------------
    sharded = store.spawn_empty()
    parallel_ingest_into(sharded, workload.items, keys=workload.keys, workers=4)
    sharded_estimates = sharded.estimate_all()
    print(
        "Sharded: 4-worker key-range ingest matches serial grouped ingest: %s"
        % all(sharded_estimates[user] == estimates[user] for user in estimates)
    )


if __name__ == "__main__":
    main()
