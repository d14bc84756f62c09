"""Resharding benchmark: partition quality and live-migration cost.

Two questions the elastic partitioning tier answers have a price,
measured here:

* **Partition quality.**  On seeded community graphs, the planned
  replication factor (mean shards per writer — the multicast write
  amplification of the hot path) for the balanced min-cut partitioner
  versus the BFS ``community_assignment`` heuristic it replaced and the
  stable-hash baseline, plus the min-cut's shard imbalance (max size
  over mean; the partitioner promises <= 1.25).
* **Live migration.**  An ``EAGrServer`` under a :class:`ZipfDriftSampler`
  workload whose hot set jumps mid-run: client-side throughput and
  write→notify p99 are sampled *before* the drift, *during* a live
  ``reshard()`` to the freshly re-optimized partition (the migration dip
  — writes keep flowing while shards checkpoint, splice and swap), and
  *after* it.  Final reads are verified against a never-resharded
  oracle before any number is accepted.

Results append to ``BENCH_reshard.json`` at the repo root so CI
accumulates the trajectory.  ``--smoke`` shrinks the workload and keeps
the acceptance assertions (min-cut strictly below both baselines,
balance bound, oracle-equal reads, server available through the
migration) as CI tripwires.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    from benchmarks._common import emit_table
except ImportError:  # script mode
    sys.path.insert(0, os.path.dirname(__file__))
    from _common import emit_table

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.partition import (
    _stable_hash,
    community_assignment,
    mincut_partition,
    planned_replication_factor,
    shard_sizes,
)
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import community_graph
from repro.serve import EAGrServer
from repro.serve.reshard import plan_from_assignment
from repro.workload.zipf import ZipfDriftSampler

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_reshard.json")

#: Same seeded configurations tests/core/test_partition.py defends.
QUALITY_CONFIGS = (
    dict(name="12x30", num_communities=12, community_size=30,
         intra_probability=0.5, inter_edges=40, seed=101, num_shards=5),
    dict(name="20x30", num_communities=20, community_size=30,
         intra_probability=0.6, inter_edges=60, seed=102, num_shards=4),
    dict(name="8x24", num_communities=8, community_size=24,
         intra_probability=0.5, inter_edges=24, seed=103, num_shards=4),
)

MIGRATION_SHARDS = 3
BATCH_SIZE = 16


def build_query():
    return EgoQuery(aggregate=Sum(), window=TupleWindow(1))


def bench_partition_quality():
    rows, records = [], []
    for config in QUALITY_CONFIGS:
        config = dict(config)
        name = config.pop("name")
        num_shards = config.pop("num_shards")
        graph = community_graph(**config)
        query = build_query()
        readers = list(graph.nodes())

        mincut = mincut_partition(graph, query, num_shards)
        community = {
            node: community_assignment(graph, num_shards)(node) % num_shards
            for node in readers
        }
        hashed = {node: _stable_hash(node) % num_shards for node in readers}

        rf = {
            "mincut": planned_replication_factor(graph, query, mincut),
            "community": planned_replication_factor(graph, query, community),
            "hash": planned_replication_factor(graph, query, hashed),
        }
        sizes = shard_sizes(mincut, num_shards)
        imbalance = max(sizes) / (sum(sizes) / num_shards)
        record = {
            "config": name,
            "num_shards": num_shards,
            "rf_mincut": round(rf["mincut"], 4),
            "rf_community": round(rf["community"], 4),
            "rf_hash": round(rf["hash"], 4),
            "mincut_vs_community": round(rf["community"] / rf["mincut"], 3),
            "mincut_imbalance": round(imbalance, 4),
        }
        records.append(record)
        rows.append([
            name, num_shards,
            f"{rf['mincut']:.3f}", f"{rf['community']:.3f}",
            f"{rf['hash']:.3f}", f"{record['mincut_vs_community']}x",
            f"{imbalance:.3f}",
        ])
    emit_table(
        "reshard_quality",
        "Planned replication factor (shards/writer) by partitioner",
        ["graph", "shards", "mincut", "community", "hash",
         "community/mincut", "imbalance"],
        rows,
    )
    return records


def probe_window(server, sub, batches):
    """Pump ``batches``; per batch, sample client-side write→notify
    latency (submit to first delivered notice).  Returns (eps, p99_ms)."""
    latencies = []
    events = 0
    started = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        server.write_batch(batch)
        events += len(batch)
        note = sub.get(timeout=30.0)
        if note is not None:
            latencies.append(time.perf_counter() - t0)
        while sub.poll():
            pass  # drain stragglers so the next sample is unambiguous
    elapsed = time.perf_counter() - started
    eps = events / elapsed if elapsed > 0 else 0.0
    p99 = (
        statistics.quantiles(latencies, n=100)[98]
        if len(latencies) >= 10
        else (max(latencies) if latencies else 0.0)
    )
    return round(eps), round(p99 * 1e3, 3)


def drift_batches(sampler, clock, count):
    """Seeded write batches from the sampler's current phase; values are
    fresh each write (TupleWindow(1) sums), so every batch notifies."""
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(BATCH_SIZE):
            clock[0] += 1.0
            batch.append((sampler.sample(), clock[0]))
        batches.append(batch)
    return batches


def bench_live_migration(batches_per_leg: int):
    graph = community_graph(
        num_communities=6, community_size=15, intra_probability=0.5,
        inter_edges=20, seed=201,
    )
    query = build_query()
    nodes = sorted(graph.nodes())
    period = batches_per_leg * BATCH_SIZE
    sampler = ZipfDriftSampler(
        nodes, alpha=1.2, seed=202, period=period, schedule="step"
    )
    clock = [0.0]
    server = EAGrServer(
        graph, query, num_shards=MIGRATION_SHARDS, executor="inprocess",
        overlay_algorithm="identity", dataflow="all_push",
    )
    applied = []
    try:
        sub = server.subscribe("bench-watch", nodes)
        rf_before = server.replication_factor

        # Phase 0 hot set: steady state on the boot-time partition.
        before_batches = drift_batches(sampler, clock, batches_per_leg)
        applied.extend(before_batches)
        before = probe_window(server, sub, before_batches)

        # The hot set jumps (schedule="step").  Re-run the partitioner
        # against the *new* phase's expected write frequencies and apply
        # the delta live while traffic keeps flowing.
        target = mincut_partition(
            graph, query, MIGRATION_SHARDS,
            write_freq=sampler.expected_frequencies(
                float(period), phase=sampler.phase
            ),
        )
        plan = plan_from_assignment(server, target)
        summary = {}

        def migrate():
            summary.update(server.reshard(plan))

        during_batches = drift_batches(sampler, clock, batches_per_leg)
        applied.extend(during_batches)
        migrator = threading.Thread(target=migrate)
        migrator.start()
        during = probe_window(server, sub, during_batches)
        migrator.join(timeout=120)
        assert not migrator.is_alive(), "migration never finished"

        after_batches = drift_batches(sampler, clock, batches_per_leg)
        applied.extend(after_batches)
        after = probe_window(server, sub, after_batches)

        server.drain()
        oracle = EAGrEngine(
            graph, query, overlay_algorithm="identity", dataflow="all_push"
        )
        for batch in applied:
            oracle.write_batch(batch)
        assert server.read_batch(nodes) == oracle.read_batch(nodes), (
            "live migration lost or duplicated writes"
        )

        result = {
            "num_shards": MIGRATION_SHARDS,
            "batches_per_leg": batches_per_leg,
            "batch_size": BATCH_SIZE,
            "moved_readers": summary.get("moved", 0),
            "partition_epoch": server.partition_epoch,
            "rf_planned_before": round(rf_before, 4),
            "rf_planned_after": round(server.replication_factor, 4),
            "rf_observed_after": round(server.observed_replication_factor, 4),
            "before": {"eps": before[0], "p99_ms": before[1]},
            "during": {"eps": during[0], "p99_ms": during[1]},
            "after": {"eps": after[0], "p99_ms": after[1]},
        }
    finally:
        server.close()

    emit_table(
        "reshard_migration",
        "Live migration under Zipf hot-set drift "
        f"[{MIGRATION_SHARDS} shards, step schedule]",
        ["leg", "events/s", "write→notify p99 (ms)"],
        [
            ["before", f"{result['before']['eps']:,}", result["before"]["p99_ms"]],
            ["during", f"{result['during']['eps']:,}", result["during"]["p99_ms"]],
            ["after", f"{result['after']['eps']:,}", result["after"]["p99_ms"]],
        ],
    )
    return result


def persist(results) -> None:
    history = []
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH) as handle:
                history = json.load(handle)
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(
        {
            "bench": "reshard",
            "timestamp": time.time(),
            "cpus": os.cpu_count(),
            "results": results,
        }
    )
    with open(JSON_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def main(argv):
    smoke = "--smoke" in argv
    batches_per_leg = 25 if smoke else 120
    quality = bench_partition_quality()
    migration = bench_live_migration(batches_per_leg)
    results = {"partition_quality": quality, "migration": migration}
    persist(results)
    worst = min(q["mincut_vs_community"] for q in quality)
    print(
        f"min-cut vs community (worst config): {worst}x lower replication; "
        f"migration moved {migration['moved_readers']} readers, "
        f"during-dip {migration['during']['eps']:,} ev/s vs "
        f"before {migration['before']['eps']:,} ev/s; "
        f"JSON -> {JSON_PATH}"
    )
    if smoke:
        # Acceptance tripwires.  The quality numbers are seeded and
        # deterministic; the throughput floor is deliberately loose
        # (shared-runner noise), tripping only on a real stall.
        for q in quality:
            assert q["rf_mincut"] < q["rf_community"], (
                f"{q['config']}: min-cut ({q['rf_mincut']}) lost to "
                f"community assignment ({q['rf_community']})"
            )
            assert q["rf_mincut"] < q["rf_hash"], (
                f"{q['config']}: min-cut lost to stable hash"
            )
            assert q["mincut_imbalance"] <= 1.25 + 0.05, (
                f"{q['config']}: imbalance {q['mincut_imbalance']} "
                f"breaks the 1.25x balance bound"
            )
        assert migration["moved_readers"] > 0, "the drift plan moved nothing"
        assert migration["partition_epoch"] == 1
        assert migration["during"]["eps"] > 0.1 * migration["before"]["eps"], (
            "writes effectively stalled during the live migration"
        )
        assert migration["after"]["eps"] > 0.2 * migration["before"]["eps"], (
            "throughput never recovered after the migration"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
