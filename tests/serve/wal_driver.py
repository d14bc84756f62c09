"""Sacrificial subprocess for the kill -9 WAL crash schedules.

``test_wal_recovery.py`` spawns this script, which moves into its own
session (process group), lets it ingest a seeded write workload against
``EAGrServer(wal_dir=...)``, and then the *whole group* dies —
front-end, flusher thread, spawn workers — either by the script's own
``os.kill(0, SIGKILL)`` after N acknowledged batches, or earlier inside
an armed WAL fault (torn append, crash-after-append, crash inside
compaction, crash on either side of a group-commit fsync, crash during a
recovery replay).  Nothing here ever calls
``close()``: the only durable trace is the WAL directory plus the
progress file, which is exactly the contract under test.

Progress protocol — one JSON line per event, flushed *and fsynced*
before the action it promises, so the verifying test can reconstruct
what the dead process had acknowledged:

* ``["booted", {"recovered": N}]`` — server constructed (``N`` batches
  recovered from a prior epoch's WAL, 0 on a fresh directory).
* ``["subscribed", null]`` — the ``"watcher"`` subscription is live.
* ``["intent", [[node, value], ...]]`` — about to submit this batch.
* ``["ack", k]`` — ``write_batch`` returned for the k-th batch (it is
  durable: the server fsynced its ``W`` record before returning).
* ``["kill", null]`` — about to SIGKILL the process group.

An ``intent`` without a matching ``ack`` is the ambiguous in-flight
batch: the crash landed between submission and acknowledgement, and
recovery may legitimately surface either outcome.

Not a test module (no ``test_`` prefix); also imported by the verifier
for :func:`build_env`, so the workload is defined in exactly one place.
"""

import argparse
import json
import os
import random
import signal
import sys
from multiprocessing import resource_tracker

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

SUBSCRIBER = "watcher"


def build_env():
    """The deployment every driver phase and the verifying test share."""
    from repro.core.aggregates import Sum
    from repro.core.query import EgoQuery
    from repro.core.windows import TupleWindow
    from repro.graph.generators import random_graph

    graph = random_graph(14, 52, seed=41)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    return graph, query


def make_batches(seed, count, nodes):
    """The seeded workload: deterministic, so the verifier regenerates
    the exact batches from ``(seed, count)`` for its oracle replay."""
    rng = random.Random(seed)
    batches = []
    for _ in range(count):
        batches.append(
            [
                (rng.choice(nodes), float(rng.randint(1, 9)))
                for _ in range(2 + rng.randrange(4))
            ]
        )
    return batches


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--progress", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--executor", default="inprocess")
    parser.add_argument("--checkpoint-interval", type=int, default=3)
    parser.add_argument("--segment-bytes", type=int, default=None)
    parser.add_argument("--compact-bytes", type=int, default=None)
    # Armed WAL faults (all fire as a process-group SIGKILL out here):
    parser.add_argument("--torn-append-at", type=int, default=None)
    parser.add_argument("--crash-after-appends", type=int, default=None)
    parser.add_argument(
        "--crash-in-compact",
        choices=["before_replace", "after_replace"],
        default=None,
    )
    parser.add_argument("--crash-before-fsync", type=int, default=None)
    parser.add_argument("--crash-after-fsync", type=int, default=None)
    parser.add_argument("--crash-after-replay", type=int, default=None)
    args = parser.parse_args()

    # The multiprocessing resource tracker starts here, in the caller's
    # process group; the driver then leads a session of its own, so the
    # SIGKILL of that group (the driver and the workers it spawns) spares
    # the tracker, which unlinks the named semaphores they registered.
    resource_tracker.ensure_running()
    os.setsid()

    graph, query = build_env()
    nodes = sorted(graph.nodes())

    faults = {"exit": True}
    if args.torn_append_at is not None:
        faults["torn_append_at"] = args.torn_append_at
    if args.crash_after_appends is not None:
        faults["crash_after_appends"] = args.crash_after_appends
    if args.crash_in_compact is not None:
        faults["crash_in_compact"] = args.crash_in_compact
    if args.crash_before_fsync is not None:
        faults["crash_before_fsync"] = args.crash_before_fsync
    if args.crash_after_fsync is not None:
        faults["crash_after_fsync"] = args.crash_after_fsync
    if args.crash_after_replay is not None:
        faults["crash_after_replay_batches"] = args.crash_after_replay
    wal_options = {"faults": faults}
    if args.segment_bytes is not None:
        wal_options["segment_bytes"] = args.segment_bytes
    if args.compact_bytes is not None:
        wal_options["compact_min_bytes"] = args.compact_bytes

    progress = open(args.progress, "a")

    def record(kind, payload=None):
        progress.write(json.dumps([kind, payload]) + "\n")
        progress.flush()
        os.fsync(progress.fileno())

    from repro.serve import EAGrServer

    server = EAGrServer(
        graph,
        query,
        num_shards=2,
        executor=args.executor,
        overlay_algorithm="identity",
        dataflow="all_push",
        wal_dir=args.wal_dir,
        wal_options=wal_options,
        checkpoint_interval=args.checkpoint_interval,
        reply_timeout=60.0,
    )
    record("booted", {"recovered": server.recovered_batches})
    if not server._wal.recovered:
        # First epoch only: later phases inherit the persisted watches.
        server.subscribe(SUBSCRIBER, nodes)
        record("subscribed")

    for index, batch in enumerate(
        make_batches(args.seed, args.batches, nodes)
    ):
        record("intent", [[node, value] for node, value in batch])
        server.write_batch(batch)
        record("ack", index + 1)

    # Mid-ingest kill: acknowledged batches are durable in the WAL, but
    # outboxes, shard queues and workers are full of in-flight state —
    # exactly the window cold recovery must absorb.
    record("kill")
    os.kill(0, signal.SIGKILL)


if __name__ == "__main__":
    main()
