"""Sacrificial subprocess for the crash-mid-migration kill -9 schedules.

``test_reshard_faults.py`` spawns this script, which moves into its own
session (process group), lets it ingest a seeded workload against
``EAGrServer(wal_dir=...)``, then start a live ``reshard()`` with a
process-group SIGKILL armed at one of the migration's fault points —
``pre_checkpoint`` (quiesced, nothing handed over), ``pre_swap``
(checkpoints taken, splice prepared, routing still old) or
``post_swap`` (the WAL ``P`` record is durable, residue not yet
flushed) — or with no fault at all (the migration completes and the
kill lands mid-ingest afterwards).  Front-end, flusher thread and any
spawn workers all die together; the only durable trace is the WAL
directory plus the progress file.

Progress protocol (each line fsynced *before* the action it promises),
a superset of ``wal_driver.py``'s:

* ``["booted", {"recovered": N, "epoch": E}]`` — server constructed.
* ``["subscribed", null]`` — the ``"watcher"`` subscription is live.
* ``["intent", [[node, value], ...]]`` / ``["ack", k]`` — write batches.
* ``["reshard_intent", {"fault": point}]`` — about to call ``reshard``.
* ``["reshard_done", {"epoch": E}]`` — ``reshard`` returned (only when
  no fault was armed; an armed fault point never acks).
* ``["kill", null]`` — about to SIGKILL the process group.

Recovery's obligation: acknowledged batches survive exactly; the
partition epoch lands *entirely before or entirely after* the ``P``
record — old routing for pre-* kills, new routing for post-swap kills —
never a half-migrated hybrid.

Not a test module (no ``test_`` prefix); also imported by the verifier
for :func:`build_env` / :func:`make_plan`, so the workload and the
migration plan are each defined in exactly one place.
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
NUM_SHARDS = 3
FAULT_POINTS = ("pre_checkpoint", "pre_swap", "post_swap")


def build_env():
    """The deployment every driver phase and the verifying test share."""
    from repro.core.aggregates import Sum
    from repro.core.query import EgoQuery
    from repro.core.windows import TupleWindow
    from repro.graph.generators import random_graph

    graph = random_graph(18, 70, seed=61)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    return graph, query


def make_batches(seed, count, nodes):
    """Seeded workload, regenerated verbatim by the verifier's oracle."""
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


def make_plan(reader_shard, movers=4):
    """Deterministic migration: first ``movers`` shard-0 readers (by
    repr order) move to the last shard.  Pure function of the routing
    table, so the verifier reconstructs the expected post-swap table
    from the recovered (or freshly computed) pre-swap one."""
    moves = {}
    for node in sorted(reader_shard, key=repr):
        if reader_shard[node] == 0:
            moves[node] = NUM_SHARDS - 1
            if len(moves) >= movers:
                break
    return moves


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--progress", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--executor", default="inprocess")
    parser.add_argument("--pre-batches", type=int, default=4)
    parser.add_argument("--post-batches", type=int, default=3)
    parser.add_argument("--checkpoint-interval", type=int, default=100)
    parser.add_argument(
        "--fault-point", choices=FAULT_POINTS + ("none",), default="none"
    )
    args = parser.parse_args()

    # The multiprocessing resource tracker starts here, in the caller's
    # process group; the driver then leads a session of its own, so the
    # SIGKILL of that group (the driver and the workers it spawns) spares
    # the tracker, which unlinks the named semaphores they registered.
    resource_tracker.ensure_running()
    os.setsid()

    graph, query = build_env()
    nodes = sorted(graph.nodes())

    progress = open(args.progress, "a")

    def record(kind, payload=None):
        progress.write(json.dumps([kind, payload]) + "\n")
        progress.flush()
        os.fsync(progress.fileno())

    from repro.serve import EAGrServer

    server = EAGrServer(
        graph,
        query,
        num_shards=NUM_SHARDS,
        executor=args.executor,
        overlay_algorithm="identity",
        dataflow="all_push",
        wal_dir=args.wal_dir,
        checkpoint_interval=args.checkpoint_interval,
        reply_timeout=60.0,
    )
    record(
        "booted",
        {
            "recovered": server.recovered_batches,
            "epoch": server.partition_epoch,
        },
    )
    if not server._wal.recovered:
        server.subscribe(SUBSCRIBER, nodes)
        record("subscribed")

    batches = make_batches(args.seed, args.pre_batches + args.post_batches, nodes)
    acked = 0
    for batch in batches[: args.pre_batches]:
        record("intent", [[node, value] for node, value in batch])
        server.write_batch(batch)
        acked += 1
        record("ack", acked)

    plan = make_plan(server.reader_shard)
    if args.fault_point != "none":
        # The armed fault takes the whole group down from *inside* the
        # migration — front-end mid-protocol, workers mid-boot or
        # mid-teardown.  Nothing after this line runs.
        server.reshard_faults[args.fault_point] = lambda: os.kill(
            0, signal.SIGKILL
        )
    record("reshard_intent", {"fault": args.fault_point})
    server.reshard(plan)
    record("reshard_done", {"epoch": server.partition_epoch})

    for batch in batches[args.pre_batches :]:
        record("intent", [[node, value] for node, value in batch])
        server.write_batch(batch)
        acked += 1
        record("ack", acked)

    # Mid-ingest kill after a completed migration: the new partition's
    # in-flight state is exactly what cold recovery must absorb.
    record("kill")
    os.kill(0, signal.SIGKILL)


if __name__ == "__main__":
    main()
