"""Crash-mid-migration: kill -9 at seeded points inside a live reshard.

Each schedule spawns ``reshard_driver.py`` in its own session (process
group) against ``EAGrServer(wal_dir=...)`` and SIGKILLs the whole tree —
front-end and workers — at one of the migration's fault points, or
after the migration completes.  The verifier then cold-boots from the
WAL and holds recovery to the migration's atomicity contract:

* **The partition epoch is all-or-nothing.**  A kill before the WAL
  ``P`` record (``pre_checkpoint``, ``pre_swap``) recovers the *old*
  routing table at epoch 0; a kill after it (``post_swap``, or the
  plain post-migration kill) recovers the *new* table at epoch 1.
  Never a hybrid.
* **Zero lost acknowledged batches**, same as the plain WAL schedules:
  recovered reads equal an oracle replay of a prefix covering every
  acked batch (the single in-flight intent may land either way).
* **Stamp-exact resumption** across the crash: the journal replays
  gap- and duplicate-free and live traffic splices in.

The in-process ``TestWorkerDeathMidMigration`` covers the other half of
the satellite: a *worker* (migration source or target) dying mid-
protocol while the front-end survives — ``reshard`` must surface a
:class:`ServeError`, leave the old partition intact, and let
``restart_shard`` + a retry finish the job.
"""

import json
import signal
import subprocess
import sys

import pytest

from repro.core.engine import EAGrEngine
from repro.serve import EAGrServer, ServeError

from tests.serve import reshard_driver
from tests.serve.faultlib import (
    assert_contiguous,
    assert_subsequence,
    collect,
    kill_shard,
    transitions_by_ego,
)

DRIVER = reshard_driver.__file__

# fault: where the SIGKILL lands; epoch: what recovery must report.
SCHEDULES = [
    dict(id="kill-pre-checkpoint", seed=6001, executor="inprocess",
         fault="pre_checkpoint", epoch=0),
    dict(id="kill-pre-swap", seed=6002, executor="inprocess",
         fault="pre_swap", epoch=0),
    dict(id="kill-post-swap", seed=6003, executor="inprocess",
         fault="post_swap", epoch=1),
    dict(id="kill-after-migration", seed=6004, executor="inprocess",
         fault="none", epoch=1),
    dict(id="kill-pre-swap-proc", seed=6005, executor="process",
         fault="pre_swap", epoch=0),
    dict(id="kill-post-swap-proc", seed=6006, executor="process",
         fault="post_swap", epoch=1),
]


def spawn_driver(tmp_path, sched):
    """One sacrificial run in its own session; returns progress events.

    The dead front end's segments are unlinked here, since it never could.
    """
    progress = tmp_path / "progress.jsonl"
    log_path = tmp_path / "driver.log"
    cmd = [
        sys.executable,
        DRIVER,
        "--wal-dir", str(tmp_path / "wal"),
        "--progress", str(progress),
        "--seed", str(sched["seed"]),
        "--executor", sched["executor"],
        "--fault-point", sched["fault"],
    ]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        returncode = proc.wait(timeout=120)
    assert returncode == -signal.SIGKILL, (
        f"{sched['id']}: driver exited {returncode} instead of dying by "
        f"SIGKILL:\n{log_path.read_text()}"
    )
    events = []
    with open(progress) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@pytest.mark.parametrize(
    "sched", SCHEDULES, ids=[sched["id"] for sched in SCHEDULES]
)
def test_kill9_mid_migration_recovers(tmp_path, sched):
    tag = f"{sched['id']}:"
    events = spawn_driver(tmp_path, sched)
    kinds = [kind for kind, _payload in events]
    assert kinds[0] == "booted" and events[0][1]["recovered"] == 0
    assert "subscribed" in kinds, f"{tag} driver died before subscribing"
    assert "reshard_intent" in kinds, f"{tag} driver died before resharding"
    if sched["fault"] != "none":
        assert "reshard_done" not in kinds, (
            f"{tag} armed migration fault never fired — the schedule "
            f"degenerated into a plain kill"
        )
    else:
        assert "reshard_done" in kinds and "kill" in kinds

    intents = [
        [(node, value) for node, value in payload]
        for kind, payload in events
        if kind == "intent"
    ]
    acked = sum(1 for kind in kinds if kind == "ack")
    assert acked >= len(intents) - 1

    graph, query = reshard_driver.build_env()
    nodes = sorted(graph.nodes())
    server = EAGrServer(
        graph,
        query,
        num_shards=reshard_driver.NUM_SHARDS,
        executor="inprocess",
        overlay_algorithm="identity",
        dataflow="all_push",
        wal_dir=str(tmp_path / "wal"),
    )
    try:
        # All-or-nothing epoch: the recovered routing table is exactly
        # the pre- or post-swap one the fault point dictates.
        assert server.partition_epoch == sched["epoch"], (
            f"{tag} recovered epoch {server.partition_epoch}, expected "
            f"{sched['epoch']}"
        )
        fresh = EAGrServer(
            graph, query, num_shards=reshard_driver.NUM_SHARDS,
            executor="inprocess", overlay_algorithm="identity",
            dataflow="all_push",
        )
        original = dict(fresh.reader_shard)
        fresh.close()
        expected_table = dict(original)
        if sched["epoch"] == 1:
            expected_table.update(reshard_driver.make_plan(original))
        assert dict(server.reader_shard) == expected_table, (
            f"{tag} recovered a hybrid routing table"
        )

        server.drain()
        reads = server.read_batch(nodes)
        applied = None
        for count in range(len(intents), acked - 1, -1):
            oracle = EAGrEngine(
                graph, query,
                overlay_algorithm="identity", dataflow="all_push",
            )
            for batch in intents[:count]:
                oracle.write_batch(batch)
            if oracle.read_batch(nodes) == reads:
                applied = count
                break
        assert applied is not None, (
            f"{tag} recovered reads match no prefix covering all "
            f"{acked} acknowledged batches"
        )

        # Resumption across the crashed migration: journal replay plus
        # live traffic, contiguous stamps, oracle-true value streams.
        resumed = server.subscribe(reshard_driver.SUBSCRIBER, resume_from=0)
        replayed = resumed.poll()
        extra = [(node, 100.0) for node in nodes[:5]]
        server.write_batch(extra)
        server.drain()
        merged = replayed + collect(resumed, timeout=30)
        assert merged, f"{tag} nothing delivered across crash + recovery"
        assert_contiguous([note.stamp for note in merged], tag=f"{tag}")

        batches = intents[:applied] + [extra]
        oracle = EAGrEngine(
            graph, query, overlay_algorithm="identity", dataflow="all_push"
        )
        history = transitions_by_ego(batches, oracle, nodes)
        final = dict(zip(nodes, oracle.read_batch(nodes)))
        assert dict(zip(nodes, server.read_batch(nodes))) == final, (
            f"{tag} post-recovery reads diverge from the oracle"
        )
        per_ego = {}
        for note in merged:
            per_ego.setdefault(note.ego, []).append(note.value)
        for ego, values in per_ego.items():
            transitions = [value for _index, value in history[ego]]
            assert_subsequence(values, transitions, tag=f"{tag} ego {ego!r}:")
            assert values[-1] == final[ego]
    finally:
        server.close()


class TestWorkerDeathMidMigration:
    @pytest.mark.parametrize("victim", ["source", "target"])
    def test_dead_worker_aborts_cleanly(self, victim):
        graph, query = reshard_driver.build_env()
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(
            graph, query, overlay_algorithm="identity", dataflow="all_push"
        )
        server = EAGrServer(
            graph, query, num_shards=reshard_driver.NUM_SHARDS,
            executor="inprocess", overlay_algorithm="identity",
            dataflow="all_push",
        )
        try:
            batches = reshard_driver.make_batches(7001, 3, nodes)
            for batch in batches:
                server.write_batch(batch)
                oracle.write_batch(batch)
            server.drain()
            plan = reshard_driver.make_plan(server.reader_shard)
            shard_id = 0 if victim == "source" else reshard_driver.NUM_SHARDS - 1
            before = dict(server.reader_shard)

            def die():
                kill_shard(server, shard_id)

            # The victim dies right as the migration starts quiescing:
            # its checkpoint call must fail, and the abort path must
            # leave the old partition untouched.
            server.reshard_faults["pre_checkpoint"] = die
            with pytest.raises(ServeError):
                server.reshard(plan)
            assert server.reader_shard == before
            assert server.partition_epoch == 0

            del server.reshard_faults["pre_checkpoint"]
            server.restart_shard(shard_id)
            summary = server.reshard(plan)
            assert summary["moved"] == len(plan)
            assert server.partition_epoch == 1
            extra = reshard_driver.make_batches(7002, 2, nodes)
            for batch in extra:
                server.write_batch(batch)
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
        finally:
            server.close()
