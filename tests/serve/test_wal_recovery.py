"""Whole-server kill -9 → cold-restart recovery, across seeded schedules.

Each schedule spawns ``wal_driver.py``, which moves into its own session
(process group), lets it ingest a seeded workload against
``EAGrServer(wal_dir=...)``, and then the whole group dies by SIGKILL —
either the driver's own mid-ingest suicide after N acknowledged
batches, or earlier inside an armed WAL disk fault: a torn append, a
crash straight after one, a crash inside checkpoint-gated compaction
(both sides of the atomic rename), on either side of a group-commit
fsync, or — in the double-crash schedules —
a second boot that dies *during its own recovery replay*.

The verifier then cold-boots ``EAGrServer(wal_dir=...)`` in-process and
holds it to the acceptance contract:

* **Zero lost acknowledged batches.**  Recovered reads equal a fresh
  single-process oracle replay of some prefix of the driver's intents
  that covers every acknowledged batch.  (The one in-flight intent the
  crash interrupted may legitimately land either way — the driver's
  progress protocol makes the ambiguity window exactly one batch wide.)
* **Stamp-exact resumption.**  ``subscribe("watcher", resume_from=0)``
  replays the dead epoch's journal gap- and duplicate-free, fresh live
  traffic splices in with contiguous stamps, and every delivered value
  stream is an ordered subsequence of the oracle's true transitions
  ending at the true final value.

Schedules mix both executors: ``process`` runs real spawn workers (the
kill takes down a whole worker tree), ``inprocess`` keeps the sacrifice
cheap while still exercising every WAL code path.
"""

import json
import random
import signal
import subprocess
import sys

import pytest

from repro.core.engine import EAGrEngine
from repro.serve import EAGrServer

from tests.serve import wal_driver
from tests.serve.faultlib import (
    assert_contiguous,
    assert_subsequence,
    transitions_by_ego,
)

DRIVER = wal_driver.__file__

# One entry per crash schedule.  ``expect_early`` asserts the armed WAL
# fault actually fired (the driver died before its own planned suicide),
# so a mistuned fault point fails loudly instead of silently degrading
# into a plain kill.  ``recrash`` adds a second driver phase that boots
# from the WAL and is killed after submitting that many replay batches —
# crash-mid-recovery, verified to be harmless by the third boot.
SCHEDULES = [
    # plain mid-ingest kill -9 after N acknowledged batches
    dict(id="kill-proc-a", seed=2000, executor="process", batches=4, ckpt=2),
    dict(id="kill-inproc-a", seed=2001, executor="inprocess", batches=5, ckpt=3),
    dict(id="kill-proc-b", seed=2002, executor="process", batches=6, ckpt=4),
    dict(id="kill-inproc-b", seed=2003, executor="inprocess", batches=7, ckpt=2),
    dict(id="kill-inproc-c", seed=2004, executor="inprocess", batches=8, ckpt=3),
    # never checkpointed: recovery replays the full log
    dict(id="kill-proc-nockpt", seed=2005, executor="process", batches=5, ckpt=100),
    dict(id="kill-inproc-nockpt", seed=2006, executor="inprocess", batches=9, ckpt=100),
    # checkpointed every batch: recovery is almost pure checkpoint restore
    dict(id="kill-inproc-tight", seed=2007, executor="inprocess", batches=6, ckpt=1),
    # torn / short appends mid-write_batch (the ambiguous in-flight batch)
    dict(id="torn-append", seed=3001, executor="inprocess", batches=8, ckpt=3,
         torn_at=12, expect_early=True),
    dict(id="torn-append-nockpt", seed=3002, executor="inprocess", batches=8,
         ckpt=100, torn_at=15, expect_early=True),
    dict(id="crash-post-append", seed=3003, executor="inprocess", batches=8,
         ckpt=3, crash_appends=14, expect_early=True),
    # crash inside checkpoint-gated compaction, both sides of the rename
    dict(id="compact-before-rename", seed=4001, executor="inprocess",
         batches=12, ckpt=2, compact_bytes=2000,
         crash_compact="before_replace", expect_early=True),
    dict(id="compact-after-rename", seed=4002, executor="inprocess",
         batches=12, ckpt=2, compact_bytes=2000,
         crash_compact="after_replace", expect_early=True),
    # group commit: the N-th fsync's position is taken but the fsync has
    # not run, or it has run but the durable mark is not yet published
    dict(id="crash-before-fsync", seed=3004, executor="inprocess", batches=8,
         ckpt=3, crash_before_fsync=6, expect_early=True),
    dict(id="crash-after-fsync", seed=3005, executor="process", batches=8,
         ckpt=3, crash_after_fsync=6, expect_early=True),
    # double crash: the second boot dies during its own recovery replay
    dict(id="recrash-early", seed=5001, executor="inprocess", batches=7,
         ckpt=100, recrash=1),
    dict(id="recrash-proc", seed=5002, executor="process", batches=6,
         ckpt=100, recrash=2),
    dict(id="recrash-ckpt", seed=5003, executor="inprocess", batches=9,
         ckpt=3, recrash=2),
    dict(id="recrash-late", seed=5004, executor="inprocess", batches=8,
         ckpt=100, recrash=3),
]


def spawn_phase(tmp_path, sched, phase, extra_args):
    """Run one sacrificial driver phase; returns its progress events.

    The driver runs as its own session leader, so its ``os.kill(0,
    SIGKILL)`` — or the WAL fault's — takes down the entire group
    including spawn workers, and cannot touch the pytest process.  The
    dead front end's segments are unlinked here, since it never could.
    """
    progress = tmp_path / f"progress-{phase}.jsonl"
    log_path = tmp_path / f"driver-{phase}.log"
    cmd = [
        sys.executable,
        DRIVER,
        "--wal-dir", str(tmp_path / "wal"),
        "--progress", str(progress),
        "--seed", str(sched["seed"]),
        "--executor", sched["executor"],
        "--checkpoint-interval", str(sched["ckpt"]),
        *extra_args,
    ]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        returncode = proc.wait(timeout=90)
    assert returncode == -signal.SIGKILL, (
        f"{sched['id']} phase {phase}: driver exited {returncode} instead of "
        f"dying by SIGKILL:\n{log_path.read_text()}"
    )
    events = []
    if progress.exists():
        with open(progress) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    return events


def phase_one_args(sched):
    args = ["--batches", str(sched["batches"])]
    if sched.get("compact_bytes") is not None:
        args += ["--compact-bytes", str(sched["compact_bytes"])]
    if sched.get("torn_at") is not None:
        args += ["--torn-append-at", str(sched["torn_at"])]
    if sched.get("crash_appends") is not None:
        args += ["--crash-after-appends", str(sched["crash_appends"])]
    if sched.get("crash_compact") is not None:
        args += ["--crash-in-compact", sched["crash_compact"]]
    if sched.get("crash_before_fsync") is not None:
        args += ["--crash-before-fsync", str(sched["crash_before_fsync"])]
    if sched.get("crash_after_fsync") is not None:
        args += ["--crash-after-fsync", str(sched["crash_after_fsync"])]
    return args


@pytest.mark.parametrize(
    "sched", SCHEDULES, ids=[sched["id"] for sched in SCHEDULES]
)
def test_kill9_cold_restart_recovers(tmp_path, sched):
    tag = f"{sched['id']}:"
    events = spawn_phase(tmp_path, sched, 1, phase_one_args(sched))

    kinds = [kind for kind, _payload in events]
    assert kinds[0] == "booted" and events[0][1]["recovered"] == 0, (
        f"{tag} first epoch must boot fresh: {events[:1]}"
    )
    assert "subscribed" in kinds, f"{tag} driver died before subscribing"
    if sched.get("expect_early"):
        assert "kill" not in kinds, (
            f"{tag} armed WAL fault never fired — the schedule degenerated "
            f"into a plain kill (tune the fault point)"
        )
    intents = [
        [(node, value) for node, value in payload]
        for kind, payload in events
        if kind == "intent"
    ]
    acked = sum(1 for kind in kinds if kind == "ack")
    assert intents, f"{tag} driver died before submitting anything"
    assert acked >= len(intents) - 1, (
        f"{tag} progress protocol broken: {len(intents)} intents, {acked} acks"
    )

    if sched.get("recrash"):
        # Crash-mid-recovery: a second boot replays the redo suffix and
        # is killed after ``recrash`` replay submissions.  It must not
        # write anything that confuses the next recovery.
        spawn_phase(
            tmp_path,
            sched,
            2,
            ["--batches", "0", "--crash-after-replay", str(sched["recrash"])],
        )

    graph, query = wal_driver.build_env()
    nodes = sorted(graph.nodes())
    server = EAGrServer(
        graph,
        query,
        num_shards=2,
        executor="inprocess",
        overlay_algorithm="identity",
        dataflow="all_push",
        wal_dir=str(tmp_path / "wal"),
        checkpoint_interval=sched["ckpt"],
    )
    try:
        server.drain()
        reads = server.read_batch(nodes)

        # Zero lost acknowledged batches: the recovered state must equal
        # an oracle replay of a prefix covering every acked batch; only
        # the single in-flight intent may land either way.
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

        # Stamp-exact resumption: full journal replay, then live traffic
        # splicing in with contiguous stamps.
        resumed = server.subscribe(wal_driver.SUBSCRIBER, resume_from=0)
        replayed = resumed.poll()
        rng = random.Random(sched["seed"] + 99)
        extra = [
            (rng.choice(nodes), float(rng.randint(1, 9))) for _ in range(4)
        ]
        server.write_batch(extra)
        server.drain()
        merged = replayed + resumed.poll()
        assert merged, f"{tag} nothing delivered across crash + recovery"
        assert_contiguous([note.stamp for note in merged], tag=f"{tag} merged:")

        batches = intents[:applied] + [extra]
        oracle = EAGrEngine(
            graph, query, overlay_algorithm="identity", dataflow="all_push"
        )
        history = transitions_by_ego(batches, oracle, nodes)
        final = dict(zip(nodes, oracle.read_batch(nodes)))
        assert dict(zip(nodes, server.read_batch(nodes))) == final, (
            f"{tag} post-recovery reads diverge from the never-crashed oracle"
        )
        per_ego = {}
        for note in merged:
            per_ego.setdefault(note.ego, []).append(note.value)
        for ego, values in per_ego.items():
            transitions = [value for _index, value in history[ego]]
            assert_subsequence(values, transitions, tag=f"{tag} ego {ego!r}:")
            assert values[-1] == final[ego], (
                f"{tag} ego {ego!r} last delivered {values[-1]} != final "
                f"{final[ego]}"
            )
    finally:
        server.close()
