"""The warm read-replica tier: WAL tailing, staleness bounds, promotion.

A :class:`ReplicaServer` is attached to a live primary's ``wal_dir`` and
held to its contract:

* **Watermark-consistent reads.**  Once the replica has consumed the log
  (``max_lag_bytes=0``), its reads equal the primary's — and every read
  is taken under the apply lock, so it reflects a whole-batch boundary,
  never a torn mix.
* **Explicit staleness.**  A read whose lag bound cannot be met inside
  its wait raises :class:`StaleReadError` instead of silently answering
  stale.
* **Self-healing compaction race.**  The primary compacting segments out
  from under the tailer forces a snapshot rebuild (``resets`` counts
  them), after which reads are still exact.
* **Promotion without losing acknowledged batches.**  After the primary
  dies uncleanly, ``promote()`` drains the log and boots a full
  ``EAGrServer`` over it — reads equal the oracle over everything the
  dead primary acknowledged, and the dead epoch's subscription resumes
  gap-free.  While the primary is still alive, promotion is *refused*
  (:class:`WalLockedError`) — split-brain is not raced.

Everything runs in-process (the replica's engines are in-process by
design; the primary uses the inprocess executor for speed — the WAL
bytes it writes are identical to the process-mode deployment's).
"""

import random

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import (
    EAGrServer,
    ReplicaError,
    ReplicaServer,
    StaleReadError,
    WalLockedError,
)

from tests.serve.faultlib import assert_contiguous, wait_until

ENGINE_OPTS = dict(overlay_algorithm="identity", dataflow="all_push")


@pytest.fixture()
def deployment(tmp_path):
    graph = random_graph(14, 52, seed=41)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    server = EAGrServer(
        graph,
        query,
        num_shards=2,
        executor="inprocess",
        wal_dir=str(tmp_path / "wal"),
        checkpoint_interval=4,
        **ENGINE_OPTS,
    )
    env = {
        "graph": graph,
        "query": query,
        "server": server,
        "nodes": sorted(graph.nodes()),
        "wal_dir": str(tmp_path / "wal"),
        "batches": [],
    }
    yield env
    if not env["server"]._closed:
        env["server"].close()


def write_batches(env, rng, count):
    for _ in range(count):
        batch = [
            (rng.choice(env["nodes"]), float(rng.randint(1, 9)))
            for _ in range(rng.randint(2, 5))
        ]
        env["server"].write_batch(batch)
        env["batches"].append(batch)
    env["server"].drain()


def fresh_oracle(env):
    oracle = EAGrEngine(env["graph"], env["query"], **ENGINE_OPTS)
    for batch in env["batches"]:
        oracle.write_batch(batch)
    return oracle


def attach_replica(env, **kwargs):
    return ReplicaServer(
        env["graph"], env["query"], env["wal_dir"], **ENGINE_OPTS, **kwargs
    )


def crash_primary(env):
    """Abandon the primary without ``close()`` — the in-process stand-in
    for kill -9: no executor teardown, no final flush; only the flock
    is dropped (the kernel would do that for a real dead process)."""
    server = env["server"]
    server._stop_flusher.set()
    server._flusher.join(timeout=5)
    server._wal.close()
    server._closed = True


def test_replica_reads_equal_primary_and_oracle(deployment):
    env = deployment
    rng = random.Random(11)
    write_batches(env, rng, 6)
    with attach_replica(env) as replica:
        reads = replica.read_batch(env["nodes"], max_lag_bytes=0)
        assert reads == env["server"].read_batch(env["nodes"])
        assert reads == fresh_oracle(env).read_batch(env["nodes"])
        # The watermark is exactly the primary's per-shard batch position
        # once the lag is zero — reads correspond to a whole-batch state.
        assert replica.watermark() == env["server"]._wal.state.batch_no
        stats = replica.stats()
        assert stats["batches_applied"] > 0
        assert stats["lag_bytes"] == 0


def test_replica_follows_progressive_writes(deployment):
    env = deployment
    rng = random.Random(23)
    write_batches(env, rng, 2)
    with attach_replica(env) as replica:
        for _round in range(4):
            write_batches(env, rng, 2)
            reads = replica.read_batch(env["nodes"], max_lag_bytes=0)
            assert reads == fresh_oracle(env).read_batch(env["nodes"])


def test_stale_read_refused_when_bound_unmeetable(deployment):
    env = deployment
    rng = random.Random(31)
    write_batches(env, rng, 3)
    replica = attach_replica(env)
    try:
        replica.read_batch(env["nodes"], max_lag_bytes=0)  # caught up
        # Freeze the tailer, then advance the primary: the lag bound is
        # now unmeetable and the read must refuse, not serve stale.
        replica._stop.set()
        replica._thread.join(timeout=5)
        write_batches(env, rng, 2)
        assert replica.lag_bytes() > 0
        with pytest.raises(StaleReadError):
            replica.read_batch(env["nodes"], max_lag_bytes=0, wait=0.2)
        # A permissive bound still answers (explicitly stale-tolerant).
        stale = replica.read_batch(
            env["nodes"], max_lag_bytes=1 << 30, wait=0.2
        )
        assert len(stale) == len(env["nodes"])
    finally:
        replica.close()


def test_replica_survives_compaction_race(deployment):
    env = deployment
    rng = random.Random(47)
    write_batches(env, rng, 5)
    with attach_replica(env) as replica:
        replica.read_batch(env["nodes"], max_lag_bytes=0)
        # Compact the log out from under the tailer's cursor: it must
        # re-anchor at the snapshot and rebuild — not corrupt or wedge.
        env["server"].checkpoint()
        assert env["server"]._wal.maybe_compact(force=True)
        write_batches(env, rng, 4)
        reads = replica.read_batch(env["nodes"], max_lag_bytes=0)
        assert reads == fresh_oracle(env).read_batch(env["nodes"])
        wait_until(
            lambda: replica.resets >= 1, desc="snapshot rebuild after compaction"
        )


def test_promotion_after_primary_death_loses_nothing(deployment):
    env = deployment
    rng = random.Random(59)
    env["server"].subscribe("watcher", env["nodes"])
    write_batches(env, rng, 7)
    replica = attach_replica(env)
    replica.read_batch(env["nodes"], max_lag_bytes=0)

    crash_primary(env)
    promoted = replica.promote(executor="inprocess")
    try:
        with pytest.raises(ReplicaError):
            replica.read_batch(env["nodes"])  # the old handle is retired
        promoted.drain()
        assert promoted.read_batch(env["nodes"]) == fresh_oracle(
            env
        ).read_batch(env["nodes"])

        # The dead epoch's subscription state came along: resume replays
        # the journal gap-free and live delivery continues the stream.
        resumed = promoted.subscribe("watcher", resume_from=0)
        merged = resumed.poll()
        batch = [(rng.choice(env["nodes"]), 7.5) for _ in range(3)]
        promoted.write_batch(batch)
        env["batches"].append(batch)
        promoted.drain()
        merged += resumed.poll()
        assert merged
        assert_contiguous([note.stamp for note in merged], tag="promoted:")
        assert promoted.read_batch(env["nodes"]) == fresh_oracle(
            env
        ).read_batch(env["nodes"])
    finally:
        promoted.close()


def test_promotion_refused_while_primary_alive(deployment):
    env = deployment
    rng = random.Random(67)
    write_batches(env, rng, 3)
    replica = attach_replica(env)
    try:
        with pytest.raises(WalLockedError):
            replica.promote(executor="inprocess")
    finally:
        replica.close()
        # The primary was never disturbed by the refused promotion.
        assert env["server"].read_batch(env["nodes"]) == fresh_oracle(
            env
        ).read_batch(env["nodes"])


def test_read_racing_a_tailed_reshard_is_routed_under_the_apply_lock(deployment):
    """A ``P`` record consumed while ``read_batch`` is between resolving
    an ego's shard and reading it: the source host has been rebuilt
    without the moved reader, so a route taken *outside* the apply lock
    asks a host that no longer owns the ego.  The race is forced, not
    awaited: the replica tails by hand (its own poll never fires), and a
    probe key that sorts after the moved ego in the request launches the
    consumption from inside the routing loop — its ``__hash__`` runs
    after the ego was resolved, and waits for the consumer thread to
    finish or to block on the apply lock."""
    import threading

    env = deployment
    server, nodes = env["server"], env["nodes"]
    write_batches(env, random.Random(17), 6)
    expected = fresh_oracle(env).read_batch(nodes)
    replica = attach_replica(env, poll_interval=3600.0)
    consumer_done = threading.Event()

    def consume():
        with replica._apply_lock:
            replica._consume(replica._tailer.poll())
        consumer_done.set()

    consumer = threading.Thread(target=consume)

    class Probe:
        """Not a graph node: routes nowhere, reads as the identity."""

        def __hash__(self):
            consumer.start()
            consumer_done.wait(timeout=0.5)
            return 0

    try:
        ego = next(
            n
            for n, value in zip(nodes, expected)
            if server.reader_shard[n] == 0 and value  # a wrong host reads 0.0
        )
        server.reshard({ego: 1})
        assert replica.partition_epoch == 0  # the P is on disk, untailed
        got = replica.read_batch([ego, Probe()], max_lag_bytes=1 << 30)
        assert got[0] == expected[nodes.index(ego)]
        consumer.join(timeout=10.0)
        assert consumer_done.is_set()
        # ...and once the P is folded the replica follows the primary's
        # new partition: same table, same reads, same batch counters.
        assert replica.partition_epoch == 1
        assert replica.reader_shard == server.reader_shard
        assert replica.read_batch(nodes, max_lag_bytes=1 << 30) == expected
        assert replica.watermark() == server._wal.state.batch_no
    finally:
        replica.close()
