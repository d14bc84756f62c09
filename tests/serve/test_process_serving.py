"""Process deployments end to end, over the one shard transport.

``test_crash_restart.py`` runs the seeded crash schedules and
``test_transport.py`` drives the worker loop and the worker-replacement
path; this module covers what those do not: reads and notifications of a
process deployment against a single engine (time windows, adaptive
shards and a lattice aggregate included), the binary data plane's codec
parity, fail-fast on a dead worker, a poisoned batch that must not wedge
later reads, and the resource-tracker discipline under
``-W error::UserWarning``.
"""

import contextlib
import os
import subprocess
import sys
import time

import pytest

from repro.core.aggregates import Max, Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TimeWindow, TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer, ServeError

from tests.serve.faultlib import (
    arm_kill_point,
    collect,
    disarm,
    wait_dead,
)


def make_query(window=None, aggregate=None):
    return EgoQuery(aggregate=aggregate or Sum(), window=window or TupleWindow(1))


def test_both_executors_report_the_queue():
    graph = random_graph(10, 28, seed=3)
    for executor in ("inprocess", "process"):
        with EAGrServer(
            graph, make_query(), num_shards=1, executor=executor,
            overlay_algorithm="identity", dataflow="all_push",
        ) as server:
            assert server.transport == "queue"
            assert "transport=queue" in server.describe()
            assert server.server_stats()["transport"] == "queue"


# ---------------------------------------------------------------------------
# end-to-end parity with a single engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment():
    graph = random_graph(22, 96, seed=51)
    query = make_query()
    server = EAGrServer(
        graph, query, num_shards=2, executor="process",
        overlay_algorithm="vnm_a", reply_timeout=30.0,
    )
    yield graph, query, server
    server.close()


class TestProcessServing:
    def test_reads_byte_identical(self, deployment):
        graph, query, server = deployment
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        writes = [(n, float(i % 9)) for i, n in enumerate(nodes)] * 5
        for start in range(0, len(writes), 24):
            chunk = writes[start : start + 24]
            server.write_batch(chunk)
            single.write_batch(chunk)
        # no drain: the FIFO request pipe alone gives read-your-writes
        assert server.read_batch(nodes) == single.read_batch(nodes)
        for start in range(0, len(nodes), 6):
            chunk = [(n, 2.5) for n in nodes[start : start + 6]]
            server.write_batch(chunk)
            single.write_batch(chunk)
        server.drain()
        assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_notifications_flow_without_write_acks(self, deployment):
        graph, query, server = deployment
        nodes = list(graph.nodes())
        sub = server.subscribe("watcher", nodes)
        server.write_batch([(nodes[0], 512.0)])
        server.drain()
        seen = collect(sub, count=1, timeout=10.0) + sub.poll()
        assert seen and all(n.subscriber == "watcher" for n in seen)
        stamps = [n.stamp for n in seen]
        assert stamps == sorted(stamps)
        server.unsubscribe("watcher")

    def test_server_stats_report_replication_and_transport(self, deployment):
        _graph, _query, server = deployment
        stats = server.server_stats()
        assert stats["transport"] == "queue"
        assert stats["assignment"] == "mincut"
        assert stats["observed_replication_factor"] >= 0.0
        assert stats["partition_epoch"] == 0
        assert stats["replication_factor"] >= 1.0
        # per-shard stats keep their shape (one dict per shard)
        assert len(server.stats()) == server.num_shards


def test_time_windows_match_a_single_engine():
    """Time-window reads advance expiry shard-side."""
    graph = random_graph(14, 40, seed=29)
    query = make_query(window=TimeWindow(5.0))
    single = EAGrEngine(graph, query, overlay_algorithm="identity", dataflow="all_push")
    with EAGrServer(
        graph, query, num_shards=2, executor="process",
        overlay_algorithm="identity", dataflow="all_push",
    ) as server:
        nodes = list(graph.nodes())
        clock = 0.0
        for i in range(6):
            clock += 2.0
            batch = [(n, float(i + 1), clock) for n in nodes[:5]]
            server.write_batch(batch)
            single.write_batch(batch)
        assert server.read_batch(nodes) == single.read_batch(nodes)


def test_adaptive_deployments_match_a_single_engine():
    """Adaptive shards see every read, their observed-pull signal."""
    graph = random_graph(12, 34, seed=37)
    single = EAGrEngine(graph, make_query(), overlay_algorithm="vnm_a")
    with EAGrServer(
        graph, make_query(), num_shards=2, executor="process",
        overlay_algorithm="vnm_a", adaptive=True,
    ) as server:
        nodes = list(graph.nodes())
        for i in range(4):
            batch = [(n, float(i + 1)) for n in nodes]
            server.write_batch(batch)
            single.write_batch(batch)
        assert server.read_batch(nodes) == single.read_batch(nodes)
        assert sum(stats["reads"] for stats in server.stats()) >= len(nodes)


def test_lattice_aggregate_matches_a_single_engine():
    """MAX state (nan-encoded lattice columns) over worker processes."""
    graph = random_graph(14, 40, seed=31)
    query = make_query(aggregate=Max(), window=TupleWindow(2))
    single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
    with EAGrServer(
        graph, query, num_shards=2, executor="process", overlay_algorithm="vnm_a",
    ) as server:
        nodes = list(graph.nodes())
        for i in range(8):
            batch = [(n, float((i * 7 + j) % 13)) for j, n in enumerate(nodes)]
            server.write_batch(batch)
            single.write_batch(batch)
        assert server.read_batch(nodes) == single.read_batch(nodes)


# ---------------------------------------------------------------------------
# dead workers, restarts and poisoned batches
# ---------------------------------------------------------------------------


def test_crash_restart_serves_reads_after_restart():
    """A worker killed after applying a batch is replaced from its
    checkpoint and the redo log; reads after the restart equal a single
    engine's — all through the faultlib kill-point harness."""
    graph = random_graph(12, 36, seed=67)
    query = make_query()
    single = EAGrEngine(
        graph, query, overlay_algorithm="identity", dataflow="all_push"
    )
    with EAGrServer(
        graph, query, num_shards=1, executor="process",
        overlay_algorithm="identity", dataflow="all_push", reply_timeout=30.0,
    ) as server:
        nodes = list(graph.nodes())
        batches = [[(n, float(i + 1)) for n in nodes] for i in range(4)]
        server.write_batch(batches[0])
        single.write_batch(batches[0])
        server.checkpoint()
        arm_kill_point(server, 0, after=1, rng_tag="restart")
        server.write_batch(batches[1])  # applied, then the worker dies
        single.write_batch(batches[1])
        wait_dead(server, 0)
        server.write_batch(batches[2])  # accepted while dead: redo log
        single.write_batch(batches[2])
        disarm(server, 0)
        server.restart_shard(0)
        server.write_batch(batches[3])
        single.write_batch(batches[3])
        assert server.read_batch(nodes) == single.read_batch(nodes)


def test_failed_write_batch_does_not_wedge_reads():
    """A batch that raises shard-side (poison value) must not hold up
    later reads, and the failure still surfaces at drain."""
    graph = random_graph(10, 30, seed=83)
    with EAGrServer(
        graph, make_query(), num_shards=1, executor="process",
        overlay_algorithm="identity", dataflow="all_push", reply_timeout=20.0,
    ) as server:
        nodes = list(graph.nodes())
        server.write_batch([(n, 1.0) for n in nodes])
        server.drain()
        server.write_batch([(nodes[0], "poison")])  # raises in the shard
        started = time.monotonic()
        values = server.read_batch(nodes)  # must not wait out the timeout
        assert time.monotonic() - started < server._reply_timeout / 2
        assert len(values) == len(nodes)
        with pytest.raises(ServeError):
            server.drain()  # the R_ERR surfaces as an async write failure
        assert len(server.read_batch(nodes)) == len(nodes)  # still serving


def test_dead_worker_read_fails_fast():
    """A read at a dead worker raises far inside ``reply_timeout``, with
    writes accepted while it is dead; after a restart it answers."""
    graph = random_graph(10, 30, seed=71)
    server = EAGrServer(
        graph, make_query(), num_shards=1, executor="process",
        overlay_algorithm="identity", dataflow="all_push", reply_timeout=30.0,
    )
    try:
        nodes = list(graph.nodes())
        server.write_batch([(n, 1.0) for n in nodes])
        server.drain()
        server._executors[0].kill()
        wait_dead(server, 0)
        server.write_batch([(nodes[0], 9.0)])  # parks in outbox/redo log
        started = time.monotonic()
        with pytest.raises((ServeError, RuntimeError)):
            server.read(nodes[0])
        assert time.monotonic() - started < server._reply_timeout / 2
        server.restart_shard(0)
        assert server.read(nodes[0]) is not None
    finally:
        try:
            server.close()
        except (ServeError, RuntimeError):
            pass


def test_kill_point_mid_write_read_raises_promptly():
    """The worker dies on *receiving* a batch; a read behind that batch
    surfaces an error promptly instead of hanging toward the reply
    timeout."""
    graph = random_graph(18, 60, seed=63)
    server = EAGrServer(
        graph, make_query(), num_shards=1, executor="process",
        overlay_algorithm="vnm_a", reply_timeout=60.0,
    )
    try:
        nodes = list(graph.nodes())
        server.write_batch([(n, 1.0) for n in nodes])
        server.drain()
        arm_kill_point(server, 0, before=1)
        server.write_batch([(nodes[0], 9.0)])
        wait_dead(server, 0)
        start = time.monotonic()
        # a death noticed while the request waits raises ServeError; one
        # noticed by the send itself raises RuntimeError — both prompt
        with pytest.raises((ServeError, RuntimeError)):
            server.read_batch(nodes)
        assert time.monotonic() - start < 20.0
    finally:
        with contextlib.suppress(ServeError):
            server.close()


# ---------------------------------------------------------------------------
# resource-tracker discipline
# ---------------------------------------------------------------------------


_TRACKER_SCRIPT = """
import sys
from repro.core.aggregates import Sum
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer

graph = random_graph(10, 28, seed=9)
query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
server = EAGrServer(
    graph, query, num_shards=1, executor="process",
    overlay_algorithm="identity", dataflow="all_push",
)
assert server.transport == "queue"
nodes = list(graph.nodes())
server.write_batch([(n, 1.0) for n in nodes])
assert server.read_batch(nodes)
server.restart_shard(0)  # a fresh worker epoch on the same transport
server.drain()
server.close()
print("tracker-clean")
"""


def test_no_resource_tracker_warnings_on_clean_shutdown():
    """Boot, restart and close a process deployment in a subprocess with
    every UserWarning fatal: a semaphore or pipe the front-end or a
    worker failed to release would crash the run or leak tracker stderr
    noise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", _TRACKER_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "tracker-clean" in result.stdout
    noise = [
        line
        for line in result.stderr.splitlines()
        if "resource_tracker" in line or "KeyError" in line or "leaked" in line
    ]
    assert not noise, noise


# ---------------------------------------------------------------------------
# binary data plane: codec byte-parity and the pickle-free hot path
# ---------------------------------------------------------------------------


def _parity_workload(label, wal_dir):
    """One seeded write → notify → read workload, with a mid-run
    ``resume_from`` reconnect and a WAL cold restart, on
    ``random_graph(20, 80, seed=97)`` relabelled through ``label``.

    Returns ``(reads, rounds, stats)`` with node ids mapped back to the
    unlabelled ints: ``rounds`` holds, per write round, the sorted
    ``(ego, value)`` pairs it notified and the sorted stamps they
    carried (the order of egos *within* one change report follows set
    iteration, which legitimately depends on the key type).

    Single shard so per-subscriber stamp assignment is deterministic
    (with multiple shards the reply drainers race, making cross-shard
    stamp interleaving legitimately order-free).
    """
    import random

    from repro.graph.dynamic_graph import DynamicGraph

    base = random_graph(20, 80, seed=97)
    graph = DynamicGraph()
    for node in base.nodes():
        graph.add_node(label(node))
    for u, v in base.edges():
        graph.add_edge(label(u), label(v))
    ids = list(base.nodes())
    back = {label(node): node for node in ids}
    nodes = [label(node) for node in ids]
    rng = random.Random(11)
    rounds = []

    def play(server, sub, count):
        for _round in range(count):
            batch = [
                (label(rng.choice(ids)), float(rng.randrange(50)))
                for _ in range(16)
            ]
            server.write_batch(batch)
            server.drain()  # R_WRITE replies precede the drain ack (FIFO)
            if sub is not None:
                record(sub.poll())

    def record(notes):
        rounds.append(
            (
                sorted((back[n.ego], n.value) for n in notes),
                sorted(n.stamp for n in notes),
            )
        )

    def make():
        return EAGrServer(
            graph, make_query(), num_shards=1, executor="process",
            overlay_algorithm="vnm_a", reply_timeout=30.0, wal_dir=wal_dir,
        )

    with make() as server:
        sub = server.subscribe("parity", nodes)
        play(server, sub, 4)
        cut = server.disconnect("parity")
        play(server, None, 2)  # journaled while the client is away
        sub = server.subscribe("parity", resume_from=cut)
        record(sub.poll())
        play(server, sub, 2)
        last = server.last_stamp("parity")
        mixes = [server.server_stats()["codec_mix"]]
    with make() as server:  # cold restart: redo replay re-derives, suppressed
        assert server.recovered_batches > 0
        sub = server.subscribe("parity", resume_from=last)
        server.drain()
        assert sub.poll() == []
        play(server, sub, 2)
        reads = server.read_batch(nodes)
        mixes.append(server.server_stats()["codec_mix"])
    return reads, rounds, mixes


class TestBinaryDataPlane:
    def test_packability_picks_the_codec_and_nothing_else(self, tmp_path):
        """The tentpole property: the same seeded workload, once with
        items that pass the packing gate and once on a string-keyed
        graph that fails it in both directions (writes and change
        reports), yields identical reads and identical notifications —
        egos, values and stamps, across a ``resume_from`` reconnect and
        a WAL cold restart — while the codec counters prove the first
        run never chose pickle on the write → notify path and the
        second never chose a binary frame."""
        reads_b, rounds_b, mixes_b = _parity_workload(
            int, str(tmp_path / "packable")
        )
        reads_p, rounds_p, mixes_p = _parity_workload(
            "n{:03d}".format, str(tmp_path / "unpackable")
        )
        assert reads_b == reads_p
        assert rounds_b == rounds_p
        stamps = [stamp for _pairs, stamps in rounds_b for stamp in stamps]
        assert stamps and stamps == list(range(1, len(stamps) + 1))
        for mix in mixes_b:
            assert mix["write_frames_binary"] > 0 and mix["notes_binary"] > 0
            assert mix["write_frames_pickle"] == 0 and mix["notes_pickle"] == 0
            assert mix["ingress_bytes"] > 0 and mix["egress_bytes"] > 0
        for mix in mixes_p:
            assert mix["write_frames_pickle"] > 0 and mix["notes_pickle"] > 0
            assert mix["write_frames_binary"] == 0 and mix["notes_binary"] == 0

    def test_unpackable_batches_fall_back_per_batch(self):
        """A batch failing the packing gate (non-float value) rides the
        pickle codec; packable batches around it stay binary — results
        match a single engine either way."""
        graph = random_graph(12, 36, seed=53)
        query = make_query()
        single = EAGrEngine(
            graph, query, overlay_algorithm="identity", dataflow="all_push"
        )
        with EAGrServer(
            graph, query, num_shards=1, executor="process",
            overlay_algorithm="identity", dataflow="all_push",
        ) as server:
            nodes = list(graph.nodes())
            packable = [(n, 1.5) for n in nodes]
            unpackable = [(nodes[0], 2), (nodes[1], True)]  # ints, not floats
            for batch in (packable, unpackable, packable):
                server.write_batch(batch)
                server.drain()
                single.write_batch(batch)
            assert server.read_batch(nodes) == single.read_batch(nodes)
            mix = server.server_stats()["codec_mix"]
            assert mix["write_frames_binary"] >= 2
            assert mix["write_frames_pickle"] >= 1

    def test_poll_batch_hands_columnar_frames(self):
        from repro.serve.frames import NoteFrame

        graph = random_graph(14, 44, seed=59)
        with EAGrServer(
            graph, make_query(), num_shards=1, executor="process",
            overlay_algorithm="vnm_a",
        ) as server:
            nodes = list(graph.nodes())
            sub = server.subscribe("columnar", nodes)
            for value in (3.0, 4.0):
                server.write_batch([(n, value) for n in nodes])
                server.drain()
            items = sub.poll_batch()
            assert items and all(i.__class__ is NoteFrame for i in items)
            notes = [n for item in items for n in item.notifications()]
            stamps = [n.stamp for n in notes]
            assert stamps == list(range(1, len(notes) + 1))  # contiguous
            # interleaved get()/poll_batch() never skips or reorders
            server.write_batch([(n, 9.0) for n in nodes])
            server.drain()
            first = sub.get(timeout=10.0)
            assert first is not None and first.stamp == stamps[-1] + 1
            rest = sub.poll_batch()
            tail = [
                n
                for item in rest
                for n in (
                    item.notifications() if item.__class__ is NoteFrame else [item]
                )
            ]
            got = [first.stamp] + [n.stamp for n in tail]
            assert got == list(range(stamps[-1] + 1, stamps[-1] + 1 + len(got)))
            server.unsubscribe("columnar")

    def test_resume_slices_binary_journal_frames(self):
        """A reconnect whose ``resume_from`` lands *inside* a journaled
        NoteFrame replays exactly the frame's suffix — same stamps, same
        values as the per-object plane would have kept."""
        graph = random_graph(12, 36, seed=61)
        with EAGrServer(
            graph, make_query(), num_shards=1, executor="inprocess",
            overlay_algorithm="identity", dataflow="all_push",
        ) as server:
            nodes = list(graph.nodes())
            sub = server.subscribe("resumer", nodes)
            server.write_batch([(n, 5.0) for n in nodes])
            server.drain()
            seen = sub.poll()
            assert seen
            cut = seen[len(seen) // 2].stamp
            server.disconnect("resumer")
            server.write_batch([(n, 6.0) for n in nodes])
            server.drain()
            resumed = server.subscribe("resumer", resume_from=cut)
            replayed = resumed.poll()
            stamps = [n.stamp for n in replayed]
            assert stamps == list(range(cut + 1, cut + 1 + len(stamps)))
            # the pre-disconnect suffix replays with its original values
            for note in seen[len(seen) // 2 + 1 :]:
                assert replayed[stamps.index(note.stamp)] == note
