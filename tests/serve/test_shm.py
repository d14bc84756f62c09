"""Shared-memory serve transport: rings, zero-copy reads, lifecycle.

Half of the crash/restart schedules in ``test_crash_restart.py`` run on
the shm transport, and ``test_transport.py`` drives the one worker loop
and the worker-replacement path over it; this module covers what those
do not: the ring primitive itself, byte
parity between the queue and shm transports, the zero-copy read path and
its fallbacks, segment lifecycle (front-end-owned unlink, no leaks after
close, survival across shard restarts) and the resource-tracker warning
discipline under ``-W error::UserWarning``.
"""

import contextlib
import os
import pickle
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
    assert_no_segments,
    collect,
    disarm,
    kill_shard,
    shm_segment_names,
    wait_dead,
)

def make_query(window=None, aggregate=None):
    return EgoQuery(aggregate=aggregate or Sum(), window=window or TupleWindow(1))


def answers_reads_front_side(server, shard_id=0):
    """Whether the shard's executor serves any of its readers without a
    request (the zero-copy path) — asked through ``read_local``, the one
    question ``read_batch`` itself asks."""
    nodes = [n for n, s in server.reader_shard.items() if s == shard_id]
    positions = list(range(len(nodes)))
    leftover = server._executors[shard_id].read_local(
        nodes, positions, [None] * len(nodes), 0
    )
    return leftover != positions


# ---------------------------------------------------------------------------
# ring primitive
# ---------------------------------------------------------------------------


class TestShmRing:
    def test_fifo_and_wraparound(self):
        from repro.serve.shm import ShmRing

        ring = ShmRing("eagr_test_ring_a", capacity=256, create=True)
        try:
            consumer = ShmRing("eagr_test_ring_a", create=False)
            sent = []
            # far more traffic than capacity: forces many wraparounds
            for round_no in range(50):
                frame = pickle.dumps(("frame", round_no, "x" * (round_no % 40)))
                assert ring.try_push(frame)
                sent.append(frame)
                if round_no % 3 == 2:  # drain a few to advance head
                    while True:
                        got = consumer.try_pop()
                        if got is None:
                            break
                        assert got == sent.pop(0)
            while sent:
                assert consumer.try_pop() == sent.pop(0)
            assert consumer.try_pop() is None
            consumer.close()
        finally:
            ring.unlink()

    def test_backpressure_and_oversize(self):
        from repro.serve.shm import ShmRing

        ring = ShmRing("eagr_test_ring_b", capacity=64, create=True)
        try:
            assert ring.try_push(b"x" * 40)
            assert not ring.try_push(b"y" * 40)  # full: refuse, never drop
            assert ring.try_pop() == b"x" * 40
            assert ring.try_push(b"y" * 40)  # space reclaimed
            with pytest.raises(ValueError):
                ring.try_push(b"z" * 100)  # could never fit
        finally:
            ring.unlink()

    def test_applied_watermark_roundtrip(self):
        from repro.serve.shm import ShmRing

        ring = ShmRing("eagr_test_ring_c", capacity=64, create=True)
        try:
            assert ring.applied() == -1  # worker not booted yet
            peer = ShmRing("eagr_test_ring_c", create=False)
            peer.publish_applied(7, 42)
            assert ring.applied() == 7 and ring.stamp() == 42
            ring.reset()
            assert ring.applied() == -1
            peer.close()
        finally:
            ring.unlink()


    def test_cursor_publication_never_tears_across_processes(self):
        """Both directions of the header, hammered from two processes:
        the consumer must pop every pushed frame intact, and the applied
        watermark it publishes must never read lower than a value
        already seen.  Cursors are published with one aligned 8-byte
        store; ``struct.pack_into`` zero-filled the slot first, so the
        other side could load 0 mid-store — a consumer seeing
        ``tail == 0`` took the ring for non-empty and decoded stale
        bytes as a frame, a reader saw the watermark fall back."""
        import multiprocessing

        from repro.serve.shm import ShmRing

        context = multiprocessing.get_context("spawn")
        ring = ShmRing(f"eagr_test_ring_tear_{os.getpid()}", capacity=1 << 16)
        try:
            verdict = context.Queue()
            consumer = context.Process(
                target=_pop_numbered_frames, args=(ring.name, 1.0, verdict)
            )
            consumer.start()
            try:
                pushed = 0
                watermark = -1
                while consumer.is_alive():
                    if ring.try_push(_numbered_frame(pushed)):
                        pushed += 1
                    applied = ring.applied()
                    assert applied >= watermark, (watermark, applied)
                    watermark = applied
                found = verdict.get(timeout=10)
            finally:
                consumer.join(timeout=10)
                if consumer.is_alive():
                    consumer.kill()
                    consumer.join()
            assert found is None, found
            assert watermark > 1000  # the race window was actually exercised
        finally:
            ring.unlink()


def _numbered_frame(k: int) -> bytes:
    """Frame ``k``: its number, then a length and fill byte derived from
    it, so a stale or torn frame can never pass for the expected one."""
    return k.to_bytes(8, "little") + bytes([k % 251]) * ((k % 97) * 13)


def _pop_numbered_frames(name: str, seconds: float, verdict) -> None:
    """Consumer process of the tear test: pops for ``seconds``,
    publishing each frame's number as the applied watermark, and reports
    the first frame that is not the next numbered one."""
    import struct

    from repro.serve.shm import ShmRing

    ring = ShmRing(name, create=False)
    try:
        expect = 0
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            try:
                payload = ring.try_pop()
            except (struct.error, ValueError, IndexError) as exc:
                verdict.put(f"frame {expect}: try_pop raised {exc!r}")
                return
            if payload is None:
                continue
            if payload != _numbered_frame(expect):
                verdict.put(f"frame {expect}: popped {len(payload)} stale bytes")
                return
            ring.publish_applied(expect, expect)
            expect += 1
        verdict.put(None)
    finally:
        ring.close()


# ---------------------------------------------------------------------------
# transport resolution
# ---------------------------------------------------------------------------


class TestTransportResolution:
    def test_auto_prefers_shm_for_columnar_process(self):
        graph = random_graph(10, 28, seed=3)
        with EAGrServer(
            graph, make_query(), num_shards=1, executor="process",
            overlay_algorithm="identity", dataflow="all_push",
        ) as server:
            assert server.transport == "shm"
            assert "transport=shm" in server.describe()

    def test_inprocess_and_forced_queue_stay_on_queue(self):
        graph = random_graph(10, 28, seed=3)
        with EAGrServer(
            graph, make_query(), num_shards=2, executor="inprocess",
            overlay_algorithm="identity", dataflow="all_push",
        ) as server:
            assert server.transport == "queue"
        with EAGrServer(
            graph, make_query(), num_shards=1, executor="process",
            transport="queue",
            overlay_algorithm="identity", dataflow="all_push",
        ) as server:
            assert server.transport == "queue"

    def test_explicit_shm_demands_support(self):
        graph = random_graph(8, 20, seed=5)
        with pytest.raises(ServeError):
            EAGrServer(
                graph, make_query(), num_shards=1, executor="inprocess",
                transport="shm",
            )


# ---------------------------------------------------------------------------
# end-to-end parity and zero-copy reads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shm_deployment():
    graph = random_graph(22, 96, seed=51)
    query = make_query()
    server = EAGrServer(
        graph, query, num_shards=2, executor="process",
        overlay_algorithm="vnm_a", reply_timeout=30.0,
    )
    assert server.transport == "shm"
    yield graph, query, server
    names = shm_segment_names(server)
    server.close()
    assert_no_segments(names, tag="module deployment:")


class TestShmServing:
    def test_reads_byte_identical_and_zero_copy(self, shm_deployment):
        graph, query, server = shm_deployment
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        writes = [(n, float(i % 9)) for i, n in enumerate(nodes)] * 5
        before = server.shm_reads
        for start in range(0, len(writes), 24):
            chunk = writes[start : start + 24]
            server.write_batch(chunk)
            single.write_batch(chunk)
        # no drain: the applied watermark alone must give read-your-writes
        assert server.read_batch(nodes) == single.read_batch(nodes)
        assert server.shm_reads > before  # fast path actually served

    def test_notifications_flow_without_write_acks(self, shm_deployment):
        graph, query, server = shm_deployment
        nodes = list(graph.nodes())
        sub = server.subscribe("shm-watcher", nodes)
        server.write_batch([(nodes[0], 512.0)])
        server.drain()
        seen = collect(sub, count=1, timeout=10.0) + sub.poll()
        assert seen and all(n.subscriber == "shm-watcher" for n in seen)
        stamps = [n.stamp for n in seen]
        assert stamps == sorted(stamps)
        server.unsubscribe("shm-watcher")

    def test_server_stats_report_replication_and_transport(self, shm_deployment):
        _graph, _query, server = shm_deployment
        stats = server.server_stats()
        assert stats["transport"] == "shm"
        assert stats["assignment"] == "mincut"
        assert stats["observed_replication_factor"] >= 0.0
        assert stats["partition_epoch"] == 0
        assert stats["replication_factor"] >= 1.0
        assert stats["shm_reads"] > 0
        # per-shard stats keep their shape (one dict per shard)
        assert len(server.stats()) == server.num_shards


def test_time_windows_keep_shard_side_reads():
    """Time-window queries ride the shm transport but never the zero-copy
    read path (reads advance expiry shard-side)."""
    graph = random_graph(14, 40, seed=29)
    query = make_query(window=TimeWindow(5.0))
    single = EAGrEngine(graph, query, overlay_algorithm="identity", dataflow="all_push")
    with EAGrServer(
        graph, query, num_shards=2, executor="process",
        overlay_algorithm="identity", dataflow="all_push",
    ) as server:
        assert server.transport == "shm"
        assert not answers_reads_front_side(server)
        nodes = list(graph.nodes())
        clock = 0.0
        for i in range(6):
            clock += 2.0
            batch = [(n, float(i + 1), clock) for n in nodes[:5]]
            server.write_batch(batch)
            single.write_batch(batch)
        assert server.read_batch(nodes) == single.read_batch(nodes)
        assert server.shm_reads == 0


def test_adaptive_deployments_keep_shard_side_reads():
    """Adaptive shards need the read traffic for their observed-pull
    signal, so zero-copy reads stay off (the ring still carries writes)."""
    graph = random_graph(12, 34, seed=37)
    single = EAGrEngine(graph, make_query(), overlay_algorithm="vnm_a")
    with EAGrServer(
        graph, make_query(), num_shards=2, executor="process",
        overlay_algorithm="vnm_a", adaptive=True,
    ) as server:
        assert server.transport == "shm"
        assert not answers_reads_front_side(server)
        nodes = list(graph.nodes())
        for i in range(4):
            batch = [(n, float(i + 1)) for n in nodes]
            server.write_batch(batch)
            single.write_batch(batch)
        assert server.read_batch(nodes) == single.read_batch(nodes)
        assert server.shm_reads == 0


def test_lattice_aggregate_rides_shm():
    """MAX state (nan-encoded lattice columns) serves zero-copy too."""
    graph = random_graph(14, 40, seed=31)
    query = make_query(aggregate=Max(), window=TupleWindow(2))
    single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
    with EAGrServer(
        graph, query, num_shards=2, executor="process", overlay_algorithm="vnm_a",
    ) as server:
        assert server.transport == "shm"
        nodes = list(graph.nodes())
        for i in range(8):
            batch = [(n, float((i * 7 + j) % 13)) for j, n in enumerate(nodes)]
            server.write_batch(batch)
            single.write_batch(batch)
        assert server.read_batch(nodes) == single.read_batch(nodes)


# ---------------------------------------------------------------------------
# queue-transport regression coverage (the fallback must stay healthy)
# ---------------------------------------------------------------------------


def test_forced_queue_transport_stays_byte_identical():
    graph = random_graph(16, 56, seed=43)
    query = make_query()
    single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
    with EAGrServer(
        graph, query, num_shards=2, executor="process", transport="queue",
        overlay_algorithm="vnm_a",
    ) as server:
        nodes = list(graph.nodes())
        for start in range(0, len(nodes), 6):
            chunk = [(n, 2.5) for n in nodes[start : start + 6]]
            server.write_batch(chunk)
            single.write_batch(chunk)
        server.drain()
        assert server.read_batch(nodes) == single.read_batch(nodes)
        assert server.shm_reads == 0


# ---------------------------------------------------------------------------
# crash/restart on the shm path (re-attach + ring reset)
# ---------------------------------------------------------------------------


def test_crash_restart_reattaches_segments():
    """A killed worker's successor adopts the value segment and the reset
    ring; recovered reads are byte-equal and the zero-copy path still
    serves afterwards — all through the faultlib kill-point harness."""
    graph = random_graph(12, 36, seed=67)
    query = make_query()
    single = EAGrEngine(
        graph, query, overlay_algorithm="identity", dataflow="all_push"
    )
    server = EAGrServer(
        graph, query, num_shards=1, executor="process",
        overlay_algorithm="identity", dataflow="all_push", reply_timeout=30.0,
    )
    names = shm_segment_names(server)
    try:
        assert server.transport == "shm"
        nodes = list(graph.nodes())
        batches = [[(n, float(i + 1)) for n in nodes] for i in range(4)]
        server.write_batch(batches[0])
        single.write_batch(batches[0])
        server.checkpoint()
        arm_kill_point(server, 0, after=1, rng_tag="shm reattach")
        server.write_batch(batches[1])  # applied, then the worker dies
        single.write_batch(batches[1])
        wait_dead(server, 0)
        server.write_batch(batches[2])  # accepted while dead: redo log
        single.write_batch(batches[2])
        disarm(server, 0)
        server.restart_shard(0)
        server.write_batch(batches[3])
        single.write_batch(batches[3])
        before = server.shm_reads
        assert server.read_batch(nodes) == single.read_batch(nodes)
        assert server.shm_reads > before  # fast path healthy post-restart
    finally:
        server.close()
    assert_no_segments(names, tag="crash/restart:")


def test_failed_write_batch_does_not_wedge_zero_copy_reads():
    """A batch that raises shard-side (poison value) must advance the
    processed watermark anyway: later reads answer instead of spinning
    toward the reply timeout, and the failure still surfaces at drain."""
    import time

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


def test_dead_worker_read_fails_fast_on_shm_path():
    graph = random_graph(10, 30, seed=71)
    server = EAGrServer(
        graph, make_query(), num_shards=1, executor="process",
        overlay_algorithm="identity", dataflow="all_push", reply_timeout=30.0,
    )
    try:
        import time

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
assert server.transport == "shm"
nodes = list(graph.nodes())
server.write_batch([(n, 1.0) for n in nodes])
assert server.read_batch(nodes)
server.restart_shard(0)  # attach-after-create in a fresh worker epoch
server.drain()
server.close()
print("tracker-clean")
"""


def test_no_resource_tracker_warnings_on_clean_shutdown():
    """Boot, restart and close a full shm deployment in a subprocess with
    every UserWarning fatal: a double-registered (or double-unlinked)
    segment would crash the run or leak tracker stderr noise."""
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
        assert server.transport == "shm"
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


class TestWaitAppliedLiveness:
    """``wait_applied`` (the ring transport's watermark wait, the read
    barrier of ``read_local``) must never outlive its worker: a death mid-wait fails fast with ServeError, far
    inside ``reply_timeout``, and a worker that applied everything
    before exiting still serves the completed columns."""

    def test_dead_worker_fails_fast_not_at_reply_timeout(self):
        graph = random_graph(18, 60, seed=61)
        server = EAGrServer(
            graph, make_query(), num_shards=1, executor="process",
            overlay_algorithm="vnm_a", reply_timeout=60.0,
        )
        try:
            assert server.transport == "shm"
            nodes = list(graph.nodes())
            server.write_batch([(n, 1.0) for n in nodes])
            server.drain()
            # Wait on a batch the worker never got (the one write above
            # was batch 1) with the worker killed mid-wait: the liveness
            # check must end the spin long before the 60s reply deadline
            # would.
            kill_shard(server, 0)
            ex = server._executors[0]
            start = time.monotonic()
            with pytest.raises(ServeError, match="died before applying"):
                ex.transport.wait_applied(2, ex.alive)
            assert time.monotonic() - start < 10.0
        finally:
            with contextlib.suppress(ServeError):
                server.close()

    def test_applied_then_exited_columns_still_serve(self):
        graph = random_graph(18, 60, seed=62)
        server = EAGrServer(
            graph, make_query(), num_shards=1, executor="process",
            overlay_algorithm="vnm_a", reply_timeout=60.0,
        )
        try:
            nodes = list(graph.nodes())
            server.write_batch([(n, 4.0) for n in nodes])
            server.drain()  # watermark covers every batch
            kill_shard(server, 0)
            # target already applied: the wait is a no-op even though the
            # worker is gone
            ex = server._executors[0]
            ex.transport.wait_applied(1, ex.alive)
        finally:
            with contextlib.suppress(ServeError):
                server.close()

    def test_kill_point_mid_write_read_raises_promptly(self):
        """End to end: the worker dies on *receiving* a batch; a read
        behind that batch surfaces ServeError promptly instead of
        hanging toward the reply timeout."""
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
            # the shm fast path raises ServeError from wait_applied; a
            # death noticed before the wait falls back to the queue path,
            # whose executor raises RuntimeError — both are prompt
            with pytest.raises((ServeError, RuntimeError)):
                server.read_batch(nodes)
            assert time.monotonic() - start < 20.0
        finally:
            with contextlib.suppress(ServeError):
                server.close()
