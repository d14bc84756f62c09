"""EAGrServer behavior on the deterministic in-process executor.

Everything here runs without worker processes: the in-process executor
dispatches each request synchronously, so these tests pin down routing,
equivalence, subscription, coalescing and shutdown semantics with no
scheduling nondeterminism.  The process-boundary behavior of the same
code paths is covered in ``test_executors.py``.
"""

import pytest

from repro.core.aggregates import Mean, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery, Neighborhood
from repro.core.statestore import WriteFrame
from repro.core.windows import TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import paper_figure1, random_graph
from repro.serve import EAGrServer, ServeError
from repro.serve.messages import OP_READ

from tests.conftest import make_events, suite_generator
from tests.serve.faultlib import collect, refuse_submits


def make_server(graph, query, num_shards=2, **kwargs):
    kwargs.setdefault("executor", "inprocess")
    kwargs.setdefault("overlay_algorithm", "vnm_a")
    return EAGrServer(graph, query, num_shards=num_shards, **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_reads_match_single_engine(self, num_shards):
        graph = random_graph(30, 140, seed=81)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(2))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        with make_server(graph, query, num_shards=num_shards) as server:
            events = make_events(list(graph.nodes()), 400, seed=82)
            batch = []
            for event in events:
                if hasattr(event, "value"):
                    batch.append((event.node, event.value, event.timestamp))
                else:
                    if batch:
                        server.write_batch(batch)
                        single.write_batch(batch)
                        batch = []
                    assert server.read(event.node) == single.read(event.node)
            if batch:
                server.write_batch(batch)
                single.write_batch(batch)
            nodes = list(graph.nodes())
            assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_object_aggregate_across_shards(self):
        graph = random_graph(25, 100, seed=83)
        query = EgoQuery(aggregate=TopK(3), window=TupleWindow(3))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        with make_server(graph, query, num_shards=3) as server:
            writes = [
                (n, float(i % 5)) for i, n in enumerate(graph.nodes())
            ] * 3
            server.write_batch(writes)
            single.write_batch(writes)
            nodes = list(graph.nodes())
            assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_unknown_reader_returns_identity(self):
        graph = paper_figure1()
        with make_server(graph, EgoQuery(aggregate=Sum())) as server:
            assert server.read("ghost") == 0.0
            assert server.read_batch(["ghost", "a"])[0] == 0.0

    def test_user_predicate_folds_into_partition(self):
        graph = paper_figure1()
        query = EgoQuery(aggregate=Sum(), predicate=lambda v: v in ("a", "b"))
        with make_server(graph, query) as server:
            assert set(server.reader_shard) == {"a", "b"}
            server.write_batch([("d", 5.0)])
            assert server.read("a") == 5.0
            assert server.read("g") == 0.0  # filtered reader


class TestSubscriptions:
    def test_notifies_exactly_changed_egos(self):
        graph = random_graph(30, 140, seed=85)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        oracle = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=3) as server:
            warm = [(n, 1.0) for n in nodes]
            server.write_batch(warm)
            oracle.write_batch(warm)
            server.drain()
            sub = server.subscribe("watcher", nodes)
            assert sub.snapshot == dict(zip(nodes, oracle.read_batch(nodes)))
            assert sub.poll() == []  # baseline produces no notifications

            before = dict(zip(nodes, oracle.read_batch(nodes)))
            batch = [(nodes[0], 4.0), (nodes[7], 2.5)]
            server.write_batch(batch)
            oracle.write_batch(batch)
            server.drain()
            after = dict(zip(nodes, oracle.read_batch(nodes)))
            expected = {n for n in nodes if before[n] != after[n]}

            notes = sub.poll()
            assert {note.ego for note in notes} == expected
            for note in notes:
                assert note.value == after[note.ego]
                assert note.subscriber == "watcher"

    def test_stamps_strictly_monotone_per_subscriber(self):
        graph = random_graph(30, 140, seed=86)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=4) as server:
            sub = server.subscribe("w", nodes)
            for round_ in range(5):
                server.write_batch([(n, float(round_ + 2)) for n in nodes[:9]])
            server.drain()
            notes = sub.poll()
            assert notes
            stamps = [note.stamp for note in notes]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)

    def test_unsubscribe_stops_delivery(self):
        graph = random_graph(20, 80, seed=87)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query) as server:
            sub = server.subscribe("w", nodes)
            server.write_batch([(nodes[0], 2.0)])
            server.drain()
            assert sub.poll()
            server.unsubscribe("w")
            server.write_batch([(nodes[0], 9.0)])
            server.drain()
            assert sub.poll() == []

    def test_partial_unsubscribe_keeps_other_egos(self):
        graph = random_graph(20, 80, seed=88)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query) as server:
            server.write_batch([(n, 1.0) for n in nodes])
            server.drain()
            sub = server.subscribe("w", nodes)
            server.unsubscribe("w", [nodes[0]])
            server.write_batch([(n, 5.0) for n in nodes])
            server.drain()
            egos = {note.ego for note in sub.poll()}
            assert nodes[0] not in egos
            assert egos  # other egos still notify

    def test_two_subscribers_stamped_independently(self):
        graph = random_graph(20, 80, seed=89)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query) as server:
            sub_a = server.subscribe("a", nodes)
            sub_b = server.subscribe("b", nodes[:5])
            server.write_batch([(n, 3.0) for n in nodes])
            server.drain()
            notes_a, notes_b = sub_a.poll(), sub_b.poll()
            assert notes_a and notes_b
            assert [n.stamp for n in notes_a] == list(
                range(1, len(notes_a) + 1)
            )
            assert [n.stamp for n in notes_b] == list(
                range(1, len(notes_b) + 1)
            )

    def test_mean_notification_values_finalized(self):
        graph = random_graph(20, 80, seed=90)
        query = EgoQuery(aggregate=Mean(), window=TupleWindow(2))
        oracle = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(graph, query) as server:
            sub = server.subscribe("w", nodes)
            batch = [(n, float(i % 3)) for i, n in enumerate(nodes)]
            server.write_batch(batch)
            oracle.write_batch(batch)
            server.drain()
            after = dict(zip(nodes, oracle.read_batch(nodes)))
            for note in sub.poll():
                assert note.value == after[note.ego]


class TestCoalescingAndBackpressure:
    def test_backed_up_shard_coalesces_without_loss(self):
        graph = random_graph(25, 100, seed=91)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            # Simulate a backed-up shard: refuse N non-blocking submits.
            with refuse_submits(server._executors[0], 3):
                for i in range(6):
                    batch = [(n, float(i + 1)) for n in nodes]
                    server.write_batch(batch)
                    single.write_batch(batch)
                assert server.coalesced_flushes >= 1
                # Reads force a blocking flush: nothing was dropped.
                assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_background_flusher_delivers_parked_writes(self):
        """A refused flush retries from the flusher thread: an idle
        producer's subscribers still get notified without further calls."""
        graph = random_graph(20, 80, seed=95)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=1) as server:
            sub = server.subscribe("w", nodes)
            with refuse_submits(server._executors[0], 2) as refusals:
                server.write_batch([(nodes[0], 42.0)])
                # No further server calls: only the flusher can deliver.
                notes = collect(sub, count=1, timeout=10.0)
                assert notes
                assert refusals["left"] == 0

    def test_coalesce_cap_forces_blocking_flush(self):
        graph = random_graph(20, 80, seed=92)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(
            graph, query, num_shards=1, coalesce_max=4
        ) as server:
            with refuse_submits(server._executors[0], 10**9):
                for i in range(12):
                    server.write_batch([(nodes[0], float(i))])
                # The cap bounded the outbox: a blocking flush happened.
                assert server._parked_rows(0) < 12
            server.flush()

    def test_accept_blocks_at_the_coalesce_cap(self):
        """``accept`` leaves the fan-out to the flusher, but not without
        bound: once a stuck shard's outbox holds ``coalesce_max`` rows,
        the next ack waits for the shard."""
        import threading
        import time

        graph = random_graph(20, 80, seed=93)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        oracle = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        held, release = threading.Event(), threading.Event()
        with make_server(graph, query, num_shards=1, coalesce_max=4) as server:
            writer = next(n for n in nodes if server.writer_shards.get(n))
            sub = server.subscribe("w", nodes)

            def hook():
                held.set()
                release.wait(30.0)

            sub.on_delivery = hook
            try:
                first = [(writer, 1.0)]  # below the cap: no inline flush
                server.accept(first)
                oracle.write_batch(first)
                # The flusher is now stuck delivering, its flush lock held.
                assert held.wait(10.0)
                batches = [[(writer, float(i + 2))] for i in range(8)]
                acks = []
                pump = threading.Thread(
                    target=lambda: [acks.append(server.accept(b)) for b in batches]
                )
                pump.start()
                time.sleep(0.5)
                # Three one-row acks park three rows; the fourth fills the
                # outbox to the cap and waits.
                assert pump.is_alive() and acks == [1, 1, 1]
                assert server._parked_rows(0) == 4
                release.set()
                pump.join(timeout=10.0)
                assert not pump.is_alive() and acks == [1] * 8
            finally:
                release.set()
            for batch in batches:
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)


class TestPackabilityPicksTheRoute:
    """Whether a batch packs is the only thing that selects its route."""

    def test_suite_schedules_split_byte_equal_and_never_pickle(self):
        """The benchmark's own two-shard deployment (``gen.GRAPH_SEED``
        graph, default min-cut placement, a fifth of the writers
        multicast): every batch of the ``serve_feed`` and
        ``durable_ingest`` schedules splits into per-shard subframes
        byte-equal to what the per-item loop files, multicast rows
        included, and after the run the codec counters show no write
        batch and no notification on the pickle codec."""
        gen = suite_generator()
        feed = gen.generate(gen.SPECS["serve_feed"], seed=1)
        ingest = gen.generate(gen.SPECS["durable_ingest"], seed=1)
        assert feed.edges == ingest.edges  # one deployment, two schedules
        query = EgoQuery(
            aggregate=Sum(),
            window=TupleWindow(1),
            neighborhood=Neighborhood.in_neighbors(),
        )
        schedules = {
            "durable_ingest": [
                batch
                for thread in range(ingest.spec.writers)
                for batch in ingest.write_batches(thread)
            ],
            "serve_feed": feed.write_batches(0),
        }
        graph = DynamicGraph.from_edges(feed.edges)
        with make_server(graph, query, dataflow="mincut") as server:
            writer_shards = server.writer_shards
            multicast = {w for w, s in writer_shards.items() if len(s) > 1}
            hit = total = 0
            for workload, batches in schedules.items():
                if workload == "serve_feed":  # the one with subscriptions
                    for index, egos in enumerate(feed.watch):
                        server.subscribe(f"s{index}", egos)
                for batch in batches:
                    reference = {}
                    for triple in batch:
                        for shard_id in writer_shards.get(triple[0], ()):
                            reference.setdefault(shard_id, []).append(triple)
                    parts = server._router.split(
                        WriteFrame.from_items(batch), server._router.routes()
                    )
                    assert sorted(parts) == sorted(reference)
                    for shard_id, triples in reference.items():
                        expected = WriteFrame.from_items(triples)
                        assert parts[shard_id].tobytes() == expected.tobytes()
                    hit += any(triple[0] in multicast for triple in batch)
                    assert server.write_batch(batch) == len(batch)
                total += len(batches)
            server.drain()
            # the parent routed 2/240 and 0/1 024 of these columnar
            assert hit > 0.9 * total
            mix = server.server_stats()["codec_mix"]
            assert mix["write_frames_pickle"] == 0 and mix["notes_pickle"] == 0
            assert mix["write_frames_binary"] >= total
            assert mix["notes_binary"] > 0

    def test_timestampless_batch_reaches_the_outbox_packed(self):
        """``(node, value)`` pairs are stamped by the server, then get
        their one pack attempt at the door: what parks in the outbox of
        a backed-up shard is already the frame the shard will decode."""
        graph = random_graph(20, 80, seed=93)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        with make_server(graph, query, num_shards=1) as server:
            with refuse_submits(server._executors[0], 10**9):
                for batch in (
                    [(n, 1.5) for n in nodes],
                    [(n, 2.5, None) for n in nodes],
                ):
                    server.write_batch(batch)
                    single.write_batch(batch)
                outbox = [items for _seq, items in server._wal.state.rounds[0]]
                assert outbox
                assert all(seg.__class__ is WriteFrame for seg in outbox)
                stamps = [t for seg in outbox for t in seg.timestamps.tolist()]
                assert stamps == [float(i + 1) for i in range(2 * len(nodes))]
            assert server.read_batch(nodes) == single.read_batch(nodes)
            mix = server.server_stats()["codec_mix"]
            assert mix["write_frames_pickle"] == 0


class TestDurability:
    """Checkpoint/restart and resume on the deterministic executor (the
    process-boundary versions live in test_crash_restart.py)."""

    def test_killed_shard_restarts_exactly_from_checkpoint(self):
        graph = random_graph(24, 110, seed=181)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            sub = server.subscribe("w", nodes)
            for value in (1.0, 2.0):
                batch = [(n, value) for n in nodes]
                server.write_batch(batch)
                single.write_batch(batch)
            server.checkpoint()
            batch = [(n, 5.0) for n in nodes]
            server.write_batch(batch)  # post-checkpoint: redo-log only
            single.write_batch(batch)
            server.drain()
            seen = sub.poll()
            server._executors[0].kill()  # all shard-0 state gone
            assert not server._executors[0].alive()
            replayed = server.restart_shard(0)
            assert replayed >= 1
            server.drain()
            # exact recovery: reads match the never-crashed oracle ...
            assert server.read_batch(nodes) == single.read_batch(nodes)
            # ... and no notification was re-delivered for the replay:
            # the suppression path engaged for shard 0's re-derived notices
            assert sub.poll() == []
            assert server.notifications_suppressed >= 1
            assert server.restarts == 1
            # the stream continues seamlessly
            server.write_batch([(nodes[0], 9.0)])
            server.drain()
            more = sub.poll()
            assert more
            stamps = [n.stamp for n in seen + more]
            assert stamps == list(range(1, len(stamps) + 1))

    def test_writes_accepted_while_dead_survive_restart(self):
        graph = random_graph(20, 80, seed=182)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            server._executors[0].kill()
            for value in (1.0, 4.0):  # accepted into outbox/redo while dead
                batch = [(n, value) for n in nodes]
                server.write_batch(batch)
                single.write_batch(batch)
            server.restart_shard(0)
            server.drain()
            assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_resume_replays_notifications_counter(self):
        graph = random_graph(20, 80, seed=183)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            sub = server.subscribe("w", nodes)
            server.write_batch([(n, 2.0) for n in nodes])
            server.drain()
            seen = sub.poll()
            assert seen
            server.disconnect("w")
            server.write_batch([(n, 6.0) for n in nodes])
            server.drain()
            assert sub.poll() == []  # severed queue stays silent
            resumed = server.subscribe("w", resume_from=seen[-1].stamp)
            replay = resumed.poll()
            assert replay
            assert server.notifications_replayed == len(replay)
            assert [n.stamp for n in seen + replay] == list(
                range(1, len(seen) + len(replay) + 1)
            )

    def test_ack_releases_journal_prefix(self):
        graph = random_graph(20, 80, seed=184)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            sub = server.subscribe("w", nodes)
            server.write_batch([(n, 3.0) for n in nodes])
            server.drain()
            notes = sub.poll()
            released = server.ack("w", notes[-1].stamp)
            assert released == len(notes)
            server.disconnect("w")
            # resuming below the acked mark is a hard error, not a gap
            from repro.serve import ResumeGapError

            with pytest.raises(ResumeGapError):
                server.subscribe("w", resume_from=0)
            server.subscribe("w", resume_from=notes[-1].stamp)

    def test_plain_subscribe_after_disconnect_reattaches_queue(self):
        """The documented ResumeGapError recovery path — re-baseline with
        a plain subscribe — must restore live delivery, not return a
        handle wired to a severed queue."""
        graph = random_graph(20, 80, seed=186)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            server.subscribe("w", nodes)
            server.write_batch([(n, 2.0) for n in nodes])
            server.drain()
            server.disconnect("w")
            fresh = server.subscribe("w", nodes)  # re-baseline, no resume
            server.write_batch([(n, 7.0) for n in nodes])
            server.drain()
            assert fresh.poll()  # live again

    def test_ack_beyond_delivered_rejected(self):
        graph = random_graph(20, 80, seed=187)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            sub = server.subscribe("w", nodes)
            server.write_batch([(n, 2.0) for n in nodes])
            server.drain()
            notes = sub.poll()
            with pytest.raises(ValueError):
                server.ack("w", notes[-1].stamp + 1000)
            # the journal is unharmed: delivery continues
            server.write_batch([(n, 8.0) for n in nodes])
            server.drain()
            more = sub.poll()
            assert more and more[0].stamp == notes[-1].stamp + 1

    def test_auto_checkpoint_skips_dead_shard(self):
        """With checkpoint_interval armed, writes to a dead shard keep
        parking (no raise from the auto-checkpoint path) until restart."""
        graph = random_graph(20, 80, seed=188)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(
            graph, query, num_shards=2, checkpoint_interval=2
        ) as server:
            server._executors[0].kill()
            for i in range(6):  # well past the interval
                batch = [(n, float(i + 1)) for n in nodes]
                server.write_batch(batch)
                single.write_batch(batch)
            server.restart_shard(0)
            server.drain()
            assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_a_checkpoint_restores_the_same_state_every_time(self):
        """Two restarts from one checkpoint.  An in-process host used to
        adopt the checkpoint's window buffers as its live ones, so the
        writes after the first restart edited the restart baseline and
        the second restart replayed them on top of themselves — which
        shows once the window is longer than the replay: [1, 2, 4]
        restored as [1, 2, 4] + replay of 2, 4 sums [4, 2, 4]."""
        graph = random_graph(20, 80, seed=186)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(3))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(graph, query, num_shards=2) as server:
            for step, value in enumerate((1.0, 2.0, 4.0)):
                batch = [(n, value) for n in nodes]
                server.write_batch(batch)
                single.write_batch(batch)
                if step == 0:
                    server.checkpoint()
                else:
                    assert server.restart_shard(0) == step
                assert server.read_batch(nodes) == single.read_batch(nodes)

    def test_auto_checkpoint_bounds_redo_log(self):
        graph = random_graph(20, 80, seed=185)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        with make_server(
            graph, query, num_shards=2, checkpoint_interval=3
        ) as server:
            for i in range(12):
                server.write_batch([(n, float(i + 1)) for n in nodes])
            state = server._wal.state
            assert all(
                len(log) <= 3 for log in state.redo.values()
            ), [len(log) for log in state.redo.values()]
            assert set(state.checkpoints) == {0, 1}

    def test_racing_checkpointers_lose_no_batch(self):
        """The flusher (after ``accept``) and a ``write_batch`` caller both
        find a shard due.  The flusher's snapshot is taken first but its
        ``C`` record lands second; it must not replace the newer one,
        whose fold already dropped the batch between them from redo."""
        import threading

        graph = random_graph(20, 80, seed=187)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        with make_server(
            graph, query, num_shards=1, checkpoint_interval=1
        ) as server:
            snapped, logged, stale = (threading.Event() for _ in range(3))
            await_, append = server._await, server._wal.append

            def flusher_snapshot_then_stall(calls):
                replies = await_(calls)
                if threading.current_thread().name == "eagr-server-flusher":
                    if not snapped.is_set():
                        snapped.set()
                        logged.wait(10.0)
                return replies

            def append_and_note(record, sync=False):
                append(record, sync=sync)
                if record[0] == "C" and snapped.is_set():
                    if threading.current_thread().name == "eagr-server-flusher":
                        stale.set()
                    else:
                        logged.set()

            server._await = flusher_snapshot_then_stall
            server._wal.append = append_and_note
            first, second = ([(n, value) for n in nodes] for value in (1.0, 2.0))
            server.accept(first)
            assert snapped.wait(10.0), "the flusher never checkpointed"
            server.write_batch(second)  # checkpoints batch 2 and logs it
            assert stale.wait(10.0), "the flusher never logged its snapshot"
            for batch in (first, second):
                single.write_batch(batch)
            server.drain()
            assert server._wal.state.checkpoints[0].applied_through == 2
            server._executors[0].kill()
            server.restart_shard(0)
            server.drain()
            assert server.read_batch(nodes) == single.read_batch(nodes)


class TestLifecycle:
    def test_close_flushes_pending_writes(self):
        graph = random_graph(20, 80, seed=93)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        server = make_server(graph, query, num_shards=2)
        nodes = list(graph.nodes())
        ex = server._executors[0]
        ex.try_submit = lambda request: False  # trap writes in the outbox
        server.write_batch([(n, 2.0) for n in nodes])
        assert any(server._wal.state.rounds.values())
        ex.try_submit = lambda request: (ex.submit(request), True)[1]
        server.close()
        # In-process executors keep their host alive after close: the
        # trapped writes must have reached the shard engines.
        applied = sum(h.engine.counters.writes for h in
                      (e.host for e in server._executors))
        assert applied > 0
        server.close()  # idempotent

    def test_closed_server_rejects_requests(self):
        graph = paper_figure1()
        server = make_server(graph, EgoQuery(aggregate=Sum()))
        server.close()
        with pytest.raises(RuntimeError):
            server.write_batch([("c", 1.0)])
        with pytest.raises(RuntimeError):
            server.read("a")
        with pytest.raises(RuntimeError):
            server.subscribe("w", ["a"])

    def test_async_write_error_surfaces_on_drain(self):
        graph = paper_figure1()
        server = make_server(graph, EgoQuery(aggregate=Sum()))
        # Inject a malformed read request directly: the shard replies
        # R_ERR with no waiting caller, which drain() must surface.
        server._executors[0].submit((OP_READ, server._next_seq(), None))
        with pytest.raises(ServeError):
            server.drain()
        server.drain()  # errors were consumed; barrier is clean again
        server.close()


class TestIntrospection:
    def test_stats_and_describe(self):
        graph = random_graph(25, 100, seed=94)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        with make_server(graph, query, num_shards=3) as server:
            server.write_batch([(n, 1.0) for n in graph.nodes()])
            server.drain()
            stats = server.stats()
            assert len(stats) == 3
            assert sum(s["writes"] for s in stats) == server.writes_delivered
            assert sum(server.shard_sizes()) == len(server.reader_shard)
            assert server.replication_factor >= 1.0
            assert "EAGrServer" in server.describe()


class TestSubscriptionGetDeadline:
    def test_never_notified_get_returns_none_within_bound(self):
        """``get(timeout=...)`` on a subscription that is never notified
        must return ``None`` no later than its absolute deadline."""
        import time

        graph = paper_figure1()
        with make_server(graph, EgoQuery(aggregate=Sum())) as server:
            sub = server.subscribe("quiet", ["a"])
            t0 = time.monotonic()
            assert sub.get(timeout=0.4) is None
            elapsed = time.monotonic() - t0
            assert 0.35 <= elapsed < 2.0, elapsed

    def test_zero_and_negative_timeouts_do_not_block(self):
        import time

        graph = paper_figure1()
        with make_server(graph, EgoQuery(aggregate=Sum())) as server:
            sub = server.subscribe("quiet", ["a"])
            t0 = time.monotonic()
            assert sub.get(timeout=0.0) is None
            assert sub.get(timeout=-1.0) is None
            assert time.monotonic() - t0 < 1.0


class TestFlushFailurePoisonsServer:
    """An acked write must be durable: the first *background* flush
    failure has to stop ``write_batch`` from succeed-acking further
    batches (the same contract as a WAL fsync failure), until
    ``restart_shard`` recovers the shard."""

    def test_flush_failure_blocks_later_acks_until_restart(self):
        import time

        from tests.serve.faultlib import wait_until

        graph = random_graph(20, 80, seed=95)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        server = make_server(graph, query, num_shards=2)
        try:
            nodes = list(graph.nodes())
            ex = server._executors[0]
            original = ex.try_submit
            # Step 1: park a batch in shard 0's outbox (refused submit).
            ex.try_submit = lambda request: False
            server.write_batch([(n, 1.0) for n in nodes])
            assert server._wal.state.rounds[0]
            # Step 2: the flush retry hits a hard failure, not a refusal.
            def explode(request):
                raise OSError("injected: shard transport broken")

            ex.try_submit = explode
            wait_until(
                lambda: server._poisoned is not None,
                desc="flush failure poisons the server",
            )
            # Step 3: no write may succeed-ack behind the failed flush.
            with pytest.raises(ServeError, match="poisoned"):
                server.write_batch([(nodes[0], 2.0)])
            with pytest.raises(ServeError):
                server.drain()
            # Step 4: restart_shard is the recovery path: it replays the
            # redo log, clears the failure, and acceptance resumes.
            ex.try_submit = original
            server.restart_shard(0)
            assert server._poisoned is None
            server.write_batch([(nodes[0], 3.0)])
            server.drain()
            assert server.read(nodes[0]) is not None
        finally:
            server.close()

    def test_poison_is_first_failure_wins_across_shards(self):
        from tests.serve.faultlib import wait_until

        graph = random_graph(20, 80, seed=96)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        server = make_server(graph, query, num_shards=2)
        try:
            nodes = list(graph.nodes())
            for shard_id in (0, 1):
                ex = server._executors[shard_id]
                ex.try_submit = lambda request: False
            server.write_batch([(n, 1.0) for n in nodes])
            for shard_id in (0, 1):
                def explode(request):
                    raise OSError("injected")

                server._executors[shard_id].try_submit = explode
            wait_until(
                lambda: server._flush_failed == {0, 1},
                desc="both shards marked failed",
            )
            # recovery of only one shard keeps the server poisoned
            server.restart_shard(0)
            assert server._poisoned is not None
            with pytest.raises(ServeError, match="poisoned"):
                server.write_batch([(nodes[0], 2.0)])
            server.restart_shard(1)
            assert server._poisoned is None
            server.write_batch([(nodes[0], 2.0)])
            # the injected failures are still on record; one drain
            # surfaces and consumes them, after which the barrier is clean
            with pytest.raises(ServeError):
                server.drain()
            server.drain()
        finally:
            server.close()

    def test_failed_fan_out_after_accept_is_not_silent(self):
        """``accept`` acks before the fan-out, so a fan-out that fails on
        the flusher has no caller to raise in: it must poison acceptance,
        surface at ``drain``, and leave the acked batch replayable."""
        from tests.serve.faultlib import wait_until

        graph = random_graph(20, 80, seed=97)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        server = make_server(graph, query, num_shards=2)
        oracle = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        try:
            nodes = list(graph.nodes())

            def explode(request):
                raise OSError("injected: fan-out broken")

            for ex in server._executors:
                ex.try_submit = explode
            batch = [(n, float(i % 5 + 1), 1.0) for i, n in enumerate(nodes)]
            assert server.accept(batch) == len(batch)
            oracle.write_batch(batch)
            wait_until(
                lambda: server._poisoned is not None,
                desc="the flusher's fan-out failure poisons the server",
            )
            with pytest.raises(ServeError, match="poisoned"):
                server.accept([(nodes[0], 2.0)])
            with pytest.raises(ServeError, match="poisoned"):
                server.write_batch([(nodes[0], 2.0)])
            with pytest.raises(ServeError, match="background flush failed"):
                server.drain()
            failed = sorted(server._flush_failed)
            assert failed
            for shard_id in failed:
                assert server.restart_shard(shard_id) >= 1  # the acked batch
            assert server._poisoned is None
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
        finally:
            server.close()


class TestInProcessSerialization:
    """The synchronous executor must honor the worker-loop contract.

    The queue transports serialize every shard request through a
    single-threaded loop; ``InProcessShardExecutor`` runs requests on
    the *calling* thread instead, so concurrent front-end callers (the
    gateway's call pool is the first real one) would interleave inside
    the shard host's unguarded engine state without an explicit lock.
    """

    def test_concurrent_control_calls_never_overlap_in_host(self):
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor as Pool

        graph = random_graph(40, 200, seed=11)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        server = EAGrServer(
            graph, query, num_shards=2, executor="inprocess",
            overlay_algorithm="vnm_a",
        )
        try:
            nodes = list(graph.nodes())
            notifiable = [n for n in nodes if graph.in_degree(n) > 0]
            guard = threading.Lock()
            overlaps = []

            def instrument(host):
                # Serialization is per shard: two shards may (and do)
                # run concurrently, but no two requests may interleave
                # inside one host.
                orig = host.handle
                overlap = {"active": 0, "max": 0}
                overlaps.append(overlap)

                def spy(request):
                    with guard:
                        overlap["active"] += 1
                        overlap["max"] = max(
                            overlap["max"], overlap["active"]
                        )
                    try:
                        time.sleep(0.001)  # widen any unserialized window
                        return orig(request)
                    finally:
                        with guard:
                            overlap["active"] -= 1

                host.handle = spy

            for shard_id in range(server.num_shards):
                instrument(server._executors[shard_id].host)

            def hammer(i):
                node = notifiable[i % len(notifiable)]
                server.subscribe(f"c{i}", [node])
                return server.read_batch([node])

            with Pool(max_workers=8) as pool:
                list(pool.map(hammer, range(64)))
            server.write_batch([(n, 5.0, 5.0) for n in nodes])
            server.drain()

            for shard_id, overlap in enumerate(overlaps):
                assert overlap["max"] == 1, (
                    f"{overlap['max']} threads interleaved inside "
                    f"shard {shard_id}'s host"
                )
            # every subscriber's watched ego changed once: one delivery each
            for i in range(64):
                stamp = server.last_stamp(f"c{i}")
                assert stamp == 1, (f"c{i}", stamp)
        finally:
            server.close()
