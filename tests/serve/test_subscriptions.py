"""The subscription plane's failure edges (``repro.serve.subscriptions``).

Three regressions from the issue, each failing at the commit before its fix:

* one subscriber's journal failure used to cost *other* subscribers the
  notification for good (their filters already said "seen") and to tear
  the failing subscriber's own stamp sequence;
* a failed ``resume_from`` on a subscriber nobody had ever seen used to
  register it anyway — a live queue, a counted journal, a file on disk;
* ``unsubscribe(nodes=[...])`` resolved the owning shard once, so a
  ``reshard`` racing it sent ``OP_UNSUBSCRIBE`` to the shard the ego had
  just left while the ledger forgot the watch everywhere.

A fourth was found by that file's walk rather than listed up front: a
worker rebuilt from a checkpoint older than an ``unsubscribe`` came back
still watching (and diffing) what had been unsubscribed since.  A fifth
came out of review: a full ``unsubscribe`` landing between a subscribe's
shard reply and its ``S`` record put a stateless subscriber back in the
registry, and every later report on that ego raised for everyone.

The invariant these follow from — who-watches-what is the ledger's fold
and nothing else — is walked in ``test_ledger.py``.

Three more lost updates had one cause — a per-ego request resolved its
owner at one moment and was sent at another — and each fails at the
commit before per-ego requests were sent under the owning shards' flush
locks: a write applied between a subscribe's shard reply and its ``S``
record never reached the new subscriber; a reshard in that window filed
the watch under the shard the ego had just left; a reshard between a
read's owner resolution and its ``OP_READ`` read the identity from the
old owner.  The hold's failure edges ride along: a dead worker releases
every lock, and a writer never waits on a subscribe.
"""

import os
import threading

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer, ResumeGapError, ServeError
from repro.serve.messages import OP_READ, OP_SUBSCRIBE

from tests.serve.faultlib import fail_journal_once

ENGINE = dict(overlay_algorithm="identity", dataflow="all_push")


def make_env(seed=19):
    graph = random_graph(12, 40, seed=seed)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    return graph, query, sorted(graph.nodes())


def watched_ego(server, shard_id=None):
    """A reader whose value every all-nodes write changes."""
    for ego in sorted(server.reader_shard):
        owned = shard_id is None or server.reader_shard[ego] == shard_id
        if owned and list(server.query.neighborhood(server.graph, ego)):
            return ego
    raise AssertionError("no reader with a non-empty neighborhood")


def write_all(server, nodes, value):
    return server.write_batch([(node, float(value)) for node in nodes])


def test_a_failing_journal_costs_only_its_own_subscriber():
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server)
        sub_a = server.subscribe("A", [ego])
        sub_b = server.subscribe("B", [ego])
        fail_journal_once(server, "A")
        # In-process the reply is delivered on the writer's thread: the
        # error reaches the writer — after everyone else was served.
        with pytest.raises(OSError, match="disk full"):
            write_all(server, nodes, 1)
        (first,) = sub_b.poll()
        assert (first.ego, first.stamp) == (ego, 1)
        assert first.value == server.read(ego)
        assert sub_a.poll() == [] and server.last_stamp("A") == 0
        write_all(server, nodes, 2)
        # A lost one report, never a stamp; B lost nothing.
        assert [(n.stamp, n.value) for n in sub_a.poll()] == [(1, server.read(ego))]
        assert [n.stamp for n in sub_b.poll()] == [2]
        assert server.resume_horizon("A") == 0
        assert server.subscribe("A", resume_from=0).poll()[0].stamp == 1


def test_a_failed_resume_of_an_unknown_subscriber_leaves_no_trace(tmp_path):
    graph, query, nodes = make_env()
    journal_dir = str(tmp_path / "journals")
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess",
        journal_dir=journal_dir, **ENGINE,
    ) as server:
        with pytest.raises(ResumeGapError):
            server.subscribe("ghost", [nodes[0]], resume_from=5)
        assert server.metrics()["journal"]["subscribers"] == 0
        assert os.listdir(journal_dir) == []
        assert server.stats()[0]["watched_egos"] == 0  # no shard was asked
        # ... and the id is still free for a real subscriber.
        sub = server.subscribe("ghost", [watched_ego(server)])
        write_all(server, nodes, 3)
        assert [n.stamp for n in sub.poll()] == [1]
        assert len(os.listdir(journal_dir)) == 1


class RacyTable(dict):
    """A routing table whose first lookup lets a whole ``reshard`` run
    before it answers — from the table that reshard just retired."""

    def __init__(self, table, race):
        super().__init__(table)
        self._race = race

    def get(self, key, default=None):
        race, self._race = self._race, None
        if race is not None:
            race()
        return super().get(key, default)


def test_unsubscribe_racing_a_reshard_reaches_the_new_owner():
    graph, query, nodes = make_env(seed=41)
    with EAGrServer(
        graph, query, num_shards=2, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server, shard_id=0)
        sub = server.subscribe("w", [ego])
        state = server._wal.state
        state.reader_shard = RacyTable(
            state.reader_shard, lambda: server.reshard({ego: 1})
        )
        assert server.unsubscribe("w", [ego]) == 1
        assert server.partition_epoch == 1 and server.reader_shard[ego] == 1
        for shard_id in range(2):
            assert ego not in server._executors[shard_id].host.watchers
            assert ego not in server._wal.state.watches.get(shard_id, {})
        write_all(server, nodes, 4)
        server.drain()
        assert sub.poll() == []


def test_a_restarted_shard_forgets_what_was_unsubscribed_since_its_checkpoint():
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server)
        server.subscribe("gone", nodes)
        server.subscribe("half", nodes)
        kept = server.subscribe("kept", [ego])
        server.checkpoint()  # carries all three subscribers' watches
        server.unsubscribe("gone")
        server.unsubscribe("half", [n for n in nodes if n != ego])
        server.restart_shard(0)
        assert server.stats()[0]["watched_egos"] == 1
        assert set(server._executors[0].host.watchers[ego]) == {"half", "kept"}
        write_all(server, nodes, 5)
        assert [n.ego for n in kept.poll()] == [ego]


def test_an_unsubscribe_landing_before_the_watch_record_costs_nobody():
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server)
        sub_b = server.subscribe("B", [ego])
        watch = server._subs.watch

        def racing_watch(subscriber, *args):
            # between OP_SUBSCRIBE's reply and the S record
            server._subs.watch = watch
            server.unsubscribe(subscriber)
            watch(subscriber, *args)

        server._subs.watch = racing_watch
        sub_a = server.subscribe("A", [ego])
        # The registry names nobody the plane has no state for ...
        assert list(server._wal.state.watches[0][ego]) == ["B"]
        assert server.metrics()["journal"]["subscribers"] == 1
        # ... so the ego's other watcher is still served, and writes pass.
        write_all(server, nodes, 6)
        assert [(n.ego, n.stamp) for n in sub_b.poll()] == [(ego, 1)]
        assert sub_a.poll() == []
        assert set(server._executors[0].host.watchers[ego]) == {"B"}


def oracle_after(graph, query, nodes, value):
    oracle = EAGrEngine(graph, query, **ENGINE)
    write_all(oracle, nodes, value)
    return oracle


class ContendedLock:
    """A flush lock that reports when a caller has to wait for it."""

    def __init__(self, lock, waiting):
        self._lock = lock
        self._waiting = waiting

    def acquire(self, blocking=True):
        if self._lock.acquire(blocking=False):
            return True
        if not blocking:
            return False
        self._waiting.set()
        return self._lock.acquire()

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc_info):
        self.release()


def race(server, action):
    """Run ``action`` on another thread until it finishes or waits for a
    flush lock; returns a ``join`` that re-raises what it raised."""
    waiting, errors = threading.Event(), []
    server._flush_locks = [
        ContendedLock(lock, waiting) for lock in server._flush_locks
    ]

    def run():
        try:
            action()
        except BaseException as exc:  # noqa: BLE001 - re-raised by join
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    while thread.is_alive() and not waiting.wait(0.01):
        pass

    def join():
        thread.join(timeout=60)
        assert not thread.is_alive() and not errors, errors

    return join


def between_reply_and_record(server, action):
    """Run ``action`` once, inside the next ``S`` append's window."""
    watch = server._subs.watch

    def racing_watch(*args):
        server._subs.watch = watch
        action()
        watch(*args)

    server._subs.watch = racing_watch


def test_a_write_between_arming_and_recording_reaches_the_subscriber():
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server)
        between_reply_and_record(server, lambda: write_all(server, nodes, 7))
        sub = server.subscribe("w", [ego])
        server.drain()
        now = oracle_after(graph, query, nodes, 7).read(ego)
        assert sub.snapshot[ego] == 0.0 != now == server.read(ego)
        assert [(n.ego, n.value) for n in sub.poll()] == [(ego, now)]


def test_a_reshard_between_arming_and_recording_files_the_watch_with_its_ego():
    graph, query, nodes = make_env(seed=41)
    with EAGrServer(
        graph, query, num_shards=2, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server, shard_id=0)
        joins = []
        between_reply_and_record(
            server,
            lambda: joins.append(race(server, lambda: server.reshard({ego: 1}))),
        )
        sub = server.subscribe("w", [ego])
        joins[0]()
        assert server.reader_shard[ego] == 1
        watches = server._wal.state.watches
        assert list(watches[1][ego]) == ["w"] and ego not in watches.get(0, {})
        assert list(server._executors[1].host.watchers[ego]) == ["w"]
        write_all(server, nodes, 8)
        server.drain()
        now = oracle_after(graph, query, nodes, 8).read(ego)
        assert [(n.ego, n.value) for n in sub.poll()] == [(ego, now)]


def test_a_reshard_between_resolving_and_reading_reads_the_new_owner():
    graph, query, nodes = make_env(seed=41)
    with EAGrServer(
        graph, query, num_shards=2, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server, shard_id=0)
        write_all(server, nodes, 3)
        executor = server._executors[0]
        joins = []

        def racing_submit(request):
            if request[0] == OP_READ:
                del executor.submit  # once
                joins.append(race(server, lambda: server.reshard({ego: 1})))
            return executor.submit(request)

        executor.submit = racing_submit
        expected = oracle_after(graph, query, nodes, 3).read(ego)
        assert server.read(ego) == expected != 0.0
        joins[0]()
        assert server.reader_shard[ego] == 1
        assert server.read(ego) == expected


@pytest.mark.parametrize("verb", ["subscribe", "read", "unsubscribe"])
def test_a_request_to_a_dead_worker_raises_and_releases_its_locks(verb):
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess", **ENGINE
    ) as server:
        ego = watched_ego(server)
        send = {
            "subscribe": lambda: server.subscribe("w", [ego]),
            "read": lambda: server.read(ego),
            "unsubscribe": lambda: server.unsubscribe("w", [ego]),
        }[verb]
        server._executors[0].kill()
        with pytest.raises(ServeError):
            send()
        assert not any(lock.locked() for lock in server._flush_locks)
        server.restart_shard(0)
        send()


def test_a_subscribe_to_a_worker_that_died_fails_fast_and_recovers():
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="process", transport="queue",
        reply_timeout=30.0, **ENGINE,
    ) as server:
        ego = watched_ego(server)
        process = server._executors[0]._process
        process.terminate()
        process.join(timeout=10.0)
        with pytest.raises(ServeError, match="died"):
            server.subscribe("w", [ego])
        assert not server._flush_locks[0].locked()
        server.restart_shard(0)
        sub = server.subscribe("w", [ego])
        write_all(server, nodes, 5)
        note = sub.get(timeout=30.0)
        now = oracle_after(graph, query, nodes, 5).read(ego)
        assert (note.ego, note.value) == (ego, now)


def test_a_subscribe_holding_its_locks_never_blocks_a_writer():
    graph, query, nodes = make_env()
    with EAGrServer(
        graph, query, num_shards=1, executor="inprocess", **ENGINE
    ) as server:
        server._stop_flusher.set()  # only the subscribe may carry the write
        server._flusher.join(timeout=5.0)
        ego = watched_ego(server)
        executor = server._executors[0]
        parked = []

        def awaited_submit(request):
            if request[0] == OP_SUBSCRIBE:
                writer = threading.Thread(target=write_all, args=(server, nodes, 9))
                writer.start()
                writer.join(timeout=10.0)
                parked.append(
                    (writer.is_alive(), bool(server._wal.state.rounds.get(0)))
                )
            type(executor).submit(executor, request)

        executor.submit = awaited_submit
        sub = server.subscribe("w", [ego])
        assert parked == [(False, True)]  # returned, its round parked
        assert not server._wal.state.rounds.get(0)  # and gone with the hold
        now = oracle_after(graph, query, nodes, 9).read(ego)
        assert sub.snapshot[ego] == 0.0
        assert [(n.ego, n.value) for n in sub.poll()] == [(ego, now)]
