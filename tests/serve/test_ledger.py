"""The durability ledger: one fold, three readers, no private copy.

``EAGrServer`` keeps no durability bookkeeping of its own — its
outboxes, batch counters, redo log, checkpoints and ingest clock are
``server._wal.state``, advanced only by ``log.append(record)`` — so
three things that used to be kept equal by hand are now the same code:

* the **live** ledger equals a fresh :class:`WalState` folded from the
  bytes on disk, after any sequence of public operations;
* a server built with ``wal_dir=None`` walks the same ledger through the
  same states, with no file behind it;
* a refused submit's ``B`` → ``RB`` → re-issued ``B`` reads the same on
  the primary, after a **cold restart**, and on a tailing **replica**.

The watch registry is part of that ledger (``state.watches``), and the
front-end keeps no second copy of it either: after every step of the
walk it equals a model the test maintains from the walk's own
subscribe / unsubscribe / reshard steps, each shard host watches exactly
its slice, and — live, after restarting every shard, after a cold
reopen — a write that moves every watched ego notifies each
(subscriber, ego) exactly once, stamps contiguous.  The reader
partition is the ledger's too: ``server.reader_shard`` *is* the fold's
table after every step, and every ``S`` on disk names the shard that
owned its egos when it was folded.

Plus the constructor contract that rides along: whatever fails while the
log is open closes it again, so the single-writer lock never leaks.
"""

import os
import random

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer, ReplicaServer
from repro.serve.wal import WriteAheadLog

from tests.serve.faultlib import assert_contiguous, refuse_submits
from tests.serve.test_wal import fold_wal, sample_records, state_digest

ENGINE_OPTS = dict(overlay_algorithm="identity", dataflow="all_push")


def make_server(graph, query, wal_dir, **kwargs):
    server = EAGrServer(
        graph,
        query,
        num_shards=2,
        executor="inprocess",
        wal_dir=wal_dir,
        checkpoint_interval=5,
        # small enough that checkpoints compact: SNAP is one of the folds
        wal_options={"compact_min_bytes": 4096},
        **ENGINE_OPTS,
        **kwargs,
    )
    # The background flusher retries parked outboxes on a timer; its
    # B/RB records would land at timing-dependent points of the stream.
    server._stop_flusher.set()
    server._flusher.join(timeout=5.0)
    return server


def ledger_digest(state):
    """:func:`state_digest` with write frames spelled out as triples
    (frames compare by identity; a frame read back from disk is a
    different object holding the same rows)."""
    digest = state_digest(state)
    for field in ("redo", "rounds"):
        digest[field] = {
            shard: [(number, list(items)) for number, items in entries]
            for shard, entries in digest[field].items()
        }
    return digest


class WatchModel:
    """Who watches what, kept by the test from the walk's own steps —
    it never reads the server's registry, only the routing table the
    walk starts from."""

    def __init__(self, reader_shard):
        self.owner = dict(reader_shard)
        self.watchers = {}  # ego -> {subscriber}

    def subscribe(self, subscriber, egos):
        for ego in egos:
            if ego in self.owner:
                self.watchers.setdefault(ego, set()).add(subscriber)

    def unsubscribe(self, subscriber, egos):
        for ego in list(self.watchers) if egos is None else egos:
            subs = self.watchers.get(ego, set())
            subs.discard(subscriber)
            if ego in self.watchers and not subs:
                del self.watchers[ego]

    def registry(self):
        """``{shard: {ego: {subscriber}}}``, empty slices left out."""
        out = {}
        for ego, subs in self.watchers.items():
            out.setdefault(self.owner[ego], {})[ego] = set(subs)
        return out

    def check(self, server):
        assert server.reader_shard is server._wal.state.reader_shard
        ledger = {
            shard: {ego: set(subs) for ego, subs in egos.items()}
            for shard, egos in server._wal.state.watches.items()
            if egos
        }
        assert ledger == self.registry()
        for shard, executor in enumerate(server._executors):
            armed = {
                ego: set(subs) for ego, subs in executor.host.watchers.items()
            }
            assert armed == ledger.get(shard, {}), shard


def assert_watches_filed_with_their_egos(wal_dir):
    """Refold the bytes on disk: every ``S`` names the shard that owns
    its egos at that point of the fold."""

    def check(state, record):
        if record[0] == "S":
            _kind, subscriber, shard, egos, _seed = record
            owners = {state.reader_shard[ego] for ego in egos}
            assert owners == {shard}, (subscriber, egos, shard)

    fold_wal(wal_dir, check)


def probe(server, oracle, model, nodes, value):
    """One write that moves every watched ego: exactly one notification
    per (subscriber, ego), at the oracle's value, stamps contiguous
    behind whatever each subscriber had before."""
    watching = {}  # subscriber -> {ego}
    for ego, subs in model.watchers.items():
        for subscriber in subs:
            watching.setdefault(subscriber, set()).add(ego)
    handles = {}
    for subscriber in watching:
        handles[subscriber] = server.subscribe(
            subscriber, resume_from=server.last_stamp(subscriber)
        )
        assert handles[subscriber].poll() == []  # nothing was owed
    watched = sorted(model.watchers)
    before = dict(zip(watched, oracle.read_batch(watched)))
    batch = [(node, value) for node in nodes]
    server.write_batch(batch)
    oracle.write_batch(batch)
    server.drain()
    after = dict(zip(watched, oracle.read_batch(watched)))
    assert all(before[ego] != after[ego] for ego in watched)
    for subscriber, egos in watching.items():
        last = server.last_stamp(subscriber) - len(egos)
        notes = handles[subscriber].poll()
        assert sorted((n.ego, n.value) for n in notes) == sorted(
            (ego, after[ego]) for ego in egos
        ), subscriber
        assert_contiguous([n.stamp for n in notes], last + 1, tag=subscriber)


def drive(server, oracle, nodes, seed, steps, after_each=lambda: None):
    """A seeded walk over the public operations that move the ledger;
    returns the watch model it kept (checked after every step)."""
    rng = random.Random(seed)
    model = WatchModel(server.reader_shard)

    def write(make_value):
        batch = [
            (rng.choice(nodes), make_value()) for _ in range(rng.randint(1, 6))
        ]
        refusals = rng.choice([0, 0, 1, 3])  # a backed-up shard: B then RB
        with refuse_submits(server._executors[rng.randrange(2)], refusals):
            server.write_batch(batch)
        oracle.write_batch(batch)

    def packable():  # float values pass the packing gate: frame rounds
        write(lambda: float(rng.randint(1, 9)))

    def unpackable():  # int values fail it: triple-list rounds
        write(lambda: rng.randint(1, 9))

    def mixed():  # one int among floats fails the whole batch
        write(lambda: rng.choice([float(rng.randint(1, 9)), rng.randint(1, 9)]))

    def subscribe():
        subscriber, egos = f"sub{rng.randrange(3)}", rng.sample(nodes, 3)
        server.subscribe(subscriber, egos)
        model.subscribe(subscriber, egos)

    def unsubscribe():
        egos = rng.choice([None, rng.sample(nodes, 2)])
        subscriber = f"sub{rng.randrange(3)}"
        server.unsubscribe(subscriber, egos)
        model.unsubscribe(subscriber, egos)

    def reshard():
        ego = rng.choice(sorted(model.owner))
        model.owner[ego] = 1 - model.owner[ego]
        server.reshard({ego: model.owner[ego]})

    operations = [
        packable, packable, unpackable, mixed,
        subscribe, unsubscribe, reshard,
        server.checkpoint,
        lambda: server.restart_shard(rng.randrange(2)),
        lambda: server.read_batch(rng.sample(nodes, 4)),
    ]
    for _ in range(steps):
        rng.choice(operations)()
        model.check(server)
        after_each()
    return model


def probe_live_and_restarted(server, oracle, model, nodes):
    probe(server, oracle, model, nodes, 1000.0)
    for shard in range(server.num_shards):
        server.restart_shard(shard)  # the redo replay re-derives: all seen
    model.check(server)
    probe(server, oracle, model, nodes, 2000)  # ints: the pickle plane


@pytest.mark.parametrize("seed", [2, 13, 71])
def test_live_ledger_is_the_fold_of_the_bytes_on_disk(tmp_path, seed):
    graph = random_graph(16, 60, seed=7)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(2))
    nodes = sorted(graph.nodes())
    wal_dir = str(tmp_path / "wal")
    kinds = set()

    with make_server(graph, query, wal_dir) as server:
        append = server._wal.append

        def spy(record, sync=False):  # which record kinds the walk produced
            kinds.add(record[0])
            append(record, sync)

        server._wal.append = spy

        def check():
            assert ledger_digest(server._wal.state) == ledger_digest(
                fold_wal(wal_dir)
            )
            assert_watches_filed_with_their_egos(wal_dir)

        oracle = EAGrEngine(graph, query, **ENGINE_OPTS)
        model = drive(server, oracle, nodes, seed, steps=60, after_each=check)
        assert model.watchers, "the walk ended with nobody watching"
        assert server.read_batch(nodes) == oracle.read_batch(nodes)
        check()
        durable = ledger_digest(server._wal.state)
        probe_live_and_restarted(server, oracle, model, nodes)
        check()
    assert kinds >= {"W", "B", "RB", "C", "S", "U", "P"}, kinds

    # A cold reopen folds the same registry and re-arms it.
    with make_server(graph, query, wal_dir) as server:
        model.check(server)
        probe(server, oracle, model, nodes, 3000.0)

    # The same walk over the no-file ledger: same code, same states.
    with make_server(graph, query, None) as server:
        oracle = EAGrEngine(graph, query, **ENGINE_OPTS)
        model = drive(server, oracle, nodes, seed, steps=60)
        assert server.read_batch(nodes) == oracle.read_batch(nodes)
        assert ledger_digest(server._wal.state) == durable
        probe_live_and_restarted(server, oracle, model, nodes)
        wal = server.metrics()["wal"]
        assert wal == {
            "enabled": False, "total_bytes": 0, "appends": 0, "fsyncs": 0
        }


def test_no_file_ledger_folds_like_the_log(tmp_path):
    on_disk, in_memory = WriteAheadLog(str(tmp_path)), WriteAheadLog(None)
    for record in sample_records(rounds=10):
        on_disk.append(record, sync=True)
        in_memory.append(record, sync=True)
    in_memory.sync()
    assert not in_memory.maybe_compact(force=True)
    assert state_digest(in_memory.state) == state_digest(on_disk.state)
    assert not in_memory.recovered and in_memory.total_bytes() == 0
    assert on_disk.appends and not in_memory.appends
    on_disk.close()
    in_memory.close()


def test_reissued_batch_reads_the_same_live_cold_and_replicated(tmp_path):
    """A refused non-blocking submit: ``B(n)`` → ``RB(n)`` → more rounds
    → ``B(n)`` again with wider coverage.  The replica applied the first
    ``B(n)`` eagerly, so only the newer rounds are new to it; a cold
    restart sees the re-issue only.  Both must land on the primary's
    state, under the primary's numbers."""
    graph = random_graph(14, 52, seed=41)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    nodes = sorted(graph.nodes())
    wal_dir = str(tmp_path / "wal")
    oracle = EAGrEngine(graph, query, **ENGINE_OPTS)
    server = make_server(graph, query, wal_dir)
    replica = None
    try:
        def write(values):
            batch = [(node, value) for node, value in zip(nodes, values)]
            server.write_batch(batch)
            oracle.write_batch(batch)

        write([1.0] * len(nodes))
        server.drain()
        numbers = dict(server._wal.state.batch_no)
        replica = ReplicaServer(graph, query, wal_dir, **ENGINE_OPTS)
        with refuse_submits(server._executors[0], 10**9) as refusals:
            # a frame round, then a triple-list round behind it: the
            # re-issue merges a mixed backlog
            write([2.0] * len(nodes))
            write([3] * len(nodes))
            assert refusals["left"] < 10**9
            state = server._wal.state
            assert state.batch_no[0] == numbers[0]  # voided, not consumed
            assert state.rounds[0] and state.redo[0][-1][0] == numbers[0]
            # the replica has tailed a B/RB pair and holds the marker
            replica.read_batch(nodes, max_lag_bytes=0)
            assert replica._rolled_back == {0: numbers[0] + 1}
        server.drain()  # the re-issue: same number, wider coverage
        expected = oracle.read_batch(nodes)
        assert server.read_batch(nodes) == expected
        assert server._wal.state.batch_no[0] == numbers[0] + 1
        assert server._wal.state.redo[0][-1][0] == numbers[0] + 1

        assert replica.read_batch(nodes, max_lag_bytes=0) == expected
        assert replica.watermark() == server._wal.state.batch_no
        assert replica._rolled_back == {}

        live = ledger_digest(server._wal.state)
        watermark = dict(server._wal.state.batch_no)
        replica.close()
        server.close()
        server = make_server(graph, query, wal_dir)  # cold restart
        assert server.recovered_batches == sum(
            len(entries) for entries in live["redo"].values()
        )
        assert server.read_batch(nodes) == expected
        assert ledger_digest(server._wal.state) == live
        assert server._wal.state.batch_no == watermark
    finally:
        if replica is not None:
            replica.close()
        server.close()


def test_constructor_failure_never_leaks_the_writer_lock(tmp_path):
    graph = random_graph(10, 30, seed=3)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    wal_dir = str(tmp_path / "wal")

    def exploding_assign(node):
        raise RuntimeError("injected: assignment failed with the log open")

    # The queue is the only transport: anything else is refused, on
    # either executor, before the log is opened (not even its directory
    # exists yet), so a refused deployment never held the flock.
    for executor in ("inprocess", "process"):
        for transport in ("shm", "auto", None):
            with pytest.raises(ValueError, match="transport must be 'queue'"):
                EAGrServer(
                    graph, query, executor=executor, transport=transport,
                    wal_dir=wal_dir,
                )
        # The metrics plane is on or off; nothing else is accepted.
        for metrics in ("auto", 1, None):
            with pytest.raises(ValueError, match="metrics must be True or False"):
                EAGrServer(
                    graph, query, executor=executor, metrics=metrics,
                    wal_dir=wal_dir,
                )
    assert not os.path.exists(wal_dir)
    # Retried from inside the ``except`` block: the traceback still pins
    # the half-built server, so only an explicit close frees the flock.
    try:
        EAGrServer(
            graph, query, executor="inprocess", transport="shm", wal_dir=wal_dir
        )
    except ValueError:
        try:
            EAGrServer(
                graph, query, executor="inprocess", assign=exploding_assign,
                wal_dir=wal_dir,
            )
        except RuntimeError:
            with EAGrServer(
                graph, query, executor="inprocess", wal_dir=wal_dir,
                **ENGINE_OPTS,
            ) as server:
                assert server.write_batch([(n, 1.0) for n in graph.nodes()])
        else:
            pytest.fail("the exploding assignment did not fail the constructor")
    else:
        pytest.fail("an unsupported transport did not fail the constructor")
