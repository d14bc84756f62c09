"""The transport seam: one worker loop, one process executor, one
worker-replacement path — pinned once, over every executor.

* ``TestWorkerLoop`` runs the single ``shard_worker`` loop, on a thread
  of this process, over the transport's worker half with a scripted
  request sequence pre-loaded into the front half: what leaves (replies)
  and what the host holds afterwards.  A kill point ends the thread
  instead of the process (``os._exit`` is patched), so the host can be
  inspected *after* its death.
* ``test_stopped_and_killed_executors_answer_alike`` pins ``try_submit``
  / ``submit`` / ``stop`` / ``kill`` / ``alive`` after stop and after
  kill over ``{inprocess, queue}``.
* ``test_drainer_survives_a_failing_delivery`` is the silent-wedge
  regression: one exception in the reply handler used to kill the
  drainer thread, and every later call on the shard waited out
  ``reply_timeout``.
* ``test_a_closed_server_holds_no_named_semaphore``: ``close`` releases
  the transports' ``/dev/shm`` semaphores, not the garbage collector.
* ``TestReplacementPaths`` is the matrix ``{inprocess, queue}`` ×
  ``{restart_shard, reshard, WAL cold reopen}`` — the three callers of
  ``EAGrServer._replace_worker`` — against a brute-force oracle.
"""

import os
import random
import signal
import threading
from multiprocessing.connection import wait

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.statestore import WriteFrame
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import (
    EAGrServer,
    InProcessShardExecutor,
    ProcessShardExecutor,
    ServeError,
    ShardSpec,
)
from repro.serve.messages import (
    OP_DRAIN,
    OP_READ,
    OP_STOP,
    OP_SUBSCRIBE,
    OP_WRITE,
    R_ERR,
    R_OK,
    R_STOPPED,
    R_WRITE,
)
from repro.serve.shard import shard_worker
from repro.serve.transport import open_transports

from tests.conftest import oracle_for
from tests.serve.faultlib import (
    SHM_DIR,
    assert_contiguous,
    fail_journal_once,
    kill_shard,
    wait_until,
)

#: the process transports (the queue is the only one).
TRANSPORTS = ["queue"]
#: rows in a write frame well past a 64 KiB pipe buffer (24 B per row).
BIG_ROWS = 20_000
ENGINE = {"overlay_algorithm": "identity", "dataflow": "all_push"}


def make_query():
    return EgoQuery(aggregate=Sum(), window=TupleWindow(1))


def no_call(shard_id, op):
    raise AssertionError("these tests never need a control round trip")


@pytest.fixture
def shard(request):
    """``(graph, query, transport, make_spec)`` for one single-shard
    deployment on the parametrized transport (``None`` in-process)."""
    graph = random_graph(10, 30, seed=23)
    query = make_query()
    transport = None
    if request.param != "inprocess":
        transport = open_transports(1, 8, no_call)[0]

    def make_spec(**kwargs):
        return ShardSpec(
            graph, query, 0, 1, frozenset(graph.nodes()),
            engine_kwargs=ENGINE, **kwargs,
        )

    return graph, query, transport, make_spec


def batch(nodes, round_no):
    return [
        (node, float(round_no * 10 + i), float(round_no))
        for i, node in enumerate(nodes)
    ]


# ---------------------------------------------------------------------------
# the single worker loop
# ---------------------------------------------------------------------------


class Died(BaseException):
    """What the patched ``os._exit`` raises: the worker thread unwinds
    at the kill point exactly where the process would have vanished."""


class Loop:
    """``shard_worker`` on a thread, fed through a transport's front half."""

    def __init__(self, monkeypatch, spec, transport):
        def die(code):
            raise Died(code)

        monkeypatch.setattr(os, "_exit", die)
        transport.reset()
        self.transport = transport
        self.died = False
        build = spec.build

        def build_and_keep():
            self.host = build()
            return self.host

        spec.build = build_and_keep
        self._thread = threading.Thread(
            target=self._run, args=(spec, transport.worker_half()), daemon=True
        )

    def _run(self, spec, half):
        try:
            shard_worker(spec, half)
        except Died:
            self.died = True
            # A real death closes its pipe ends; this one must close them
            # by hand (the loop's clean-exit path never ran).
            half.close()

    def send(self, *requests):
        for request in requests:
            assert self.transport.try_send(request, lambda: True)

    def run(self):
        """Start the loop, wait for it to end, return every reply as
        ``(kind, seq)`` in arrival order (payloads: ``self.payload[seq]``)."""
        self._thread.start()
        self._thread.join(timeout=20.0)
        assert not self._thread.is_alive(), "worker loop did not terminate"
        replies, self.payload = [], {}
        while wait([self.transport.replies], 0.2):
            try:
                batch = self.transport.replies.take()
            except EOFError:  # the loop closed its end: all replies read
                break
            for reply in batch:
                replies.append((reply[0], reply[1]))
                self.payload[reply[1]] = reply[2]
        return replies


@pytest.mark.parametrize("shard", TRANSPORTS, indirect=True)
class TestWorkerLoop:
    def test_fifo_order_and_stopped_termination(self, monkeypatch, shard):
        graph, query, transport, make_spec = shard
        nodes = list(graph.nodes())
        loop = Loop(monkeypatch, make_spec(), transport)
        loop.send(
            (OP_SUBSCRIBE, 1, "watcher", nodes),
            (OP_WRITE, 2, 1, batch(nodes, 1)),
            (OP_READ, 3, nodes),
            (OP_WRITE, 4, 2, batch(nodes, 2)),
            (OP_DRAIN, 5),
            (OP_STOP, 6),
        )
        # Every write moves watched egos, so its R_WRITE carries a change
        # report and leaves; replies come back in request order and
        # R_STOPPED ends the loop.
        assert loop.run() == [
            (R_OK, 1), (R_WRITE, 2), (R_OK, 3), (R_WRITE, 4), (R_OK, 5),
            (R_STOPPED, 6),
        ]
        assert not loop.died
        oracle = EAGrEngine(graph, query, **ENGINE)
        oracle.write_batch(batch(nodes, 1))  # the read sits between the writes
        assert loop.payload[3] == oracle.read_batch(nodes)

    @pytest.mark.parametrize("point", ["exit_before_writes", "exit_after_writes"])
    def test_kill_points_count_identically(self, monkeypatch, shard, point):
        graph, _query, transport, make_spec = shard
        nodes = list(graph.nodes())
        loop = Loop(monkeypatch, make_spec(faults={point: 2}), transport)
        loop.send(
            (OP_SUBSCRIBE, 1, "watcher", nodes),
            (OP_WRITE, 2, 1, batch(nodes, 1)),
            (OP_WRITE, 3, 2, batch(nodes, 2)),
            (OP_DRAIN, 4),
        )
        # Dies on the 2nd write frame: the first was acknowledged, the
        # second leaves no reply either way, the drain is never reached.
        assert loop.run() == [(R_OK, 1), (R_WRITE, 2)]
        assert loop.died
        # before: batch 2 never applied; after: applied, yet no reply left.
        applied = 1 if point == "exit_before_writes" else 2
        assert loop.host.applied_through == applied

    def test_redo_frames_never_merge(self, monkeypatch, shard):
        graph, query, transport, make_spec = shard
        nodes = list(graph.nodes())
        loop = Loop(monkeypatch, make_spec(), transport)
        loop.send(
            *[(OP_WRITE, n, n, batch(nodes, n)) for n in range(1, 7)],
            (OP_READ, 7, nodes),
            (OP_STOP, 8),
        )
        # Nobody watches, so no write has a change report to carry: the
        # worker drops the empty write acks.
        assert loop.run() == [(R_OK, 7), (R_STOPPED, 8)]
        host = loop.host
        # Six frames waiting at once still apply as six batches, and the
        # stamp advances once per batch.
        assert host.batches == 6
        assert host.applied_through == 6
        assert host.engine.runtime.stamp == 6
        oracle = EAGrEngine(graph, query, **ENGINE)
        for n in range(1, 7):
            oracle.write_batch(batch(nodes, n))
        assert loop.payload[7] == oracle.read_batch(nodes)

    def test_only_empty_write_acks_are_dropped(self, monkeypatch, shard):
        """A write whose change report has rows and a write that fails
        shard-side still reply; a write that moves no watched ego leaves
        nothing."""
        graph, query, transport, make_spec = shard
        nodes = list(graph.nodes())
        loop = Loop(monkeypatch, make_spec(), transport)
        loop.send(
            (OP_SUBSCRIBE, 1, "watcher", nodes),
            (OP_WRITE, 2, 1, batch(nodes, 1)),  # moves watched egos
            (OP_WRITE, 3, 2, batch(nodes, 1)),  # same values: empty report
            (OP_WRITE, 4, 3, [(nodes[0], "poison", 3.0)]),  # raises
            (OP_STOP, 5),
        )
        assert loop.run() == [
            (R_OK, 1), (R_WRITE, 2), (R_ERR, 4), (R_STOPPED, 5),
        ]
        assert loop.payload[2] == len(nodes)  # rows applied
        assert loop.host.applied_through == 2


# ---------------------------------------------------------------------------
# executor contract after stop and after kill
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shard", ["inprocess"] + TRANSPORTS, indirect=True
)
def test_stopped_and_killed_executors_answer_alike(shard):
    """A stopped executor is a backed-up shard: ``try_submit`` answers
    ``False``, ``submit`` raises, ``stop``/``kill`` stay callable —
    whichever executor, and whether it was stopped or killed."""
    graph, query, transport, make_spec = shard
    replies, errors = [], []

    def boot():
        if transport is None:
            return InProcessShardExecutor(make_spec(), replies.append)
        return ProcessShardExecutor(
            make_spec(), replies.append, errors.append, transport
        )

    ends = ["kill", "stop"]  # later boots re-use the transport
    if transport is not None:
        ends.append("kill mid-frame")
    for end in ends:
        ex = boot()
        assert ex.alive()
        assert ex.try_submit((OP_DRAIN, 1))
        ex.submit((OP_DRAIN, 2))
        wait_until(lambda: len(replies) >= 2, desc="live replies")
        if end == "kill mid-frame":
            # A frozen worker reads nothing, so a frame far larger than
            # the pipe buffer blocks its sender; killing the worker then
            # must turn the blocked send into RuntimeError, not a hang.
            nodes = list(graph.nodes())
            big = WriteFrame.from_items(
                [(nodes[i % len(nodes)], float(i), 1.0) for i in range(BIG_ROWS)]
            )
            pid = ex._process.pid
            os.kill(pid, signal.SIGSTOP)
            outcome = []

            def send_big():
                try:
                    ex.submit((OP_WRITE, 3, 1, big))
                except RuntimeError as exc:
                    outcome.append(exc)
                else:
                    outcome.append(None)

            sender = threading.Thread(target=send_big, daemon=True)
            sender.start()
            sender.join(0.5)
            assert sender.is_alive(), "a frame this large cannot fit the pipe"
            os.kill(pid, signal.SIGKILL)
            sender.join(10.0)
            assert not sender.is_alive(), "send hung on a dead worker"
            assert isinstance(outcome[0], RuntimeError)
            assert transport.try_send((OP_WRITE, 3, 1, big), ex.alive) is False
            ex.kill()
        elif end == "kill":
            ex.kill()
        else:
            ex.stop(3)
            assert replies[-1][0] == R_STOPPED
        assert not ex.alive()
        assert ex.try_submit((OP_DRAIN, 4)) is False
        with pytest.raises(RuntimeError):
            ex.submit((OP_DRAIN, 5))
        ex.stop(6)
        ex.kill()
        assert not ex.alive()
        assert [reply[1] for reply in replies if reply[1] > 3] == []
        assert errors == []
        del replies[:]


# ---------------------------------------------------------------------------
# frames larger than the pipe buffer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_frames_larger_than_the_pipe_round_trip(kind):
    """Write frames of 20 000 rows (480 KB against a 64 KiB pipe) sent to
    a process shard that is busy applying them and replying — two
    writer threads, a subscriber on every ego, a read in between — go
    through with no deadlock: every thread finishes and reads equal the
    oracle."""
    graph = random_graph(2000, 8000, seed=29)
    nodes = sorted(graph.nodes())
    server = EAGrServer(
        graph, make_query(), num_shards=1, executor="process",
        transport=kind, reply_timeout=60.0,
        # the subscriber reads once, at the end: its journal holds the run
        journal_capacity=1 << 16, **ENGINE,
    )
    try:
        sub = server.subscribe("watcher", nodes)
        # Disjoint writers per thread: the final state does not depend
        # on how the two threads interleave.
        lanes = [nodes[0::2], nodes[1::2]]
        rounds = 3

        def rows(lane, round_no):
            return [
                (lane[i % len(lane)], float(round_no * 7 + i % 5 + 1))
                for i in range(BIG_ROWS)
            ]

        errors = []

        def writer(lane):
            try:
                for round_no in range(rounds):
                    server.write_batch(rows(lane, round_no))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(lane,)) for lane in lanes]
        for thread in threads:
            thread.start()
        server.read_batch(nodes)  # a round trip while the frames flow
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads), "deadlocked"
        assert errors == []
        server.drain()
        oracle = EAGrEngine(graph, make_query(), **ENGINE)
        for lane in lanes:
            for round_no in range(rounds):
                oracle.write_batch(rows(lane, round_no))
        final = oracle.read_batch(nodes)
        assert server.read_batch(nodes) == final
        last = {note.ego: note.value for note in sub.poll()}
        assert last and all(
            last[ego] == value
            for ego, value in zip(nodes, final)
            if ego in last
        )
    finally:
        server.close()


# ---------------------------------------------------------------------------
# silent wedge: a raising reply handler must not kill the drainer
# ---------------------------------------------------------------------------


def test_drainer_survives_a_failing_delivery():
    graph = random_graph(10, 30, seed=19)
    nodes = list(graph.nodes())
    server = EAGrServer(
        graph, make_query(), num_shards=1, executor="process",
        transport="queue", reply_timeout=5.0, **ENGINE,
    )
    try:
        server.subscribe("watcher", nodes)
        fail_journal_once(server, "watcher")
        server.write_batch(batch(nodes, 1))
        # The drainer outlives the failed delivery: this barrier's reply
        # arrives (it used to wait out reply_timeout), and the failure
        # surfaces on the async-error channel ...
        with pytest.raises(ServeError, match="reply delivery failed"):
            server.drain()
        # ... poisoning acceptance, like a background flush failure,
        with pytest.raises(ServeError, match="poisoned"):
            server.write_batch(batch(nodes, 2))
        assert len(server.read_batch(nodes)) == len(nodes)  # still serving
        # until the shard is rebuilt.
        server.restart_shard(0)
        server.write_batch(batch(nodes, 3))
        server.drain()
    finally:
        server.close()


def test_a_closed_server_holds_no_named_semaphore():
    """Each worker incarnation's slot semaphore is a ``sem.mp-*`` entry
    in ``/dev/shm``; a replaced worker's goes with it, and ``close``
    lets go of the last one while the server object is still alive."""
    def semaphores():
        return {name for name in os.listdir(SHM_DIR) if name.startswith("sem.mp-")}

    before = semaphores()
    graph = random_graph(10, 30, seed=19)
    nodes = list(graph.nodes())
    server = EAGrServer(
        graph, make_query(), num_shards=2, executor="process",
        transport="queue", reply_timeout=5.0, **ENGINE,
    )
    try:
        assert len(semaphores() - before) == 2  # one per shard
        server.restart_shard(0)
        server.write_batch(batch(nodes, 1))
        server.drain()
        assert len(semaphores() - before) == 2
    finally:
        server.close()
    assert not semaphores() - before


# ---------------------------------------------------------------------------
# the replacement path: {inprocess, queue} x {restart, reshard, reopen}
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["inprocess"] + TRANSPORTS)
def pad(request, tmp_path_factory):
    """One 2-shard WAL-backed deployment per transport, shared by the
    three replacement paths; every accepted batch and every delivered
    notification is kept for the oracle checks."""
    kind = request.param
    graph = random_graph(14, 52, seed=41)
    query = make_query()
    wal_dir = str(tmp_path_factory.mktemp(f"wal-{kind}"))

    def boot():
        return EAGrServer(
            graph, query, num_shards=2, wal_dir=wal_dir, reply_timeout=30.0,
            executor="inprocess" if kind == "inprocess" else "process",
            **ENGINE,
        )

    server = boot()
    env = {
        "kind": kind, "graph": graph, "query": query, "boot": boot,
        "server": server, "nodes": list(graph.nodes()),
        "rng": random.Random(5), "batches": [], "seen": [],
    }
    env["sub"] = server.subscribe("watcher", env["nodes"])
    yield env
    env["server"].close()


def write(env, count=3):
    rng, nodes = env["rng"], env["nodes"]
    for _ in range(count):
        items = [
            (rng.choice(nodes), float(rng.randint(1, 9)))
            for _ in range(rng.randint(2, 6))
        ]
        env["server"].write_batch(items)
        env["batches"].append(items)


def check(env):
    """Reads equal the brute-force oracle; the subscriber's stream is
    contiguous from stamp 1 and ends every ego at its true value."""
    server, nodes = env["server"], env["nodes"]
    server.drain()
    env["seen"] += env["sub"].poll()
    tag = f"{env['kind']}:"
    assert_contiguous([note.stamp for note in env["seen"]], tag=tag)
    oracle = oracle_for(graph=env["graph"], query=env["query"])
    for items in env["batches"]:
        oracle.write_batch(items)
    final = {node: oracle.read(node) for node in nodes}
    assert dict(zip(nodes, server.read_batch(nodes))) == final, tag
    last = {note.ego: note.value for note in env["seen"]}
    assert all(final[ego] == value for ego, value in last.items()), tag
    return final


class TestReplacementPaths:
    def test_restart_shard(self, pad):
        env, server = pad, pad["server"]
        write(env)
        kill_shard(server, 0)
        write(env, 2)  # accepted while dead: redo log
        assert server.restart_shard(0) >= 2
        write(env)
        check(env)

    def test_reshard_changes_the_reader_set(self, pad):
        env, server = pad, pad["server"]
        write(env)
        server.drain()
        server.read_batch(env["nodes"])
        moves = {
            node: 1
            for node in sorted(server.reader_shard)
            if server.reader_shard[node] == 0
        }
        moves = dict(list(moves.items())[:3])
        assert moves, "shard 0 owns no readers in this seed"
        assert server.reshard(moves)["moved"] == len(moves)
        write(env)
        check(env)

    def test_wal_cold_reopen(self, pad):
        env, old = pad, pad["server"]
        write(env)
        check(env)
        old.close()
        server = env["server"] = env["boot"]()
        assert server.recovered_batches > 0
        resume_from = env["seen"][-1].stamp if env["seen"] else 0
        env["sub"] = server.subscribe("watcher", resume_from=resume_from)
        write(env)
        check(env)
