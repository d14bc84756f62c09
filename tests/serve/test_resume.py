"""Property tests: resume semantics under seeded random interleavings.

Each seed drives a random schedule of ``write_batch`` / ``subscribe`` /
``disconnect`` / ``resume_from`` / ``ack`` / ``checkpoint`` operations
against a ≥3-shard server (deterministic in-process executor), mirrored
into a single-process :class:`EAGrEngine` oracle.  Invariants asserted
for every subscriber:

* the client's merged view (what it kept before each disconnect plus
  what each resume delivered) is one contiguous stamp sequence 1..K —
  monotone, gap-free after resume, duplicate-free;
* per watched ego, the delivered value sequence equals the oracle's
  value transitions from the subscribe point on (batch granularity);
* the final delivered value per ego equals the oracle's final read.

The in-process executor's queue is never backed up, and every write is
flushed before the next is accepted, so batch boundaries — and therefore
value transitions — are preserved exactly, which is what makes strict
oracle equality assertable here.  (Without that flush, the background
flusher holding a shard's flush lock makes ``write_batch``'s
non-blocking flush park the rows, and the next write merges with them.)
"""

import random

import pytest

from repro.core.aggregates import Mean, Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer, ResumeGapError

from tests.serve.faultlib import assert_contiguous, transitions_by_ego


NUM_NODES = 24
NUM_EDGES = 100
NUM_OPS = 60
SUBSCRIBERS = ("alice", "bob", "carol")


class _Client:
    """Client-side view of one subscriber: what it has actually seen."""

    def __init__(self, name):
        self.name = name
        self.sub = None
        self.seen = []           # notifications processed, in order
        self.connected = False
        self.sub_batch = None    # batch index the subscription started at
        self.nodes = []

    def pump(self):
        if self.sub is not None and self.connected:
            self.seen.extend(self.sub.poll())


def run_schedule(seed, aggregate, window):
    rng = random.Random(seed)
    graph = random_graph(NUM_NODES, NUM_EDGES, seed=seed * 7 + 1)
    query = EgoQuery(aggregate=aggregate, window=window)
    nodes = list(graph.nodes())
    server = EAGrServer(
        graph,
        query,
        num_shards=3,
        executor="inprocess",
        overlay_algorithm="vnm_a",
    )
    clients = {name: _Client(name) for name in SUBSCRIBERS}
    batches = []  # every accepted batch, in acceptance order

    def do_write():
        size = rng.randint(1, 6)
        batch = [
            (rng.choice(nodes), float(rng.randint(1, 9)))
            for _ in range(size)
        ]
        server.write_batch(batch)
        server.flush()
        batches.append(batch)

    def do_subscribe(client):
        fresh = rng.sample(nodes, rng.randint(3, len(nodes)))
        extend = dict.fromkeys(client.nodes)
        extend.update(dict.fromkeys(fresh))
        client.sub = server.subscribe(client.name, fresh)
        if client.sub_batch is None:
            client.sub_batch = len(batches)
            client.nodes = list(extend)
        else:
            # extension: only track egos watched from the start, so the
            # per-ego transition check has one well-defined start point.
            client.nodes = [n for n in client.nodes if n in extend]
        client.connected = True

    def do_disconnect(client):
        client.pump()
        server.disconnect(client.name)
        client.connected = False

    def do_resume(client):
        resume_from = client.seen[-1].stamp if client.seen else 0
        client.sub = server.subscribe(client.name, resume_from=resume_from)
        client.connected = True

    def do_ack(client):
        if client.seen:
            server.ack(client.name, client.seen[-1].stamp)

    for _ in range(NUM_OPS):
        op = rng.random()
        client = clients[rng.choice(SUBSCRIBERS)]
        if op < 0.55:
            do_write()
        elif op < 0.70:
            if client.sub_batch is None:
                do_subscribe(client)
            elif client.connected:
                do_disconnect(client)
            else:
                do_resume(client)
        elif op < 0.80:
            if client.sub_batch is None:
                do_subscribe(client)
        elif op < 0.90:
            if client.connected:
                do_ack(client)
        else:
            server.checkpoint([rng.randrange(3)])
        for c in clients.values():
            c.pump()

    # reconnect everyone, drain everything still in flight
    server.drain()
    for client in clients.values():
        if client.sub_batch is None:
            continue
        if not client.connected:
            do_resume(client)
        client.pump()

    # ---- invariants -----------------------------------------------------
    oracle = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
    history = transitions_by_ego(batches, oracle, nodes)
    final = dict(zip(nodes, oracle.read_batch(nodes)))
    server_final = dict(zip(nodes, server.read_batch(nodes)))
    assert server_final == final, f"seed {seed}: reads diverge from oracle"

    for client in clients.values():
        if client.sub_batch is None:
            continue
        tag = f"seed {seed} {client.name}:"
        assert_contiguous([n.stamp for n in client.seen], tag=tag)
        per_ego = {}
        for n in client.seen:
            per_ego.setdefault(n.ego, []).append(n.value)
        for ego in client.nodes:
            expected = [
                value
                for index, value in history[ego]
                if index >= client.sub_batch
            ]
            got = per_ego.get(ego, [])
            assert got == expected, (
                f"{tag} ego {ego!r} delivered {got}, oracle transitions "
                f"{expected} (subscribed at batch {client.sub_batch})"
            )
            if expected:
                assert got[-1] == final[ego]
    server.close()


@pytest.mark.parametrize("seed", range(10))
def test_seeded_interleavings_sum(seed):
    run_schedule(seed, Sum(), TupleWindow(1))


@pytest.mark.parametrize("seed", range(3))
def test_seeded_interleavings_mean_windowed(seed):
    run_schedule(seed + 100, Mean(), TupleWindow(2))


def test_resume_without_prior_state_is_gap_error():
    graph = random_graph(12, 40, seed=9)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    with EAGrServer(
        graph, query, num_shards=3, executor="inprocess",
        overlay_algorithm="identity", dataflow="all_push",
    ) as server:
        with pytest.raises(ResumeGapError):
            server.subscribe("ghost", list(graph.nodes()), resume_from=5)


def test_journal_overflow_resume_raises_gap_error():
    graph = random_graph(12, 40, seed=10)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    nodes = list(graph.nodes())
    with EAGrServer(
        graph, query, num_shards=3, executor="inprocess",
        overlay_algorithm="vnm_a", journal_capacity=4,
    ) as server:
        sub = server.subscribe("w", nodes)
        server.write_batch([(n, 1.0) for n in nodes])
        server.drain()
        last = server.last_stamp("w")
        assert last > 4  # enough to overflow a capacity-4 ring
        # the live handle fell a whole journal behind: a gap, not a queue
        with pytest.raises(ResumeGapError):
            sub.poll()
        server.disconnect("w")
        with pytest.raises(ResumeGapError):
            server.subscribe("w", resume_from=0)
        # resuming inside the retained window still works
        horizon = last - 4
        resumed = server.subscribe("w", resume_from=horizon)
        assert [n.stamp for n in resumed.poll()] == [
            horizon + 1, horizon + 2, horizon + 3, horizon + 4,
        ]


def test_watch_extension_does_not_hide_a_live_handles_gap():
    """A plain ``subscribe`` that extends the watch set returns the live
    handle even when it fell behind the horizon: its next read raises,
    and only then does a plain ``subscribe`` re-baseline."""
    graph = random_graph(12, 40, seed=10)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    nodes = list(graph.nodes())
    with EAGrServer(
        graph, query, num_shards=3, executor="inprocess",
        overlay_algorithm="vnm_a", journal_capacity=4,
    ) as server:
        sub = server.subscribe("w", nodes[:-2])
        server.write_batch([(n, 1.0) for n in nodes])
        server.drain()
        assert server.last_stamp("w") > 4
        assert server.subscribe("w", nodes[-2:]) is sub
        with pytest.raises(ResumeGapError):
            sub.poll()
        fresh = server.subscribe("w")
        assert fresh is not sub and sub.poll() == [] and fresh.poll() == []
        before = server.last_stamp("w")
        server.write_batch([(nodes[4], 2.0)])  # changes 2 egos: inside the ring
        server.drain()
        stamps = [n.stamp for n in fresh.poll()]
        assert stamps
        assert_contiguous(stamps, start=before + 1, tag="after the re-baseline:")


def test_live_handle_that_keeps_up_never_gaps():
    """Reads between batches smaller than the journal keep a live
    handle inside the window, however much passes through it."""
    graph = random_graph(12, 40, seed=10)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    nodes = list(graph.nodes())
    watched = nodes[:3]  # a batch changes at most 3 watched egos
    with EAGrServer(
        graph, query, num_shards=3, executor="inprocess",
        overlay_algorithm="vnm_a", journal_capacity=4,
    ) as server:
        sub = server.subscribe("w", watched)
        seen = []
        for round_ in range(60):
            server.write_batch([(nodes[round_ % len(nodes)], float(round_ + 2))])
            server.drain()
            assert server.last_stamp("w") - (seen[-1].stamp if seen else 0) < 4
            seen.extend(sub.poll())
        assert len(seen) > 3 * 4  # the ring turned over several times
        assert_contiguous([n.stamp for n in seen], tag="keeping up:")
        assert seen[-1].stamp == server.last_stamp("w")
