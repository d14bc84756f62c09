"""Hypothesis properties of the tuple-window write kernel (``_write_ring``).

SUM and MEAN over ``TupleWindow(k)`` on a columnar store keep
every writer's window as a row of one ring matrix and run a packable batch
— pairs, stamped triples, a ``WriteFrame`` — through one fold: vectorised
(``_ring_kernel``) for long batches, a Python loop over the matrix
(``_ring_loop``) for short ones.  Every schedule runs twice: with the
default split, and with every packable batch forced through the kernel.

A seeded schedule interleaves such batches with the shapes the kernel must
get right (a writer more than ``k`` times in a batch, writers outside the
overlay, the empty batch), with batches that fail the packing gate and take
the per-event path (int values, ``None`` timestamps mixed with stamped
rows), with structure events (a ring rebuild, or a new runtime over the
same windows) and with checkpoint → restore through pickled buffers.

After every step:

* the value columns of writers and push nodes are **bitwise** equal to
  :class:`Reference`, a per-event fold written out here — each event's
  ``value - old`` added to its writer's running delta in stream order,
  moved writers applied in first-touch order along the push plan's
  depth-first steps, columns re-derived from the windows whenever the
  runtime re-materialises;
* reads equal the brute-force oracle (``tests/oracle.py``) fed the same
  batches and structure events (exactly on dyadic values, to rounding
  otherwise);
* the writers holding ``buffers`` and every ``buffers[node].values()``
  equal the oracle's writers and windows, ``clock`` equals the
  reference's and the oracle's, ``stamp`` counts the ingestion calls, and
  the batch's ``counters.writes`` its rows.
"""

import collections
import pickle
import random
from itertools import count
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveConfig
from repro.core.aggregates import Mean, Sum
from repro.core.engine import EAGrEngine
from repro.core import execution
from repro.core.execution import Runtime
from repro.core.overlay import Decision, NodeKind
from repro.core.query import EgoQuery
from repro.core.statestore import WriteFrame
from repro.core.windows import RingRow, TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood

from tests.conftest import follow, oracle_for
from tests.test_changed_plane_properties import random_structure_event

AGGREGATES = {"sum": Sum, "mean": Mean}
SHAPES = ("pairs", "triples", "frame", "repeat", "outside", "empty", "ints", "mixed_none")


def push_steps(overlay, writer):
    """``(dst, sign, is_push)`` in the order a delta from ``writer`` visits
    them: the depth-first walk of the compiled push plan."""
    stack = [(writer, 1)]
    while stack:
        node, carried = stack.pop()
        for dst, edge_sign in zip(*overlay.out_rows(node)):
            sign = carried * edge_sign
            is_push = overlay.decisions[dst] is Decision.PUSH
            yield dst, sign, is_push
            if is_push:
                stack.append((dst, sign))


class Reference:
    """Windows, clock and value columns of a tuple-window SUM/MEAN runtime,
    folded event by event in plain Python."""

    def __init__(self, k, mean):
        self.k = k
        self.mean = mean
        self.windows = {}
        self.clock = 0.0
        self.value = []
        self.count = []

    def materialize(self, overlay):
        """The columns a fresh materialisation derives from the windows."""
        writer_of = overlay.writer_of
        self.windows = {
            node: self.windows.get(node, collections.deque()) for node in writer_of
        }
        n = overlay.num_nodes
        self.value, self.count = [0.0] * n, [0] * n
        for handle in overlay.topological_order():
            if overlay.kinds[handle] is NodeKind.WRITER:
                window = self.windows.get(overlay.labels[handle], ())
                for raw in window:
                    self.value[handle] = self.value[handle] + float(raw)
                self.count[handle] = len(window)
            elif overlay.decisions[handle] is Decision.PUSH:
                acc, cnt = 0.0, 0
                for src, sign in zip(*overlay.in_rows(handle)):
                    acc = acc + self.value[src] if sign > 0 else acc - self.value[src]
                    cnt += sign * self.count[src]
                self.value[handle], self.count[handle] = acc, cnt

    def write_batch(self, overlay, items):
        entries = {}  # writer handle -> [value delta, count delta]
        for item in items:
            node, value, stamp = item if len(item) == 3 else (*item, None)
            if stamp is None:
                stamp = self.clock = self.clock + 1.0
            elif stamp > self.clock:
                self.clock = stamp
            handle = overlay.writer_of.get(node)
            if handle is None:
                continue
            window = self.windows[node]
            entry = entries.setdefault(handle, [0.0, 0])
            if len(window) == self.k:
                entry[0] += value - window.popleft()
            else:
                entry[0] += value
                entry[1] += 1
            window.append(float(value))
        for handle, (dv, dc) in entries.items():
            if not dv and not (self.mean and dc):
                continue
            for dst, sign, is_push in push_steps(overlay, handle):
                if is_push:
                    self.value[dst] = self.value[dst] + sign * dv
                    self.count[dst] += sign * dc
            self.value[handle] = self.value[handle] + dv
            self.count[handle] += dc

    def assert_columns(self, runtime):
        overlay = runtime.overlay
        columns = [column.tolist() for column in runtime.values.columns]
        for handle in range(overlay.num_nodes):
            kind = overlay.kinds[handle]
            if kind is not NodeKind.WRITER and overlay.decisions[handle] is not Decision.PUSH:
                continue  # pull nodes keep no state
            assert columns[0][handle].hex() == self.value[handle].hex(), handle
            if self.mean:
                assert columns[1][handle] == self.count[handle], handle


def resume(engine, fresh):
    """``fresh`` restored from ``engine``'s pickled windows, clock and stamp
    (what a shard checkpoint carries); ring views travel detached."""
    old = engine.runtime
    buffers = pickle.loads(pickle.dumps(dict(old.buffers)))
    assert not any(type(buffer) is RingRow for buffer in buffers.values())
    runtime = fresh.runtime
    runtime.buffers.clear()
    runtime.buffers.update(buffers)
    runtime.clock, runtime.stamp = old.clock, old.stamp
    runtime.rebuild()
    return fresh


class Rig:
    """A kernel engine, the oracle and the reference, driven in lockstep."""

    def __init__(self, seed, aggregate, k, dyadic):
        self.rng = random.Random(seed)
        self.dyadic = dyadic
        size = self.rng.randrange(8, 16)
        graph = DynamicGraph()
        for i in range(size):
            graph.add_node(i)
        # Dense on purpose: near-cliques are where vnm_n builds negative edges.
        for _ in range(self.rng.randrange(3 * size, 8 * size)):
            u, v = self.rng.sample(range(size), 2)
            graph.add_edge(u, v)
        self.query = EgoQuery(
            aggregate=AGGREGATES[aggregate](),
            window=TupleWindow(k),
            neighborhood=Neighborhood.in_neighbors(),
        )
        self.options = dict(
            overlay_algorithm=self.rng.choice(["identity", "vnm_a", "vnm_n"]),
            dataflow=self.rng.choice(["mincut", "all_push", "all_pull"]),
        )
        self.engine = self.make_engine(graph.copy())
        self.oracle = oracle_for(self.engine)
        self.calls = 0
        self.reference = Reference(k, aggregate == "mean")
        self.ring = None
        self.labels = count(1000)

    def make_engine(self, graph):
        return EAGrEngine(graph, self.query, **self.options)

    # -- schedule steps ----------------------------------------------------

    def sync(self):
        """Apply pending structure, then track the runtime's materialisations
        (each builds a new ring)."""
        self.engine.read_batch([])
        runtime = self.engine.runtime
        if runtime._ring is not self.ring:
            self.ring = runtime._ring
            self.reference.materialize(runtime.overlay)
        self.reference.assert_columns(runtime)

    def value(self):
        if self.dyadic:
            return self.rng.randrange(-40, 90) / 4
        return self.rng.randrange(1, 60) / self.rng.choice([3.0, 7.0, 10.0])

    def batch(self, shape):
        rng = self.rng
        nodes = sorted(self.engine.graph.nodes())
        if shape == "empty":
            return []
        rows = rng.randrange(1, 24)
        picks = [rng.choice(nodes) for _ in range(rows)]
        if shape == "repeat":  # one writer well past k in the same batch
            hot = rng.choice(nodes)
            picks += [hot] * (self.query.window.size * 2 + rng.randrange(3))
            rng.shuffle(picks)
        if shape == "outside":  # ids no overlay knows, mixed in
            picks += [10**6 + rng.randrange(5) for _ in range(rng.randrange(1, 4))]
            rng.shuffle(picks)
        if shape == "ints":
            return [(node, rng.randrange(-5, 9)) for node in picks]
        if shape in ("triples", "frame", "mixed_none"):
            base = self.engine.runtime.clock
            items = [(node, self.value(), base + rng.randrange(-3, 30) / 2) for node in picks]
            if shape == "mixed_none":
                items[rng.randrange(len(items))] = (picks[0], self.value(), None)
            return WriteFrame.from_items(items) if shape == "frame" else items
        return [(node, self.value()) for node in picks]

    def write(self, shape):
        self.sync()
        batch = self.batch(shape)
        items = batch.tolist() if isinstance(batch, WriteFrame) else batch
        runtime = self.engine.runtime
        before = runtime.counters.writes
        assert self.engine.write_batch(batch) == len(items)
        self.calls += 1
        self.oracle.write_batch(items)
        self.reference.write_batch(runtime.overlay, items)
        assert runtime.counters.writes - before == len(items)
        assert runtime.clock == self.reference.clock == self.oracle.clock
        assert runtime.stamp == self.calls
        self.reference.assert_columns(runtime)

    def structure(self):
        event = random_structure_event(self.rng, self.engine.graph, lambda: next(self.labels))
        self.engine.apply_structure_event(event)

    def restore(self):
        """Checkpoint the windows the way a shard does and resume fresh
        engines (a fresh overlay, too) from them."""
        self.sync()
        self.engine = resume(self.engine, self.make_engine(self.engine.graph.copy()))
        assert all(type(buffer) is RingRow for buffer in self.engine.runtime.buffers.values())
        follow(self.oracle, self.engine)
        self.oracle.restart()

    def check(self):
        self.sync()
        engine, oracle = self.engine, self.oracle
        runtime = engine.runtime
        assert all(type(buffer) is RingRow for buffer in runtime.buffers.values())
        assert set(runtime.buffers) == oracle.writers()
        for node, buffer in runtime.buffers.items():
            assert buffer.values() == oracle.window(node), node
        assert runtime.stamp == self.calls
        readers = sorted(engine.overlay.reader_of)
        got = engine.read_batch(readers)
        want = [oracle.read(node) for node in readers]
        if self.dyadic:
            assert got == want
        else:
            assert all(map(close, got, want))


def close(a, b):
    """Equal, or equal to rounding (MEAN of nothing is ``None``)."""
    return a == b or (None not in (a, b) and abs(a - b) <= 1e-9 * max(1.0, abs(b)))


def run_schedule(seed, aggregate, k, dyadic):
    for kernel_rows in (execution._RING_ROWS, 1):
        with mock.patch.object(execution, "_RING_ROWS", kernel_rows):
            run_rig(Rig(seed, aggregate, k, dyadic))


def run_rig(rig):
    rig.sync()
    for _ in range(rig.rng.randrange(6, 16)):
        roll = rig.rng.random()
        if roll < 0.12:
            rig.structure()
        elif roll < 0.2:
            rig.restore()
        else:
            rig.write(rig.rng.choice(SHAPES))
        if rig.rng.random() < 0.4:
            rig.check()
    rig.check()


schedules = st.tuples(
    st.integers(min_value=0, max_value=100_000),
    st.sampled_from(sorted(AGGREGATES)),
    st.sampled_from([1, 2, 3, 5]),
    st.booleans(),  # dyadic values (exact reads) or thirds/sevenths
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules)
def test_kernel_matches_the_per_event_fold(schedule):
    run_schedule(*schedule)


def small_engine(aggregate=Sum, k=3, seed=3, **kwargs):
    rng = random.Random(seed)
    graph = DynamicGraph()
    for i in range(14):
        graph.add_node(i)
    for _ in range(40):
        u, v = rng.sample(range(14), 2)
        graph.add_edge(u, v)
    query = EgoQuery(aggregate=aggregate(), window=TupleWindow(k))
    return EAGrEngine(graph, query, overlay_algorithm="vnm_a", **kwargs)


@pytest.mark.parametrize(
    "shape, path",
    [("pairs", "_ring_kernel"), ("triples", "_ring_kernel"), ("frame", "_ring_kernel"),
     ("short", "_ring_loop"), ("short_frame", "_ring_loop"),
     ("ints", None), ("mixed_none", None), ("events", None)],
)
def test_packable_batches_and_only_those_fold_through_the_ring(shape, path):
    from repro.graph.streams import WriteEvent

    engine = small_engine()
    oracle = oracle_for(engine)
    nodes = sorted(engine.graph.nodes())
    many = nodes * (execution._RING_ROWS // len(nodes) + 1)
    batch = {
        "pairs": [(n, 1.5) for n in many],
        "triples": [(n, 1.5, 2.0) for n in many],
        "frame": WriteFrame.from_items([(n, 1.5, 2.0) for n in many]),
        "short": [(n, 1.5) for n in nodes],
        "short_frame": WriteFrame.from_items([(n, 1.5, 2.0) for n in nodes]),
        "ints": [(n, 1) for n in many],
        "mixed_none": [(n, 1.5, None if i == 0 else 2.0) for i, n in enumerate(many)],
        "events": [WriteEvent(n, 1.5) for n in many],
    }[shape]
    spies = {
        name: mock.patch.object(
            Runtime, name, autospec=True, side_effect=getattr(Runtime, name)
        )
        for name in ("_ring_kernel", "_ring_loop")
    }
    with spies["_ring_kernel"] as kernel, spies["_ring_loop"] as loop:
        engine.write_batch(batch)
    oracle.write_batch(batch)
    assert {"_ring_kernel": kernel.called, "_ring_loop": loop.called} == {
        name: name == path for name in spies
    }
    for node in nodes:
        assert engine.read(node) == oracle.read(node)


@pytest.mark.parametrize("kernel_rows", [1, 10**9])
@pytest.mark.parametrize("k", [1, 4])
def test_observed_push_is_the_per_event_tally(k, kernel_rows, monkeypatch):
    """Ring batches — kernel or loop — reach the adaptive controller event
    by event: at every frontier node its window's f_h is the tally of each
    event's walk along its writer's push plan, pull-frontier stops
    included, zero-delta writes too."""
    monkeypatch.setattr(execution, "_RING_ROWS", kernel_rows)
    engine = small_engine(
        k=k, adaptive=True, adaptive_config=AdaptiveConfig(check_interval=10**9)
    )
    runtime = engine.runtime
    overlay = runtime.overlay
    rng = random.Random(k)
    nodes = sorted(engine.graph.nodes()) + [10**6]
    tally = [0] * overlay.num_nodes
    for _ in range(700):
        batch = [(rng.choice(nodes), float(rng.randrange(3))) for _ in range(30)]
        engine.write_batch(batch)
        for node, _value in batch:
            writer = overlay.writer_of.get(node)
            if writer is not None:
                for dst, _sign, _push in push_steps(overlay, writer):
                    tally[dst] += 1
    assert runtime is engine.runtime
    pushes, _pulls = engine.controller.frequencies()
    frontier = engine.controller.frontier()
    assert any(tally[handle] for handle in frontier)
    assert [pushes[handle] for handle in frontier] == [tally[handle] for handle in frontier]


@pytest.mark.parametrize("kernel_rows", [1, 10**9])
def test_changed_readers_ignore_how_writers_interleave(kernel_rows, monkeypatch):
    """Permuting one batch's rows across writers (each writer's own rows
    keep their order) reports the same readers and reads the same values."""
    monkeypatch.setattr(execution, "_RING_ROWS", kernel_rows)
    rng = random.Random(5)
    first, second = small_engine(Mean, k=2), small_engine(Mean, k=2)
    nodes = sorted(first.graph.nodes())
    for _ in range(20):
        batch = [(rng.choice(nodes), float(rng.randrange(-4, 9))) for _ in range(16)]
        lanes = collections.defaultdict(collections.deque)
        for row in batch:
            lanes[row[0]].append(row)
        order = [row[0] for row in batch]
        rng.shuffle(order)
        permuted = [lanes[node].popleft() for node in order]
        assert permuted != batch or len(set(order)) == 1
        first.write_batch(batch)
        second.write_batch(permuted)
        assert first.changed_readers() == second.changed_readers()
        assert first.read_batch(nodes) == second.read_batch(nodes)
