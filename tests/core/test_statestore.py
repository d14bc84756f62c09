"""Value-store backends: ObjectStore ↔ ColumnarStore equivalence.

Seeded property drives play identical integer streams through two engines
that differ only in their value-store backend and assert every read comes
back byte-identical (value *and* type), across overlay algorithms ×
{SUM, COUNT, MEAN, MAX} × tuple/time windows, with window evictions,
adaptive decision flips and overlay surgery interleaved mid-stream.
"""

import random

import pytest

from repro.core.aggregates import Count, Max, Mean, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.statestore import (
    ColumnarStore,
    ObjectStore,
    ValueStoreError,
    make_value_store,
    resolve_value_store,
)
from repro.core.windows import (
    NO_VALUE,
    TimeWindow,
    TupleWindow,
    _ScalarTimeBuffer,
    _ScalarTupleBuffer,
    _ScalarUnitBuffer,
    _TimeBuffer,
    _TupleBuffer,
)
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp

AGGREGATES = {
    "sum": Sum,
    "count": Count,
    "mean": Mean,
    "max": Max,
}

#: Overlay algorithms legal per aggregate (vnm_n needs subtraction,
#: vnm_d needs duplicate insensitivity).
ALGORITHMS = {
    "sum": ("identity", "vnm_a", "vnm_n", "iob"),
    "count": ("identity", "vnm_a", "vnm_n", "iob"),
    "mean": ("identity", "vnm_a", "vnm_n", "iob"),
    "max": ("identity", "vnm_a", "vnm_d", "iob"),
}

WINDOWS = {
    "unit": lambda: TupleWindow(1),
    "tuple": lambda: TupleWindow(3),
    "time": lambda: TimeWindow(6.0),
}


def make_engine(graph, aggregate_name, algorithm, window_name, value_store, **kwargs):
    query = EgoQuery(
        aggregate=AGGREGATES[aggregate_name](),
        window=WINDOWS[window_name](),
        neighborhood=Neighborhood.in_neighbors(),
    )
    kwargs.setdefault("dataflow", "mincut")
    return EAGrEngine(
        graph,
        query,
        overlay_algorithm=algorithm,
        value_store=value_store,
        **kwargs,
    )


def random_structure_event(rng, graph):
    roll = rng.random()
    nodes = sorted(graph.nodes(), key=repr)
    if roll < 0.45 and len(nodes) >= 2:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            return StructureEvent(StructureOp.ADD_EDGE, u, v)
        return None
    if roll < 0.8:
        edges = sorted(graph.edges())
        if edges:
            u, v = edges[rng.randrange(len(edges))]
            return StructureEvent(StructureOp.REMOVE_EDGE, u, v)
        return None
    return StructureEvent(StructureOp.ADD_NODE, 900 + rng.randrange(40))


def drive_backend_pair(
    object_engine,
    columnar_engine,
    seed,
    num_events=220,
    batch_cap=11,
    structure_fraction=0.0,
):
    """Play one seeded integer stream through both backends.

    Both engines ingest identically (batched writes, flushed on reads);
    every read is asserted byte-identical between backends — equal value
    AND equal Python type — and checked against the brute-force oracle.
    """
    rng = random.Random(seed)
    nodes = sorted(object_engine.graph.nodes(), key=repr)
    buffered = []
    clock = 0.0
    checked = 0

    def flush():
        if buffered:
            object_engine.write_batch(buffered)
            columnar_engine.write_batch(list(buffered))
            buffered.clear()

    for _ in range(num_events):
        clock += 1.0
        roll = rng.random()
        if structure_fraction and roll < structure_fraction:
            flush()
            event = random_structure_event(rng, object_engine.graph)
            if event is not None:
                object_engine.apply_structure_event(event)
                columnar_engine.apply_structure_event(event)
            continue
        node = rng.choice(nodes)
        if roll < 0.6:
            value = float(rng.randrange(9))
            buffered.append((node, value, clock))
            if len(buffered) >= batch_cap:
                flush()
        else:
            flush()
            got_object = object_engine.read(node)
            got_columnar = columnar_engine.read(node)
            assert got_object == got_columnar, (node, got_object, got_columnar)
            assert type(got_object) is type(got_columnar), (
                node,
                type(got_object),
                type(got_columnar),
            )
            assert got_object == object_engine.reference_read(node)
            checked += 1
    flush()
    for node in nodes[:10] + nodes[:2]:  # repeats exercise batch memo reuse
        batch_object = object_engine.read_batch([node, node])
        batch_columnar = columnar_engine.read_batch([node, node])
        assert batch_object == batch_columnar, node
        assert batch_object[0] == object_engine.reference_read(node), node
        checked += 1
    return checked


@pytest.mark.parametrize("aggregate_name", sorted(AGGREGATES))
@pytest.mark.parametrize("window_name", sorted(WINDOWS))
def test_backend_parity_across_algorithms(aggregate_name, window_name):
    for index, algorithm in enumerate(ALGORITHMS[aggregate_name]):
        graph = random_graph(22, 60, seed=31)
        object_engine = make_engine(
            graph, aggregate_name, algorithm, window_name, "object"
        )
        columnar_engine = make_engine(
            graph.copy(), aggregate_name, algorithm, window_name, "columnar"
        )
        assert columnar_engine.value_store_backend == "columnar"
        assert object_engine.value_store_backend == "object"
        checked = drive_backend_pair(
            object_engine,
            columnar_engine,
            seed=37 * len(aggregate_name) + index,
        )
        assert checked > 10, (aggregate_name, algorithm, window_name)


@pytest.mark.parametrize("aggregate_name", ["sum", "mean", "max"])
def test_backend_parity_under_overlay_surgery(aggregate_name):
    """Structure events mid-stream resize/remap columns through the dirty
    set machinery; both backends keep answering identically."""
    for maintain in (False, True):
        graph = random_graph(18, 48, seed=7)
        object_engine = make_engine(
            graph, aggregate_name, "vnm_a", "unit", "object", maintain=maintain
        )
        columnar_engine = make_engine(
            graph.copy(), aggregate_name, "vnm_a", "unit", "columnar", maintain=maintain
        )
        drive_backend_pair(
            object_engine,
            columnar_engine,
            seed=91,
            num_events=280,
            structure_fraction=0.08,
        )


def test_backend_parity_with_adaptive_flips():
    """Adaptive decision flips mid-stream: columns re-materialize on push
    flips and clear on pull flips, matching the object store exactly."""
    graph = random_graph(18, 48, seed=3)
    object_engine = make_engine(graph, "sum", "vnm_a", "tuple", "object", adaptive=True)
    columnar_engine = make_engine(
        graph.copy(), "sum", "vnm_a", "tuple", "columnar", adaptive=True
    )
    object_engine.controller.config.check_interval = 40
    columnar_engine.controller.config.check_interval = 40
    drive_backend_pair(object_engine, columnar_engine, seed=17, num_events=420)


# ---------------------------------------------------------------------------
# store unit behavior
# ---------------------------------------------------------------------------


class TestStores:
    def test_resolution(self):
        assert resolve_value_store(Sum(), "auto") == "columnar"
        assert resolve_value_store(Sum(), "object") == "object"
        assert resolve_value_store(TopK(3), "auto") == "object"
        # columnar is a request; an aggregate without a spec keeps objects
        assert resolve_value_store(TopK(3), "columnar") == "object"
        for mode in ("bogus", "shared"):  # no shared-memory backend
            with pytest.raises(ValueStoreError):
                resolve_value_store(Sum(), mode)

    def test_object_store_roundtrip(self):
        store = make_value_store(TopK(3), 4, "auto")
        assert isinstance(store, ObjectStore)
        assert store[2] is None
        store[2] = {"a": 1}
        assert store[2] == {"a": 1}
        store.resize(2)
        assert len(store) == 2 and store[1] is None

    def test_columnar_roundtrip_types(self):
        for aggregate, pao in (
            (Sum(), 3.5),
            (Count(), 7),
            (Mean(), (4.0, 2)),
            (Max(), 9.0),
        ):
            store = make_value_store(aggregate, 5, "columnar")
            assert isinstance(store, ColumnarStore)
            assert store[1] is None  # unassigned handles read as None
            store[1] = pao
            got = store[1]
            assert got == pao and type(got) is type(pao)
            store[1] = None
            assert store[1] is None

    def test_columnar_lattice_identity(self):
        store = make_value_store(Max(), 3, "columnar")
        store[0] = None
        assert store[0] is None
        store[0] = Max().identity()  # identity is None for lattices
        assert store[0] is None

    def test_columnar_resize_remaps(self):
        store = make_value_store(Mean(), 3, "columnar")
        store[2] = (6.0, 3)
        store.resize(6)  # grow: everything reverts to cleared identity
        assert len(store) == 6
        assert all(store[h] is None for h in range(6))
        store[5] = (1.0, 1)
        store.resize(6)  # same-size remap also resets
        assert store[5] is None


# ---------------------------------------------------------------------------
# vectorized lattice batches (MAX/MIN grow-only scatters)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("aggregate", ["max", "min"])
def test_lattice_batches_take_the_scatter_path(aggregate):
    """Eviction-free MAX/MIN batches apply as extremum scatters (no
    snapshot dicts retained), and mixed grow/evict batches still match
    the object backend and the brute-force oracle."""
    from repro.core.aggregates import Min

    aggregates = {"max": Max, "min": Min}
    graph = random_graph(18, 50, seed=77)
    query = EgoQuery(
        aggregate=aggregates[aggregate](),
        window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(),
    )
    object_engine = EAGrEngine(
        graph, query, overlay_algorithm="vnm_a", dataflow="mincut",
        value_store="object",
    )
    columnar_engine = EAGrEngine(
        graph.copy(), query, overlay_algorithm="vnm_a", dataflow="mincut",
        value_store="columnar",
    )
    runtime = columnar_engine.runtime
    assert runtime._lattice_columns
    # snapshot dicts are not materialized on the columnar lattice path
    assert all(snap is None for snap in runtime.snapshots)
    rng = random.Random(13)
    nodes = sorted(graph.nodes(), key=repr)
    for _ in range(40):
        batch = [
            (rng.choice(nodes), float(rng.randrange(12)))
            for _ in range(rng.randrange(1, 9))
        ]
        object_engine.write_batch(batch)
        columnar_engine.write_batch(list(batch))
    for node in nodes:
        expected = object_engine.read(node)
        assert columnar_engine.read(node) == expected, node
        assert expected == object_engine.reference_read(node), node


# ---------------------------------------------------------------------------
# batch-aware pull memoization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value_store", ["object", "columnar"])
def test_read_batch_memoizes_shared_pull_subtrees(value_store):
    """Within one read_batch, repeated work evaluates once and answers stay
    identical.  The object store's interpreter shares pull subtrees through
    its per-batch memo (``pull_memo_hits`` is its counter); the columnar
    kernel collapses duplicate readers before evaluating, so ``nodes +
    nodes`` performs exactly the pull work of ``nodes``."""
    graph = random_graph(20, 70, seed=13)
    engine = make_engine(graph, "sum", "vnm_a", "unit", value_store, dataflow="all_pull")
    nodes = sorted(graph.nodes(), key=repr)
    engine.write_batch([(node, float(i % 5 + 1)) for i, node in enumerate(nodes)])
    singles = [engine.read(node) for node in nodes]
    runtime = engine.runtime
    before_hits = runtime.pull_memo_hits
    before_ops = runtime.counters.pull_ops
    batch = engine.read_batch(nodes + nodes)  # duplicates force reuse
    assert batch == singles + singles
    batched_ops = runtime.counters.pull_ops - before_ops
    if value_store == "columnar":
        assert runtime.pull_memo_hits == before_hits == 0
        assert engine.read_batch(nodes) == singles
        assert runtime.counters.pull_ops - before_ops == 2 * batched_ops
    else:
        assert runtime.pull_memo_hits > before_hits
    # Re-reading every node twice must cost less than twice the singles.
    single_ops = before_ops  # singles above were the only prior reads
    assert batched_ops < 2 * single_ops


def test_write_batch_accepts_one_shot_iterators():
    """Generator input must not lose its consumed prefix when the fast
    extraction falls back to per-item dispatch (regression)."""
    graph = random_graph(12, 30, seed=41)
    from_list = make_engine(graph, "sum", "vnm_a", "unit", "auto")
    from_gen = make_engine(graph.copy(), "sum", "vnm_a", "unit", "auto")
    nodes = sorted(graph.nodes(), key=repr)
    writes = [(node, float(i + 1), float(i + 1)) for i, node in enumerate(nodes)]
    from_list.write_batch(writes)
    assert from_gen.write_batch(item for item in writes) == len(writes)
    for node in nodes:
        assert from_list.read(node) == from_gen.read(node) == from_gen.reference_read(
            node
        ), node


def test_read_batch_memo_does_not_leak_across_batches():
    graph = random_graph(14, 40, seed=19)
    engine = make_engine(graph, "sum", "vnm_a", "unit", "auto", dataflow="all_pull")
    nodes = sorted(graph.nodes(), key=repr)
    engine.write_batch([(node, 3.0) for node in nodes])
    first = engine.read_batch(nodes[:4])
    engine.write_batch([(node, 5.0) for node in nodes])  # state moves on
    second = engine.read_batch(nodes[:4])
    for node, got in zip(nodes[:4], second):
        assert got == engine.reference_read(node), node
    assert first != second  # stale memo entries would have leaked


# ---------------------------------------------------------------------------
# ring buffers
# ---------------------------------------------------------------------------


class TestRingBuffers:
    def test_unit_buffer_swap(self):
        buffer = _ScalarUnitBuffer()
        assert buffer.push(1.0, 0.0) is NO_VALUE
        assert buffer.push(2.0, 0.0) == 1.0
        assert buffer.values() == [2.0] and len(buffer) == 1
        assert buffer.append(3.0, 0.0) == [2.0]

    def test_tuple_ring_matches_deque_buffer(self):
        rng = random.Random(2)
        ring, deque_buffer = _ScalarTupleBuffer(3), _TupleBuffer(3)
        for tick in range(40):
            value = float(rng.randrange(10))
            assert ring.append(value, float(tick)) == deque_buffer.append(
                value, float(tick)
            )
            assert ring.values() == deque_buffer.values()
            assert len(ring) == len(deque_buffer)

    def test_time_ring_matches_deque_buffer(self):
        rng = random.Random(4)
        ring, deque_buffer = _ScalarTimeBuffer(5.0), _TimeBuffer(5.0)
        tick = 0.0
        for _ in range(60):  # enough appends to force ring growth
            tick += rng.random() * 2.0
            value = float(rng.randrange(10))
            assert ring.append(value, tick) == deque_buffer.append(value, tick)
            assert ring.values() == deque_buffer.values()
            assert ring.next_expiry() == deque_buffer.next_expiry()

    def test_time_ring_rejects_non_monotone(self):
        ring = _ScalarTimeBuffer(5.0)
        ring.append(1.0, 10.0)
        with pytest.raises(ValueError):
            ring.append(2.0, 3.0)

    def test_tuple_window_scalar_dispatch(self):
        assert isinstance(TupleWindow(1).make_buffer(scalar=True), _ScalarUnitBuffer)
        assert isinstance(TupleWindow(2).make_buffer(scalar=True), _ScalarTupleBuffer)
        assert isinstance(TupleWindow(2).make_buffer(), _TupleBuffer)
        assert isinstance(TimeWindow(4.0).make_buffer(scalar=True), _ScalarTimeBuffer)


# ---------------------------------------------------------------------------
# Mean two-column wiring (the dead fast_update satellite)
# ---------------------------------------------------------------------------


def test_mean_two_column_kernel_matches_object():
    """MEAN rides the columnar kernel as a (sum, count) pair — its
    inherited lattice ``fast_update`` stays unreachable (group aggregates
    never take the lattice path)."""
    graph = random_graph(16, 44, seed=23)
    object_engine = make_engine(graph, "mean", "vnm_a", "unit", "object")
    columnar_engine = make_engine(graph.copy(), "mean", "vnm_a", "unit", "columnar")
    rng = random.Random(29)
    nodes = sorted(graph.nodes(), key=repr)
    writes = [
        (rng.choice(nodes), float(rng.randrange(7)), float(tick + 1))
        for tick in range(300)
    ]
    for start in range(0, len(writes), 32):
        chunk = writes[start : start + 32]
        object_engine.write_batch(chunk)
        columnar_engine.write_batch(chunk)
    for node in nodes:
        got_object = object_engine.read(node)
        got_columnar = columnar_engine.read(node)
        assert got_object == got_columnar, node
        assert got_object == object_engine.reference_read(node), node
    spec = Mean.column_spec
    assert spec.sources == ("value", "count")
    assert spec.dtypes == ("float64", "int64")
