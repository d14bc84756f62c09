"""Value stores: the aggregate picks its store, and both stores read true.

Seeded property drives play integer streams through engines and assert
every read equals the brute-force oracle (``tests/oracle.py``) — value
*and* Python type — across overlay algorithms × {SUM, COUNT, MEAN, MAX}
on columns and {TOP-K, COUNT-DISTINCT, a user-defined SUM} on objects ×
tuple/time windows, with window evictions, adaptive decision flips and
overlay surgery interleaved mid-stream.
"""

import random

import pytest

from repro.core.aggregates import (
    Count,
    CountDistinct,
    DistinctSet,
    Max,
    Mean,
    Min,
    Sum,
    TopK,
)
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.statestore import ColumnarStore, ObjectStore, make_value_store
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

from tests.conftest import STORE_OF, as_object, oracle_for

AGGREGATES = {
    "sum": Sum,
    "count": Count,
    "mean": Mean,
    "max": Max,
    # the object store's aggregates
    "object_sum": lambda: as_object(Sum()),
    "count_distinct": CountDistinct,
    "topk": lambda: TopK(2),
}

#: Overlay algorithms legal per aggregate (vnm_n needs subtraction,
#: vnm_d needs duplicate insensitivity).
ALGORITHMS = {
    "sum": ("identity", "vnm_a", "vnm_n", "iob"),
    "count": ("identity", "vnm_a", "vnm_n", "iob"),
    "mean": ("identity", "vnm_a", "vnm_n", "iob"),
    "max": ("identity", "vnm_a", "vnm_d", "iob"),
    "object_sum": ("identity", "vnm_a", "vnm_n", "iob"),
    "count_distinct": ("identity", "vnm_a", "vnm_n", "iob"),
    "topk": ("identity", "vnm_a", "vnm_n", "iob"),
}

WINDOWS = {
    "unit": lambda: TupleWindow(1),
    "tuple": lambda: TupleWindow(3),
    "time": lambda: TimeWindow(6.0),
}


def make_engine(graph, aggregate, algorithm, window_name, **kwargs):
    """An engine over ``aggregate`` (a name of :data:`AGGREGATES` or an
    aggregate object)."""
    if isinstance(aggregate, str):
        aggregate = AGGREGATES[aggregate]()
    query = EgoQuery(
        aggregate=aggregate,
        window=WINDOWS[window_name](),
        neighborhood=Neighborhood.in_neighbors(),
    )
    kwargs.setdefault("dataflow", "mincut")
    return EAGrEngine(graph, query, overlay_algorithm=algorithm, **kwargs)


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


def drive_against_oracle(
    engine,
    seed,
    num_events=220,
    batch_cap=11,
    structure_fraction=0.0,
):
    """Play one seeded integer stream through ``engine`` and the oracle.

    Writes are batched and flushed on reads; every read is asserted equal
    to the oracle's — equal value AND equal Python type.
    """
    rng = random.Random(seed)
    oracle = oracle_for(engine)
    nodes = sorted(engine.graph.nodes(), key=repr)
    buffered = []
    clock = 0.0
    checked = 0

    def flush():
        if buffered:
            engine.write_batch(buffered)
            oracle.write_batch(buffered)
            buffered.clear()

    def check(got, node):
        want = oracle.read(node)
        assert got == want, (node, got, want)
        assert type(got) is type(want), (node, type(got), type(want))

    for _ in range(num_events):
        clock += 1.0
        roll = rng.random()
        if structure_fraction and roll < structure_fraction:
            flush()
            event = random_structure_event(rng, engine.graph)
            if event is not None:
                engine.apply_structure_event(event)
            continue
        node = rng.choice(nodes)
        if roll < 0.6:
            value = float(rng.randrange(9))
            buffered.append((node, value, clock))
            if len(buffered) >= batch_cap:
                flush()
        else:
            flush()
            check(engine.read(node), node)
            checked += 1
    flush()
    for node in nodes[:10] + nodes[:2]:  # repeats exercise batch memo reuse
        batch = engine.read_batch([node, node])
        assert batch[0] == batch[1]
        check(batch[0], node)
        checked += 1
    return checked


@pytest.mark.parametrize("aggregate_name", sorted(AGGREGATES))
@pytest.mark.parametrize("window_name", sorted(WINDOWS))
def test_backend_parity_across_algorithms(aggregate_name, window_name):
    for index, algorithm in enumerate(ALGORITHMS[aggregate_name]):
        graph = random_graph(22, 60, seed=31)
        engine = make_engine(graph, aggregate_name, algorithm, window_name)
        checked = drive_against_oracle(engine, seed=37 * len(aggregate_name) + index)
        assert checked > 10, (aggregate_name, algorithm, window_name)


@pytest.mark.parametrize("aggregate_name", ["sum", "mean", "max", "object_sum"])
def test_backend_parity_under_overlay_surgery(aggregate_name):
    """Structure events mid-stream resize/remap the store through the dirty
    set machinery; reads keep equalling the oracle."""
    for maintain in (False, True):
        graph = random_graph(18, 48, seed=7)
        engine = make_engine(graph, aggregate_name, "vnm_a", "unit", maintain=maintain)
        drive_against_oracle(
            engine, seed=91, num_events=280, structure_fraction=0.08
        )


@pytest.mark.parametrize("maintain", [False, True])
@pytest.mark.parametrize("aggregate_name", ["sum", "count_distinct"])
def test_two_hops_with_the_ego_and_a_predicate(aggregate_name, maintain):
    """Two-hop neighbourhoods that include the ego, on the readers a
    predicate selects, under structure events."""
    graph = random_graph(18, 40, seed=5)
    query = EgoQuery(
        aggregate=AGGREGATES[aggregate_name](),
        window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(hops=2, include_self=True),
        predicate=lambda node: node % 3 != 0,
    )
    engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a", maintain=maintain)
    drive_against_oracle(engine, seed=23, num_events=260, structure_fraction=0.08)


def test_backend_parity_with_adaptive_flips():
    """Adaptive decision flips mid-stream: either store re-materializes on
    push flips and clears on pull flips."""
    for aggregate in (Sum(), as_object(Sum())):
        graph = random_graph(18, 48, seed=3)
        engine = make_engine(graph, aggregate, "vnm_a", "tuple", adaptive=True)
        engine.controller.config.check_interval = 40
        drive_against_oracle(engine, seed=17, num_events=420)


# ---------------------------------------------------------------------------
# store unit behavior
# ---------------------------------------------------------------------------


class TestStores:
    def test_resolution(self):
        """The aggregate picks its store: columns exactly when it declares
        a column spec, objects otherwise."""
        for aggregate in (Sum(), Count(), Mean(), Max(), Min()):
            assert isinstance(make_value_store(aggregate, 3), ColumnarStore), aggregate
        for aggregate in (TopK(3), CountDistinct(), DistinctSet(), as_object(Sum())):
            assert isinstance(make_value_store(aggregate, 3), ObjectStore), aggregate

    def test_the_engine_takes_only_columnar(self):
        """``value_store`` survives on the engine for callers that still
        pass ``"columnar"``; any other value is an error."""
        graph = random_graph(6, 12, seed=1)
        query = EgoQuery(aggregate=Sum())
        engine = EAGrEngine(graph, query, value_store="columnar")
        assert engine.value_store_backend == "columnar"
        for mode in ("object", "auto", "bogus"):
            with pytest.raises(ValueError):
                EAGrEngine(graph, query, value_store=mode)

    def test_object_store_roundtrip(self):
        store = make_value_store(TopK(3), 4)
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
            store = make_value_store(aggregate, 5)
            assert isinstance(store, ColumnarStore)
            assert store[1] is None  # unassigned handles read as None
            store[1] = pao
            got = store[1]
            assert got == pao and type(got) is type(pao)
            store[1] = None
            assert store[1] is None

    def test_columnar_lattice_identity(self):
        store = make_value_store(Max(), 3)
        store[0] = None
        assert store[0] is None
        store[0] = Max().identity()  # identity is None for lattices
        assert store[0] is None

    def test_columnar_resize_remaps(self):
        store = make_value_store(Mean(), 3)
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
    the brute-force oracle."""
    aggregates = {"max": Max, "min": Min}
    graph = random_graph(18, 50, seed=77)
    query = EgoQuery(
        aggregate=aggregates[aggregate](),
        window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(),
    )
    engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a", dataflow="mincut")
    oracle = oracle_for(engine)
    runtime = engine.runtime
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
        engine.write_batch(batch)
        oracle.write_batch(batch)
    for node in nodes:
        assert engine.read(node) == oracle.read(node), node


# ---------------------------------------------------------------------------
# batch-aware pull memoization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("store", sorted(STORE_OF))
def test_read_batch_memoizes_shared_pull_subtrees(store):
    """Within one read_batch, repeated work evaluates once and answers stay
    identical.  The object store's interpreter shares pull subtrees through
    its per-batch memo (``pull_memo_hits`` is its counter); the columnar
    kernel collapses duplicate readers before evaluating, so ``nodes +
    nodes`` performs exactly the pull work of ``nodes``."""
    graph = random_graph(20, 70, seed=13)
    engine = make_engine(graph, STORE_OF[store](Sum()), "vnm_a", "unit", dataflow="all_pull")
    nodes = sorted(graph.nodes(), key=repr)
    engine.write_batch([(node, float(i % 5 + 1)) for i, node in enumerate(nodes)])
    singles = [engine.read(node) for node in nodes]
    runtime = engine.runtime
    before_hits = runtime.pull_memo_hits
    before_ops = runtime.counters.pull_ops
    batch = engine.read_batch(nodes + nodes)  # duplicates force reuse
    assert batch == singles + singles
    batched_ops = runtime.counters.pull_ops - before_ops
    if engine.value_store_backend == "columnar":
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
    from_list = make_engine(graph, "sum", "vnm_a", "unit")
    from_gen = make_engine(graph.copy(), "sum", "vnm_a", "unit")
    oracle = oracle_for(from_gen)
    nodes = sorted(graph.nodes(), key=repr)
    writes = [(node, float(i + 1), float(i + 1)) for i, node in enumerate(nodes)]
    from_list.write_batch(writes)
    assert from_gen.write_batch(item for item in writes) == len(writes)
    oracle.write_batch(writes)
    for node in nodes:
        assert from_list.read(node) == from_gen.read(node) == oracle.read(node), node


def test_read_batch_memo_does_not_leak_across_batches():
    graph = random_graph(14, 40, seed=19)
    engine = make_engine(graph, "sum", "vnm_a", "unit", dataflow="all_pull")
    oracle = oracle_for(engine)
    nodes = sorted(graph.nodes(), key=repr)
    for value in (3.0, 5.0):
        batch = [(node, value) for node in nodes]
        engine.write_batch(batch)
        oracle.write_batch(batch)
        if value == 3.0:
            first = engine.read_batch(nodes[:4])
    second = engine.read_batch(nodes[:4])  # the state moved on
    for node, got in zip(nodes[:4], second):
        assert got == oracle.read(node), node
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
    never take the lattice path) — and reads what the oracle reads."""
    graph = random_graph(16, 44, seed=23)
    engine = make_engine(graph, "mean", "vnm_a", "unit")
    oracle = oracle_for(engine)
    rng = random.Random(29)
    nodes = sorted(graph.nodes(), key=repr)
    writes = [
        (rng.choice(nodes), float(rng.randrange(7)), float(tick + 1))
        for tick in range(300)
    ]
    for start in range(0, len(writes), 32):
        chunk = writes[start : start + 32]
        engine.write_batch(chunk)
        oracle.write_batch(chunk)
    for node in nodes:
        assert engine.read(node) == oracle.read(node), node
    spec = Mean.column_spec
    assert spec.sources == ("value", "count")
    assert spec.dtypes == ("float64", "int64")
