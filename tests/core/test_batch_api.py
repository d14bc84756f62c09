"""Batched write/read API: byte-identical to the per-event loop.

Seeded-random property tests driving two engines over the same stream —
one per-event, one through ``write_batch``/``read_batch`` — across overlay
algorithms × {Sum, Max, TopK} × tuple/time windows, with interleaved
structure events and adaptive decision flips invalidating compiled plans
mid-stream.  Values are small integers so float arithmetic is exact and
equality is byte-identical.
"""

import random

import pytest

from repro.core.aggregates import Max, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.execution import Runtime
from repro.core.overlay import Decision, Overlay
from repro.core.query import EgoQuery
from repro.core.windows import TimeWindow, TupleWindow
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp

from tests.conftest import oracle_for

AGGREGATES = {
    "sum": Sum,
    "max": Max,
    "topk": lambda: TopK(3),
}

#: Overlay algorithms legal per aggregate (mirrors benchmarks SYSTEMS).
ALGORITHMS = {
    "sum": ("identity", "vnm_a", "vnm_n", "iob"),
    "max": ("identity", "vnm_a", "vnm_d", "iob"),
    "topk": ("identity", "vnm_a", "vnm_n", "iob"),
}

WINDOWS = {
    "tuple": lambda: TupleWindow(3),
    "time": lambda: TimeWindow(6.0),
}


def make_engine(graph, aggregate_name, algorithm, window_name, dataflow="mincut", **kwargs):
    query = EgoQuery(
        aggregate=AGGREGATES[aggregate_name](),
        window=WINDOWS[window_name](),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return EAGrEngine(
        graph, query, overlay_algorithm=algorithm, dataflow=dataflow, **kwargs
    )


def random_value(rng, aggregate_name):
    if aggregate_name == "topk":
        return rng.choice(["a", "b", "c", "d"])
    return float(rng.randrange(10))


def drive_pair(
    engine_a,
    engine_b,
    aggregate_name,
    seed,
    num_events=240,
    batch_cap=13,
    structure_fraction=0.0,
):
    """Play one seeded stream through both engines and cross-check reads.

    ``engine_a`` sees every event individually; ``engine_b`` gets writes
    coalesced into batches of up to ``batch_cap``.  Reads flush the pending
    batch (they must observe all prior writes) and are asserted equal
    between the engines and against the brute-force oracle.  Structure
    events flush too and are applied to both engines, forcing plan
    invalidation between batches.
    """
    rng = random.Random(seed)
    oracle = oracle_for(engine_a)
    nodes = sorted(engine_a.graph.nodes(), key=repr)
    buffered = []
    clock = 0.0
    checked = 0

    def flush():
        if buffered:
            engine_b.write_batch(buffered)
            buffered.clear()

    for _ in range(num_events):
        clock += 1.0
        roll = rng.random()
        if structure_fraction and roll < structure_fraction:
            flush()
            event = random_structure_event(rng, engine_a.graph)
            if event is not None:
                engine_a.apply_structure_event(event)
                engine_b.apply_structure_event(event)
            continue
        node = rng.choice(nodes)
        if roll < 0.65:
            value = random_value(rng, aggregate_name)
            engine_a.write(node, value, clock)
            oracle.write(node, value, clock)
            buffered.append((node, value, clock))
            if len(buffered) >= batch_cap:
                flush()
        else:
            flush()
            got_a = engine_a.read(node)
            got_b = engine_b.read_batch([node])[0]
            assert got_a == got_b, (node, got_a, got_b)
            assert got_a == oracle.read(node)
            checked += 1
    flush()
    for node in nodes[:12]:
        got_a = engine_a.read(node)
        got_b = engine_b.read_batch([node])[0]
        assert got_a == got_b == oracle.read(node), node
        checked += 1
    return checked


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
    return StructureEvent(StructureOp.ADD_NODE, 1000 + rng.randrange(50))


@pytest.mark.parametrize("aggregate_name", sorted(AGGREGATES))
@pytest.mark.parametrize("window_name", sorted(WINDOWS))
def test_batch_matches_per_event_across_algorithms(aggregate_name, window_name):
    for index, algorithm in enumerate(ALGORITHMS[aggregate_name]):
        graph = random_graph(24, 70, seed=11)
        engine_a = make_engine(graph, aggregate_name, algorithm, window_name)
        engine_b = make_engine(graph.copy(), aggregate_name, algorithm, window_name)
        checked = drive_pair(
            engine_a, engine_b, aggregate_name, seed=100 * len(aggregate_name) + index
        )
        assert checked > 10, (aggregate_name, algorithm)


@pytest.mark.parametrize("aggregate_name", ["sum", "max"])
def test_batch_with_interleaved_structure_events(aggregate_name):
    """Structure events between batches invalidate plans; reads stay exact."""
    for maintain in (False, True):
        graph = random_graph(20, 55, seed=5)
        engine_a = make_engine(
            graph, aggregate_name, "vnm_a", "tuple", maintain=maintain
        )
        engine_b = make_engine(
            graph.copy(), aggregate_name, "vnm_a", "tuple", maintain=maintain
        )
        drive_pair(
            engine_a,
            engine_b,
            aggregate_name,
            seed=77,
            num_events=300,
            structure_fraction=0.08,
        )
        # Plans were actually exercised and actually invalidated (the
        # columnar backend batches through the scatter table instead of
        # per-writer plans).
        runtime = engine_b.runtime
        assert runtime.plan_compiles > 0 or runtime.scatter_builds > 0


def test_batch_with_adaptive_decision_flips():
    """Adaptive flips mid-stream only invalidate the touched plans."""
    graph = random_graph(20, 55, seed=9)
    kwargs = dict(adaptive=True)
    engine_a = make_engine(graph, "sum", "vnm_a", "tuple", **kwargs)
    engine_b = make_engine(graph.copy(), "sum", "vnm_a", "tuple", **kwargs)
    engine_a.controller.config.check_interval = 40
    engine_b.controller.config.check_interval = 40
    drive_pair(engine_a, engine_b, "sum", seed=13, num_events=500)


def test_write_batch_accepts_tuples_and_events():
    from repro.graph.streams import WriteEvent

    graph = random_graph(10, 25, seed=3)
    engine = make_engine(graph, "sum", "identity", "tuple")
    oracle = oracle_for(engine)
    nodes = sorted(graph.nodes(), key=repr)
    batch = [
        (nodes[0], 2.0),
        (nodes[1], 3.0, 5.0),
        WriteEvent(node=nodes[2], value=4.0, timestamp=6.0),
    ]
    assert engine.write_batch(batch) == 3
    oracle.write_batch(batch)
    assert engine.counters.writes == 3
    for node in nodes:
        assert engine.read(node) == oracle.read(node)


def test_runtime_write_batch_time_window_eviction():
    """Deferred batch eviction ends in the same state as per-event expiry."""
    def build():
        ov = Overlay()
        w1, w2 = ov.add_writer("w1"), ov.add_writer("w2")
        pa = ov.add_partial()
        r = ov.add_reader("r")
        ov.add_edge(w1, pa)
        ov.add_edge(w2, pa)
        ov.add_edge(pa, r)
        ov.set_all_decisions(Decision.PUSH)
        return Runtime(ov, EgoQuery(aggregate=Sum(), window=TimeWindow(4.0)))

    stream = [
        ("w1", 5.0, 1.0),
        ("w2", 3.0, 2.0),
        ("w1", 2.0, 6.0),  # expires w1@1
        ("w2", 1.0, 9.0),  # expires w2@2 and w1@... (boundary)
        ("w1", 7.0, 12.0),
    ]
    per_event = build()
    for node, value, ts in stream:
        per_event.write(node, value, ts)
    batched = build()
    batched.write_batch(stream)
    assert per_event.read("r") == batched.read("r")
    assert per_event.counters.writes == batched.counters.writes


def test_write_batch_midbatch_error_leaves_consistent_state():
    """A bad item aborts the batch, but values already absorbed into the
    window buffers still propagate — reads keep matching the oracle."""
    graph = random_graph(10, 25, seed=3)
    engine = make_engine(graph, "sum", "identity", "time")
    oracle = oracle_for(engine)
    nodes = sorted(graph.nodes(), key=repr)
    batch = [
        (nodes[0], 1.0, 10.0),
        (nodes[1], 4.0, 11.0),
        (nodes[0], 2.0, 3.0),  # non-monotone timestamp: raises
    ]
    with pytest.raises(ValueError):
        engine.write_batch(batch)
    with pytest.raises(ValueError):
        oracle.write_batch(batch)
    for node in nodes:
        assert engine.read(node) == oracle.read(node), node


def test_batched_observed_push_matches_per_event():
    """The adaptive controller's traffic estimate must not deflate under
    batching: observed_push is credited per coalesced event."""
    graph = random_graph(15, 40, seed=2)
    engine_a = make_engine(graph, "sum", "vnm_a", "tuple")
    engine_b = make_engine(graph.copy(), "sum", "vnm_a", "tuple")
    nodes = sorted(graph.nodes(), key=repr)
    rng = random.Random(6)
    # strictly increasing values: every write's delta is nonzero, so the
    # per-event loop propagates (and counts) every single write
    writes = [
        (rng.choice(nodes), float(tick + 1), float(tick + 1)) for tick in range(200)
    ]
    for node, value, timestamp in writes:
        engine_a.write(node, value, timestamp)
    for start in range(0, len(writes), 32):
        engine_b.write_batch(writes[start : start + 32])
    # (list() both sides: the columnar backend keeps these as numpy arrays)
    assert list(engine_a.runtime.observed_push) == list(engine_b.runtime.observed_push)
    # ...while the *work* counter reflects the coalescing savings
    assert engine_b.counters.push_ops <= engine_a.counters.push_ops


def test_collect_tasks_survives_lazy_recompile():
    """A pending lazy recompile swaps engine.runtime inside the first
    event; task collection must follow the live overlay, not the dead one."""
    from benchmarks.bench_fig13d_parallelism import collect_tasks
    from repro.graph.streams import WriteEvent

    graph = random_graph(12, 30, seed=14)
    engine = make_engine(graph, "sum", "vnm_a", "tuple")
    nodes = sorted(graph.nodes(), key=repr)
    u, v = next(iter(graph.edges()))
    engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_EDGE, u, v))
    events = [
        WriteEvent(node=nodes[tick % len(nodes)], value=1.0, timestamp=float(tick + 1))
        for tick in range(10)
    ]
    tasks = collect_tasks(engine, events)
    assert len(tasks) == len(events)
    # Writes on nodes no reader observes are dropped (no op); every
    # other write must appear in the collected tasks.
    live_writers = set(engine.runtime.overlay.writer_of)
    expected = sum(1 for event in events if event.node in live_writers)
    assert sum(op.kind == "write" for task in tasks for op in task) == expected > 0
