"""Hypothesis properties of the who-changed plane (handle space → labels).

A seeded schedule interleaves write batches and structure events on a
small random graph and takes a change report at random points.  Every
report must equal a brute force computed from the graph alone —
``{r : some moved writer ∈ N(r)}`` ∪ the readers next to a structural
change — and must name every reader whose value actually moved, without
duplicates, in ascending overlay-handle order, consumed by the call, with
the dedup bitmap left all-false.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp

STORES = ["object", "columnar"]

schedules = st.tuples(
    st.integers(min_value=0, max_value=100_000),  # seed
    st.sampled_from([int, str]),  # label type
    st.sampled_from(["all_push", "all_pull", "mincut"]),
    st.booleans(),  # maintain
    st.sampled_from([1, 2]),  # tuple-window size
)


def readers_now(graph):
    """Brute force: a node is a reader iff its in-neighbourhood is non-empty."""
    return {node for node in graph.nodes() if graph.in_neighbors(node)}


def next_to(graph, endpoints):
    """Brute force of "structurally affected" for 1-hop in-neighbours: the
    endpoints themselves and everything they point at."""
    near = set()
    for node in endpoints:
        if node in graph:
            near.add(node)
            near |= graph.out_neighbors(node)
    return near


def random_structure_event(rng, graph, fresh_label):
    nodes = sorted(graph.nodes(), key=repr)
    edges = sorted(graph.edges(), key=repr)
    kind = rng.choice(["add_edge", "add_edge", "remove_edge", "remove_edge",
                       "remove_node", "add_node"])
    if kind == "remove_edge" and edges:
        return StructureEvent(StructureOp.REMOVE_EDGE, *rng.choice(edges))
    if kind == "remove_node" and len(nodes) > 4:
        return StructureEvent(StructureOp.REMOVE_NODE, rng.choice(nodes))
    if kind == "add_node":
        return StructureEvent(StructureOp.ADD_NODE, fresh_label())
    for _ in range(20):
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            return StructureEvent(StructureOp.ADD_EDGE, u, v)
    return StructureEvent(StructureOp.ADD_NODE, fresh_label())


def check_report(engine, moved, restructured, seen):
    """One report against the brute force; returns the readers' values.

    ``moved`` / ``restructured`` are the writers that moved and the nodes
    next to a structural change since the last report, ``seen`` the
    readers' values at that report.
    """
    graph = engine.graph
    readers = readers_now(graph)
    values = dict(zip(readers, engine.read_batch(list(readers))))
    changed = engine.changed_readers()
    handles = [engine.overlay.reader_of[r] for r in changed]
    assert handles == sorted(set(handles)), "ascending handle order, no duplicates"
    expected = {r for r in readers if graph.in_neighbors(r) & moved}
    expected |= restructured & readers
    assert set(changed) == expected
    for reader, value in values.items():
        assert value == engine.reference_read(reader)
        if value != seen.get(reader, 0.0):
            assert reader in expected, "a reader's value moved unreported"
    assert engine.changed_readers() == []
    assert not engine.runtime._changed_mark.any()
    return values


def run_schedule(seed, label_type, dataflow, maintain, window, value_store):
    rng = random.Random(seed)
    size = rng.randrange(5, 11)
    label = (lambda i: i) if label_type is int else (lambda i: f"n{i}")
    counter = iter(range(size, 10_000))
    graph = DynamicGraph()
    for i in range(size):
        graph.add_node(label(i))
    for _ in range(rng.randrange(size, 3 * size)):
        u, v = rng.sample(range(size), 2)
        graph.add_edge(label(u), label(v))
    engine = EAGrEngine(
        graph,
        EgoQuery(
            aggregate=Sum(),
            window=TupleWindow(window),
            neighborhood=Neighborhood.in_neighbors(),
        ),
        overlay_algorithm="vnm_a",
        dataflow=dataflow,
        maintain=maintain,
        value_store=value_store,
    )
    moved, restructured = set(), set()
    seen = {}  # reader -> value at the last report
    for _ in range(rng.randrange(6, 14)):
        if rng.random() < 0.4:
            event = random_structure_event(rng, graph, lambda: label(next(counter)))
            endpoints = (event.u,) if event.v is None else (event.u, event.v)
            restructured |= next_to(graph, endpoints)
            engine.apply_structure_event(event)
            restructured |= next_to(graph, endpoints)
        else:
            nodes = sorted(graph.nodes(), key=repr)
            batch = [
                (rng.choice(nodes), float(rng.randrange(4)))
                for _ in range(rng.randrange(1, 8))
            ]
            writers = {node for node, _value in batch}
            # A writer "moved" iff its own window aggregate changed: the
            # brute-force evaluation of F over that one node's buffer.
            engine.read_batch([])  # sync first: a recompile may drop buffers
            old = {n: engine.runtime.reference_read([n]) for n in writers}
            engine.write_batch(batch)
            moved |= {
                n for n in writers if engine.runtime.reference_read([n]) != old[n]
            }
        if rng.random() < 0.6:
            seen = check_report(engine, moved, restructured, seen)
            moved, restructured = set(), set()
    check_report(engine, moved, restructured, seen)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules, st.sampled_from(STORES))
def test_report_equals_brute_force(schedule, value_store):
    run_schedule(*schedule, value_store)


def test_bitmap_is_clean_after_a_call_that_raised(monkeypatch):
    from repro.graph.generators import paper_figure1

    engine = EAGrEngine(
        paper_figure1(),
        EgoQuery(aggregate=Sum(), window=TupleWindow(1),
                 neighborhood=Neighborhood.in_neighbors()),
    )
    runtime = engine.runtime
    engine.write_batch([("c", 5.0), ("d", 1.0)])
    writers = runtime.pop_changed_writers()
    # A bogus writer handle fails while its closure is compiled ...
    with pytest.raises(IndexError):
        runtime.changed_handles(writers + [10**9])
    assert not runtime._changed_mark.any()

    # ... and a failure between marking and reading back is cleaned up too.
    def boom(_array):
        raise RuntimeError("midway")

    with monkeypatch.context() as patch:
        patch.setattr(np, "flatnonzero", boom)
        with pytest.raises(RuntimeError):
            runtime.changed_handles(writers)
    assert not runtime._changed_mark.any()
    expected = {r for r in engine.overlay.reader_of
                if engine.graph.in_neighbors(r) & {"c", "d"}}
    assert set(runtime.changed_readers(writers)) == expected
