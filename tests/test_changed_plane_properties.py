"""Hypothesis properties of the who-changed plane (handle space → labels).

A seeded schedule interleaves write batches and structure events on a
random graph and takes a change report at random points — through
``changed_readers()`` or an explicit ``changed_handles(writers)``.  Every
report must equal a brute force computed from the graph alone —
``{r : some moved writer ∈ N(r)}`` ∪ the readers next to a structural
change — and must name every reader whose value actually moved, without
duplicates, in ascending overlay-handle order, consumed by the call, with
every frozen closure row (index or bitset) still naming exactly its
writer's downstream readers.  Small graphs (5 to 11 nodes) cover the
structural corner cases; hub graphs (≥ 64 readers, one writer feeding
most of them) put bitset rows and index rows into the same reports and
edit both between reports.  Up to ``BITSET_FLOOR`` bytes of bitset every
closure is a bitset row, so the hub schedules also run with the floor at
0, where a graph of this size mixes the two row kinds.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import closures as closures_module
from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp

from tests.conftest import STORE_OF, oracle_for

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


def toggle_edge(graph, u, v):
    kind = StructureOp.REMOVE_EDGE if graph.has_edge(u, v) else StructureOp.ADD_EDGE
    return StructureEvent(kind, u, v)


def random_structure_event(rng, graph, fresh_label, hub=None):
    nodes = sorted(graph.nodes(), key=repr)
    if hub in graph and rng.random() < 0.6:
        # Edit the hub's closure (a bitset row) or a small one (an index row).
        others = [node for node in nodes if node != hub]
        if rng.random() < 0.5:
            return toggle_edge(graph, hub, rng.choice(others))
        return toggle_edge(graph, *rng.sample(others, 2))
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


def check_arena(runtime):
    """Every frozen closure row, index or bitset, names exactly the
    readers downstream of its writer in the current overlay."""
    overlay = runtime.overlay
    closures = runtime._closures
    for writer in closures.touched:
        expected = sorted(
            h for h in overlay.downstream(writer) if overlay.is_reader(h)
        )
        assert closures.row(writer).readers.tolist() == expected


def check_report(engine, oracle, moved, restructured, seen, explicit=False):
    """One report against the brute force; returns the readers' values.

    ``moved`` / ``restructured`` are the writers that moved and the nodes
    next to a structural change since the last report, ``seen`` the
    readers' values at that report.  ``explicit`` takes the report as
    ``changed_handles(pop_changed_writers())`` on the synced runtime.
    """
    graph = engine.graph
    readers = readers_now(graph)
    values = dict(zip(readers, engine.read_batch(list(readers))))
    if explicit:
        runtime = engine.runtime
        writers = runtime.pop_changed_writers()
        changed = runtime.labels_of(runtime.changed_handles(writers))
    else:
        changed = engine.changed_readers()
    handles = [engine.overlay.reader_of[r] for r in changed]
    assert handles == sorted(set(handles)), "ascending handle order, no duplicates"
    expected = {r for r in readers if graph.in_neighbors(r) & moved}
    expected |= restructured & readers
    assert set(changed) == expected
    for reader, value in values.items():
        assert value == oracle.read(reader)
        if value != seen.get(reader, 0.0):
            assert reader in expected, "a reader's value moved unreported"
    assert engine.changed_readers() == []
    check_arena(engine.runtime)
    return values


def random_graph(rng, label, hub):
    """A small random graph, or with ``hub`` one of 80 to 99 nodes whose
    node 0 feeds nine in ten of the others (≥ 64 readers)."""
    size = rng.randrange(80, 100) if hub else rng.randrange(5, 11)
    graph = DynamicGraph()
    for i in range(size):
        graph.add_node(label(i))
    if hub:
        for i in range(1, size):
            if i % 10:
                graph.add_edge(label(0), label(i))
    for _ in range(rng.randrange(size, 3 * size)):
        u, v = rng.sample(range(1, size) if hub else range(size), 2)
        graph.add_edge(label(u), label(v))
    if hub:
        assert len(readers_now(graph)) >= 64
    return graph


def run_schedule(seed, label_type, dataflow, maintain, window, store, hub=False):
    rng = random.Random(seed)
    label = (lambda i: i) if label_type is int else (lambda i: f"n{i}")
    graph = random_graph(rng, label, hub)
    hub_node = label(0) if hub else None
    counter = iter(range(graph.num_nodes, 10_000))
    engine = EAGrEngine(
        graph,
        EgoQuery(
            aggregate=STORE_OF[store](Sum()),
            window=TupleWindow(window),
            neighborhood=Neighborhood.in_neighbors(),
        ),
        overlay_algorithm="vnm_a",
        dataflow=dataflow,
        maintain=maintain,
    )
    oracle = oracle_for(engine)
    moved, restructured = set(), set()
    seen = {}  # reader -> value at the last report
    for _ in range(rng.randrange(6, 14)):
        if rng.random() < 0.4:
            event = random_structure_event(
                rng, graph, lambda: label(next(counter)), hub_node
            )
            endpoints = (event.u,) if event.v is None else (event.u, event.v)
            restructured |= next_to(graph, endpoints)
            engine.apply_structure_event(event)
            restructured |= next_to(graph, endpoints)
        else:
            nodes = sorted(graph.nodes(), key=repr)
            if hub_node in graph:
                nodes += [hub_node] * (len(nodes) // 4)  # the hub moves often
            batch = [
                (rng.choice(nodes), float(rng.randrange(4)))
                for _ in range(rng.randrange(1, 8))
            ]
            writers = {node for node, _value in batch}
            # A writer "moved" iff its own window aggregate changed: F over
            # that one node's window, as the oracle holds it.
            old = {n: oracle.fold([n]) for n in writers}
            engine.write_batch(batch)
            oracle.write_batch(batch)
            moved |= {n for n in writers if oracle.fold([n]) != old[n]}
        if rng.random() < 0.6:
            explicit = rng.random() < 0.5
            seen = check_report(engine, oracle, moved, restructured, seen, explicit)
            moved, restructured = set(), set()
    check_report(engine, oracle, moved, restructured, seen)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules, st.sampled_from(sorted(STORE_OF)))
def test_report_equals_brute_force(schedule, store):
    run_schedule(*schedule, store)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    schedules,
    st.sampled_from(sorted(STORE_OF)),
    st.sampled_from([0, closures_module.BITSET_FLOOR]),
)
def test_hub_report_equals_brute_force(schedule, store, floor):
    with mock.patch.object(closures_module, "BITSET_FLOOR", floor):
        run_schedule(*schedule, store, hub=True)


def hub_engine(maintain=False, store="columnar"):
    """80 readers: writer 0 feeds 70 of them, writers 100 to 102 a third
    each, writer 200 only reader 1."""
    graph = DynamicGraph()
    for i in range(1, 81):
        graph.add_edge(100 + (i % 3), i)
        if i <= 70:
            graph.add_edge(0, i)
    graph.add_edge(200, 1)
    return EAGrEngine(
        graph,
        EgoQuery(aggregate=STORE_OF[store](Sum()), window=TupleWindow(1),
                 neighborhood=Neighborhood.in_neighbors()),
        overlay_algorithm="vnm_a",
        maintain=maintain,
    )


def downstream_readers(graph, writers):
    return {r for r in readers_now(graph) if graph.in_neighbors(r) & set(writers)}


@pytest.mark.parametrize("store", sorted(STORE_OF))
def test_bitset_and_index_rows_meet_in_one_report(store, monkeypatch):
    monkeypatch.setattr(closures_module, "BITSET_FLOOR", 0)
    engine = hub_engine(store=store)
    engine.write_batch([(0, 1.0), (101, 2.0), (200, 1.0)])
    changed = engine.changed_readers()
    assert set(changed) == downstream_readers(engine.graph, [0, 101, 200])
    closures = engine.runtime._closures
    bitrow = closures.bitrow[[engine.overlay.writer_of[w] for w in (0, 200)]]
    assert bitrow[0] >= 0, "the hub's closure is a bitset row"
    assert bitrow[1] == -1, "a one-reader closure is an index row"
    check_arena(engine.runtime)
    # The hub loses a reader and a small writer gains one between reports:
    # both rows are dropped and recompiled, the report follows the graph.
    for event in (StructureEvent(StructureOp.REMOVE_EDGE, 0, 5),
                  StructureEvent(StructureOp.ADD_EDGE, 200, 75)):
        engine.apply_structure_event(event)
    engine.changed_readers()
    engine.write_batch([(0, 3.0), (200, 4.0)])
    assert set(engine.changed_readers()) == downstream_readers(engine.graph, [0, 200])
    check_arena(engine.runtime)


@pytest.mark.parametrize("maintain", [False, True], ids=["recompile", "rebuild"])
def test_pending_writers_cross_a_new_overlay(maintain):
    """Moved writers still pending when the overlay is recompiled (or
    rebuilt in place by the maintainer) reach their new handles; a removed
    writer drops out."""
    engine = hub_engine(maintain=maintain)
    graph = engine.graph
    engine.write_batch([(0, 1.0), (200, 2.0), (102, 5.0)])
    before = engine.runtime
    restructured = next_to(graph, (102,))
    engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_NODE, 102))
    engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 200, 60))
    restructured |= next_to(graph, (200, 60))
    engine.read_batch([])  # sync: recompile or rebuild
    runtime = engine.runtime
    assert (runtime is before) == maintain
    handles = runtime.pop_changed_writers()
    assert sorted(runtime.labels_of(handles)) == [0, 200]
    changed = runtime.labels_of(runtime.changed_handles(handles))
    assert set(changed) == (
        downstream_readers(graph, [0, 200]) | (restructured & readers_now(graph))
    )


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
    # A bogus writer handle fails before any closure is compiled ...
    with pytest.raises(IndexError):
        runtime.changed_handles(np.append(writers, 10**9))
    check_arena(runtime)

    # ... and a failure between marking and reading back is cleaned up too.
    def boom(_array):
        raise RuntimeError("midway")

    with monkeypatch.context() as patch:
        patch.setattr(np, "flatnonzero", boom)
        with pytest.raises(RuntimeError):
            runtime.changed_handles(writers)
    check_arena(runtime)
    expected = {r for r in engine.overlay.reader_of
                if engine.graph.in_neighbors(r) & {"c", "d"}}
    assert set(runtime.changed_readers(writers)) == expected


def test_pending_writers_stay_bounded_without_reports():
    """A runtime nobody asks for a report keeps a record bounded by its
    writers, not by its batches, and the report it finally gives names
    every moved writer's readers."""
    from repro.core.execution import _MOVED_CAP

    engine = hub_engine()
    runtime = engine.runtime
    writers = sorted(engine.overlay.writer_of)
    for i in range(3 * _MOVED_CAP):
        engine.write_batch([(writers[i % len(writers)], float(i))])
        assert runtime._moved_rows <= _MOVED_CAP + 1
    assert set(engine.changed_readers()) == downstream_readers(engine.graph, writers)
