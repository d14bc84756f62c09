"""The adaptive controller's window against a brute-force count of the stream.

The controller keeps per-node write and read counts and derives each
overlay node's ``f_h`` / ``f_l`` with the §4.1 pass
(:func:`repro.dataflow.passes.push_pull_frequencies`).  At a frontier node
those must be what the node would see: ``f_h`` the pushes it would
receive, one per write per path from the write's writer through push
nodes, and ``f_l`` the pulls it would serve, one per read per path to the
read's reader through pull nodes.  :func:`brute_force_window` counts both
by walking the overlay's ``out_rows`` / ``in_rows`` event by event; it
shares no code with the pass.

The schedules feed the engine every way it takes events — per-event
calls, write batches as pairs, triples, ``WriteEvent`` items and
``WriteFrame`` columns, read batches and reader handles — with structure
events, frontier flips, evaluations and ``redecide`` in between.
"""

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.adaptive import AdaptiveConfig
from repro.core.aggregates import Max, Sum
from repro.core.engine import EAGrEngine
from repro.core.overlay import Decision
from repro.core.query import EgoQuery
from repro.core.statestore import WriteFrame
from repro.core.windows import TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp, WriteEvent

from tests.conftest import make_events
from tests.core.test_pull_rows import flip_a_frontier_node
from tests.test_changed_plane_properties import random_structure_event

#: No evaluation but the ones a schedule asks for.
NEVER = 10**9


def brute_force_window(overlay, writes, reads):
    """``(pushes, pulls)`` per handle from per-node event counts, path by
    path: a write walks out of its writer, arriving at each destination and
    going on only through push nodes; a read is served by its reader and,
    at a pull reader, walks up the inputs, going on only through pull
    nodes."""
    decisions = overlay.decisions
    pushes, pulls = Counter(), Counter()
    for node, count in writes.items():
        if node not in overlay.writer_of:
            continue
        stack = [overlay.writer_of[node]]
        while stack:
            at = stack.pop()
            for dst in overlay.out_rows(at)[0]:
                pushes[dst] += count
                if decisions[dst] is Decision.PUSH:
                    stack.append(dst)
    for node, count in reads.items():
        if node not in overlay.reader_of:
            continue
        reader = overlay.reader_of[node]
        pulls[reader] += count
        stack = [] if decisions[reader] is Decision.PUSH else [reader]
        while stack:
            at = stack.pop()
            for src in overlay.in_rows(at)[0]:
                pulls[src] += count
                if decisions[src] is not Decision.PUSH:
                    stack.append(src)
    return pushes, pulls


def check_window(engine, writes, reads):
    """The controller's window equals the brute-force count at every
    frontier node (the engine synced first)."""
    engine.read_batch([])
    controller = engine.controller
    fh, fl = controller.frequencies()
    pushes, pulls = brute_force_window(engine.overlay, writes, reads)
    for handle in controller.frontier():
        assert (fh[handle], fl[handle]) == (pushes[handle], pulls[handle]), handle


def build(seed, aggregate, algorithm, dataflow):
    rng = random.Random(seed)
    size = rng.randrange(8, 14)
    graph = DynamicGraph()
    for node in range(size):
        graph.add_node(node)
    for _ in range(rng.randrange(2 * size, 6 * size)):
        u, v = rng.sample(range(size), 2)
        graph.add_edge(u, v)
    engine = EAGrEngine(
        graph,
        EgoQuery(
            aggregate=aggregate(), window=TupleWindow(2),
            neighborhood=Neighborhood.in_neighbors(),
        ),
        overlay_algorithm=algorithm,
        dataflow=dataflow,
        adaptive=True,
        adaptive_config=AdaptiveConfig(check_interval=NEVER, min_observations=2),
    )
    return rng, graph, engine


def run_schedule(seed, aggregate, algorithm, dataflow):
    rng, graph, engine = build(seed, aggregate, algorithm, dataflow)
    writes, reads = Counter(), Counter()
    fresh = iter(range(1000, 10_000))
    unknown = 999_999
    for _ in range(rng.randrange(8, 20)):
        nodes = sorted(graph.nodes()) + [unknown]
        step = rng.choice(
            ["write", "pairs", "triples", "events", "frame", "read", "read_batch",
             "read_handles", "structure", "flip", "evaluate", "redecide"]
        )
        picked = [rng.choice(nodes) for _ in range(rng.randrange(1, 12))]
        values = [float(rng.randrange(3)) for _ in picked]  # zeros move nothing
        if step == "write":
            for node, value in zip(picked, values):
                engine.write(node, value)
            writes.update(picked)
        elif step in ("pairs", "triples", "events", "frame"):
            stamp = engine.runtime.clock + 1.0
            triples = [
                (node, value, stamp + i) for i, (node, value) in enumerate(zip(picked, values))
            ]
            engine.write_batch({
                "pairs": lambda: [(node, value) for node, value, _ in triples],
                "triples": lambda: triples,
                "events": lambda: [WriteEvent(*triple) for triple in triples],
                "frame": lambda: WriteFrame.from_items(triples),
            }[step]())
            writes.update(picked)
        elif step == "read":
            for node in picked:
                engine.read(node)
            reads.update(picked)
        elif step == "read_batch":
            engine.read_batch(iter(picked))  # a one-shot iterator
            reads.update(picked)
        elif step == "read_handles":
            engine.read_batch([])  # sync: handles are valid until the next event
            reader_of = engine.overlay.reader_of
            known = [node for node in picked if node in reader_of]
            engine.read_handles([reader_of[node] for node in known])
            reads.update(known)
        elif step == "structure":
            engine.apply_structure_event(
                random_structure_event(rng, graph, lambda: next(fresh))
            )
        elif step == "flip":
            flip_a_frontier_node(rng, engine)
        else:
            check_window(engine, writes, reads)
            if step == "evaluate":
                engine.controller.evaluate()
                assert engine.overlay.decisions_consistent()
            else:
                engine.redecide()
            writes.clear()
            reads.clear()
    check_window(engine, writes, reads)


schedules = st.tuples(
    st.integers(min_value=0, max_value=100_000),
    st.sampled_from([Sum, Max]),
    st.sampled_from(["identity", "vnm_a", "iob"]),
    st.sampled_from(["all_pull", "mincut", "greedy", "all_push"]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules)
def test_the_window_is_the_brute_force_count_of_the_stream(schedule):
    run_schedule(*schedule)


@pytest.mark.parametrize("plant", ["coalesced_batches", "handles_as_nodes"])
def test_the_property_catches_a_planted_miscount(plant):
    """Two ways to count the stream wrong: a write batch counted once per
    writer, as a coalescing kernel sees it, and reader handles counted as
    if they were node ids.  A few fixed schedules must expose each."""
    if plant == "coalesced_batches":
        written_nodes = engine_module._written_nodes
        patch = mock.patch.object(
            engine_module, "_written_nodes",
            lambda writes: list(dict.fromkeys(written_nodes(writes))),
        )
    else:
        patch = mock.patch.object(
            engine_module.Runtime, "labels_of", lambda self, handles: list(handles)
        )
    with patch, pytest.raises(AssertionError):
        for seed in range(40):
            run_schedule(seed, Sum, "vnm_a", "mincut")


def replay_across_a_structure_event():
    """An adaptive engine after an evaluation, more traffic, one
    ``ADD_EDGE`` and a little more traffic (which syncs the engine), with
    the writes and reads counted since the evaluation."""
    graph = random_graph(25, 100, seed=21)
    engine = EAGrEngine(
        graph,
        EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors()),
        overlay_algorithm="vnm_a",
        adaptive=True,
        adaptive_config=AdaptiveConfig(check_interval=NEVER, min_observations=3),
    )
    nodes = sorted(graph.nodes())
    play(engine, make_events(nodes, 300, write_fraction=0.9, seed=31))
    engine.controller.evaluate()
    since = make_events(nodes, 300, write_fraction=0.1, seed=32)
    play(engine, since[:250])
    u, v = next((u, v) for u in nodes for v in nodes if u != v and not graph.has_edge(u, v))
    engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, u, v))
    play(engine, since[250:])
    writes = Counter(e.node for e in since if isinstance(e, WriteEvent))
    reads = Counter(e.node for e in since if not isinstance(e, WriteEvent))
    return engine, writes, reads


def play(engine, events):
    for event in events:
        if isinstance(event, WriteEvent):
            engine.write(event.node, event.value, event.timestamp)
        else:
            engine.read(event.node)


def test_a_window_spans_a_structure_event():
    """Regression: the window used to be the runtime's traffic counters
    minus the controller's baselines, and the rebuild after a structure
    event zeroed the counters but not the baselines.  On this graph all 28
    frontier nodes' windows read negative, pushes plus pulls down to -67,
    so the read-heavy traffic since the evaluation flipped nothing.  The
    window is the stream's, so a structure event leaves it whole."""
    engine, _writes, _reads = replay_across_a_structure_event()
    assert engine.controller.evaluate() > 0
    assert engine.overlay.decisions_consistent()
    engine, writes, reads = replay_across_a_structure_event()
    check_window(engine, writes, reads)
