"""Hypothesis property tests over the system's core invariants (DESIGN.md §invariants).

These generate random bipartite graphs, workloads, and mutation sequences
and assert the paper's correctness conditions hold for every construction
algorithm and decision mode.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import Max, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.overlay import Decision
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel, compute_push_pull_frequencies
from repro.dataflow.mincut import assignment_cost, decide_dataflow, partition_value, solve_dmp
from repro.graph.bipartite import BipartiteGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.overlay.iob import build_iob
from repro.overlay.vnm import build_vnm

from tests.conftest import make_events, oracle_for, play_and_check

# -- strategies -------------------------------------------------------------

bipartite_graphs = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: _random_bipartite(seed)
)


def _random_bipartite(seed):
    rng = random.Random(seed)
    num_writers = rng.randrange(3, 16)
    num_readers = rng.randrange(2, 14)
    writers = [f"w{i}" for i in range(num_writers)]
    inputs = {}
    for i in range(num_readers):
        size = rng.randrange(1, num_writers + 1)
        inputs[f"r{i}"] = tuple(rng.sample(writers, size))
    return BipartiteGraph(inputs)


def _random_dag(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 10)
    weights = {v: float(rng.randrange(-15, 16)) for v in range(n)}
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    return weights, edges


# -- invariant 1: overlay correctness ----------------------------------------


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs, st.sampled_from(["vnm", "vnm_a", "vnm_n"]))
def test_duplicate_sensitive_overlays_cover_exactly(ag, variant):
    result = build_vnm(ag, variant=variant, iterations=4)
    result.overlay.validate(ag)


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs)
def test_duplicate_insensitive_overlays_cover_at_least_once(ag):
    result = build_vnm(ag, variant="vnm_d", iterations=4)
    result.overlay.validate(ag, duplicate_insensitive=True)


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs)
def test_iob_overlays_cover_exactly(ag):
    result = build_iob(ag, iterations=2)
    result.overlay.validate(ag)


# -- invariant 2/3: decisions ------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dmp_solution_valid_and_beats_extremes(seed):
    weights, edges = _random_dag(seed)
    push, pull = solve_dmp(weights, edges)
    assert not any(u in pull and v in push for u, v in edges)
    value = partition_value(weights, push, pull)
    all_nodes = set(weights)
    assert value >= partition_value(weights, all_nodes, set()) - 1e-9
    assert value >= partition_value(weights, set(), all_nodes) - 1e-9


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bipartite_graphs, st.floats(min_value=0.05, max_value=20.0))
def test_decisions_consistent_and_cheapest(ag, ratio):
    overlay = build_vnm(ag, variant="vnm_a", iterations=3).overlay
    nodes = set()
    for reader, ws in ag.reader_inputs.items():
        nodes.add(reader)
        nodes.update(ws)
    frequencies = FrequencyModel.uniform(nodes, read=1.0, write=ratio)
    cost_model = CostModel.constant_linear()
    decide_dataflow(overlay, frequencies, cost_model)
    assert overlay.decisions_consistent()
    fh, fl = compute_push_pull_frequencies(overlay, frequencies)
    optimal = assignment_cost(overlay, fh, fl, cost_model)
    for extreme in (Decision.PUSH, Decision.PULL):
        trial = overlay.copy()
        trial.set_all_decisions(extreme)
        assert optimal <= assignment_cost(trial, fh, fl, cost_model) + 1e-9


# -- invariant 4: engine equivalence ------------------------------------------


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from(["vnm_a", "vnm_n", "iob", "identity"]),
    st.sampled_from(["mincut", "all_push", "all_pull"]),
)
def test_engine_matches_oracle_on_random_graphs(seed, algorithm, dataflow):
    rng = random.Random(seed)
    graph = DynamicGraph()
    n = rng.randrange(5, 18)
    for node in range(n):
        graph.add_node(node)
    for _ in range(rng.randrange(n, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    query = EgoQuery(
        aggregate=Sum(), window=TupleWindow(rng.randrange(1, 4)),
        neighborhood=Neighborhood.in_neighbors(),
    )
    engine = EAGrEngine(graph, query, overlay_algorithm=algorithm, dataflow=dataflow)
    events = make_events(list(range(n)), 120, seed=seed)
    play_and_check(engine, events)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=1_000))
def test_topk_engine_matches_oracle(seed):
    rng = random.Random(seed)
    graph = DynamicGraph()
    for node in range(10):
        graph.add_node(node)
    for _ in range(30):
        u, v = rng.randrange(10), rng.randrange(10)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    query = EgoQuery(aggregate=TopK(3), window=TupleWindow(3))
    engine = EAGrEngine(graph, query, overlay_algorithm="vnm_n")
    events = make_events(list(range(10)), 150, seed=seed, vocabulary=4)
    play_and_check(engine, events)


# -- invariant 5: dynamic maintenance ------------------------------------------


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=1_000))
def test_maintained_engine_matches_oracle_under_churn(seed):
    rng = random.Random(seed)
    graph = DynamicGraph()
    for node in range(12):
        graph.add_node(node)
    for _ in range(30):
        u, v = rng.randrange(12), rng.randrange(12)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    query = EgoQuery(aggregate=Sum())
    engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
    oracle = oracle_for(engine)
    for step in range(25):
        action = rng.random()
        if action < 0.5:
            u, v = rng.randrange(12), rng.randrange(12)
            if u != v and not graph.has_edge(u, v):
                engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, u, v))
        else:
            edges = list(graph.edges())
            if edges:
                u, v = rng.choice(edges)
                engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_EDGE, u, v))
        engine.overlay.validate(engine.ag)
        node, value = rng.randrange(12), float(rng.randrange(9))
        engine.write(node, value)
        oracle.write(node, value)
        reader = rng.randrange(12)
        assert engine.read(reader) == oracle.read(reader)
