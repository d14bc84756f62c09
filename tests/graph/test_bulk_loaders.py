"""The bulk loaders against their per-edge definitions.

``DynamicGraph.from_edges``, ``BipartiteGraph`` / ``build_bipartite``,
``Overlay.identity`` and ``Overlay.to_csr`` build their dicts, sets and
lists in bulk; each must leave exactly what the per-edge construction
leaves: the same nodes in the same order, the same containers iterating in
the same order (for the graph, the same neighbour sets), and the same
counters (the clock, ``version``, the dirty set).  Node ids mix ints on
both sides of a ``repr``-order boundary (``10`` sorts before ``9``),
strings and tuples.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.overlay import Decision, Overlay
from repro.graph.bipartite import BipartiteGraph, _sort_key, build_bipartite
from repro.graph.dynamic_graph import DynamicGraph, GraphError
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay.vnm import build_vnm

node_ids = st.one_of(
    st.sampled_from([9, 10, 100, 11, 99]),
    st.integers(0, 120),
    st.sampled_from(["a", "b", "10", "9"]),
    st.tuples(st.integers(0, 3), st.sampled_from(["x", "y"])),
)
edge_lists = st.lists(st.tuples(node_ids, node_ids), max_size=60).map(
    lambda edges: [(u, v) for u, v in edges if u != v]
)


def per_edge_graph(edges):
    graph = DynamicGraph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def graph_state(graph):
    """What the public API shows of ``graph``: its nodes in order, each
    one's neighbour sets, the edge count and the clock."""
    nodes = list(graph.nodes())
    return (
        nodes,
        [graph.out_neighbors(node) for node in nodes],
        [graph.in_neighbors(node) for node in nodes],
        graph.num_edges,
        graph.clock,
    )


def per_edge_bipartite(reader_inputs):
    """Each input list sorted by its own ``_sort_key`` calls; out-degrees
    counted edge by edge."""
    ordered = {
        reader: tuple(sorted(set(inputs), key=_sort_key))
        for reader, inputs in reader_inputs.items()
    }
    degree = {}
    for inputs in ordered.values():
        for writer in inputs:
            degree[writer] = degree.get(writer, 0) + 1
    return ordered, degree


def per_edge_identity(ag):
    overlay = Overlay()
    for writer in sorted(ag.writers, key=_sort_key):
        overlay.add_writer(writer)
    for reader, writers in ag.reader_inputs.items():
        handle = overlay.add_reader(reader)
        for writer in writers:
            overlay.add_edge(overlay.writer_of[writer], handle)
    return overlay


def overlay_state(overlay):
    return (
        overlay.kinds,
        overlay.labels,
        overlay.decisions,
        [list(zip(*overlay.in_rows(handle))) for handle in range(overlay.num_nodes)],
        [overlay.out_rows(handle)[0] for handle in range(overlay.num_nodes)],
        list(overlay.writer_of.items()),
        list(overlay.reader_of.items()),
        overlay.num_edges,
        overlay.version,
        overlay.decision_version,
        overlay.pop_dirty(),
    )


class TestFromEdges:
    @settings(max_examples=200, deadline=None)
    @given(edges=edge_lists)
    def test_equals_edge_by_edge(self, edges):
        edges = edges + edges[: len(edges) // 3]  # duplicates are dropped
        assert graph_state(DynamicGraph.from_edges(edges)) == graph_state(per_edge_graph(edges))

    def test_a_self_loop_raises(self):
        with pytest.raises(GraphError):
            DynamicGraph.from_edges([(1, 2), (3, 3), (2, 4)])

    def test_takes_any_iterable(self):
        edges = [(1, 2), (2, 3), (1, 2)]
        assert graph_state(DynamicGraph.from_edges(iter(edges))) == graph_state(
            per_edge_graph(edges)
        )


class TestBipartite:
    @settings(max_examples=200, deadline=None)
    @given(
        reader_inputs=st.dictionaries(
            node_ids, st.lists(node_ids, max_size=12), max_size=12
        )
    )
    def test_ranks_once_sorts_the_same(self, reader_inputs):
        ag = BipartiteGraph(reader_inputs)
        ordered, degree = per_edge_bipartite(reader_inputs)
        assert list(ag.reader_inputs.items()) == list(ordered.items())
        assert list(ag.writer_out_degree.items()) == list(degree.items())

    def test_int_order_is_repr_order(self):
        ag = BipartiteGraph({"r": (9, 10, 100, "b", "a", (1, "x"), (0, "y"))})
        assert ag.inputs("r") == (10, 100, 9, "a", "b", (0, "y"), (1, "x"))

    @settings(max_examples=100, deadline=None)
    @given(edges=edge_lists, keep=st.sets(node_ids), use_predicate=st.booleans())
    def test_build_with_predicate_and_readers(self, edges, keep, use_predicate):
        graph = DynamicGraph.from_edges(edges)
        predicate = (lambda node: node in keep) if use_predicate else None
        readers = sorted(keep, key=_sort_key) if not use_predicate else None
        neighborhood = Neighborhood.undirected()
        ag = build_bipartite(graph, neighborhood, predicate, readers=readers)
        universe = graph.nodes() if readers is None else readers
        reader_inputs = {
            node: tuple(neighborhood(graph, node))
            for node in universe
            if node in graph and (predicate is None or predicate(node))
            and neighborhood(graph, node)
        }
        ordered, degree = per_edge_bipartite(reader_inputs)
        assert list(ag.reader_inputs.items()) == list(ordered.items())
        assert list(ag.writer_out_degree.items()) == list(degree.items())


class Twin:
    """A node id equal only to itself, whose ``repr`` every twin shares."""

    def __repr__(self):
        return "Twin()"


def per_reader_bipartite(graph, neighborhood, predicate=None, readers=None):
    """``AG`` with one ``neighborhood(graph, node)`` call per reader."""
    universe = graph.nodes() if readers is None else readers
    return BipartiteGraph(
        {
            node: tuple(neighborhood(graph, node))
            for node in universe
            if node in graph
            and (predicate is None or predicate(node))
            and neighborhood(graph, node)
        }
    )


class TestOneHop:
    """One plain hop reads the graph's neighbour sets in bulk; every
    ``reader_inputs`` tuple and out-degree must equal the per-reader
    construction's, in order."""

    @settings(max_examples=100, deadline=None)
    @given(
        edges=edge_lists,
        direction=st.sampled_from(["in", "out", "both"]),
        include_self=st.booleans(),
        keep=st.one_of(st.none(), st.sets(node_ids)),
    )
    def test_equals_per_reader(self, edges, direction, include_self, keep):
        graph = DynamicGraph.from_edges(edges)
        neighborhood = Neighborhood(hops=1, direction=direction, include_self=include_self)
        assert neighborhood.one_hop(graph) is not None
        predicate = None if keep is None else (lambda node: node in keep)
        ag = build_bipartite(graph, neighborhood, predicate)
        want = per_reader_bipartite(graph, neighborhood, predicate)
        assert list(ag.reader_inputs.items()) == list(want.reader_inputs.items())
        assert list(ag.writer_out_degree.items()) == list(want.writer_out_degree.items())

    def test_engine_graph(self):
        graph = random_graph(400, 3200, seed=11)
        for neighborhood in (Neighborhood.in_neighbors(), Neighborhood.undirected()):
            ag = build_bipartite(graph, neighborhood)
            want = per_reader_bipartite(graph, neighborhood)
            assert list(ag.reader_inputs.items()) == list(want.reader_inputs.items())

    def test_writers_tied_on_the_sort_key(self):
        """Distinct ids with one ``repr`` rank as the constructor ranks
        them: in the order of each reader's neighbour set."""
        twins = [Twin() for _ in range(6)]
        edges = [(twin, reader) for twin in twins for reader in ("r", "s")][1:]
        graph = DynamicGraph.from_edges(edges)
        ag = build_bipartite(graph, Neighborhood.in_neighbors())
        want = per_reader_bipartite(graph, Neighborhood.in_neighbors())
        assert list(ag.reader_inputs.items()) == list(want.reader_inputs.items())
        assert list(ag.writer_out_degree.items()) == list(want.writer_out_degree.items())

    def test_other_neighborhoods_are_called_per_reader(self):
        graph = random_graph(30, 90, seed=4)
        assert Neighborhood.in_neighbors(hops=2).one_hop(graph) is None
        filtered = Neighborhood(node_filter=lambda g, node: node % 2 == 0)
        assert filtered.one_hop(graph) is None
        for neighborhood in (Neighborhood.in_neighbors(hops=2), filtered):
            ag = build_bipartite(graph, neighborhood)
            want = per_reader_bipartite(graph, neighborhood)
            assert list(ag.reader_inputs.items()) == list(want.reader_inputs.items())


class TestIdentity:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edges=edge_lists)
    def test_equals_edge_by_edge(self, edges):
        ag = build_bipartite(DynamicGraph.from_edges(edges), Neighborhood.in_neighbors())
        assert overlay_state(Overlay.identity(ag)) == overlay_state(per_edge_identity(ag))

    def test_empty(self):
        assert overlay_state(Overlay.identity(BipartiteGraph({}))) == overlay_state(
            per_edge_identity(BipartiteGraph({}))
        )

    def test_one_int_object_per_handle(self):
        """The overlay holds one int object per node (beyond the small-int
        cache), as ``add_writer`` / ``add_reader`` calls leave it, and none
        per edge: the edges are int64 columns."""
        ag = build_bipartite(random_graph(300, 3000, seed=5), Neighborhood.in_neighbors())
        overlay = Overlay.identity(ag)
        held = [*overlay.writer_of.values(), *overlay.reader_of.values(), *overlay._dirty]
        assert len({id(handle) for handle in held if handle > 256}) == overlay.num_nodes - 257
        for column in (*overlay.in_csr(), *overlay.out_csr()):
            assert column.dtype == np.int64


def per_edge_csr(overlay):
    n = overlay.num_nodes
    in_indptr, in_indices, in_signs = [0], [], []
    for dst in range(n):
        for src, sign in zip(*overlay.in_rows(dst)):
            in_indices.append(src)
            in_signs.append(sign)
        in_indptr.append(len(in_indices))
    out_indptr, out_indices, out_signs = [0], [], []
    for src in range(n):
        for dst in overlay.out_rows(src)[0]:
            out_indices.append(dst)
            sources, signs = overlay.in_rows(dst)
            out_signs.append(signs[sources.index(src)])
        out_indptr.append(len(out_indices))
    return (
        in_indptr, in_indices, in_signs, out_indptr, out_indices, out_signs,
        [1 if d is Decision.PUSH else 0 for d in overlay.decisions],
        [{"writer": 0, "reader": 1, "partial": 2}[k.value] for k in overlay.kinds],
        [in_indptr[h + 1] - in_indptr[h] for h in range(n)],
    )


@pytest.mark.parametrize("variant", ["vnm_a", "vnm_n"])
@pytest.mark.parametrize("seed", [2, 3])
def test_to_csr_equals_edge_by_edge(variant, seed):
    graph = random_graph(60, 400, seed=seed)
    ag = build_bipartite(graph, Neighborhood.in_neighbors())
    overlay = build_vnm(ag, variant=variant, iterations=3).overlay
    assert overlay.num_negative_edges or variant != "vnm_n"
    rng = random.Random(seed)
    for handle in range(overlay.num_nodes):
        if not overlay.is_writer(handle):
            overlay.set_decision(handle, rng.choice(list(Decision)))
    csr = overlay.to_csr()
    got = (
        csr.in_indptr, csr.in_indices, csr.in_signs, csr.out_indptr, csr.out_indices,
        csr.out_signs, csr.push, csr.kinds, csr.fan_in,
    )
    assert got == per_edge_csr(overlay)
    assert overlay.num_negative_edges == sum(1 for *_, sign in overlay.edges() if sign < 0)
