"""The columnar ``DynamicGraph`` against the dict-of-sets reference.

Random sequences of edits run on both graphs at once; after each step
everything the public API shows must be equal: nodes in order, neighbour
sets and degrees, the edge count, ``has_edge`` over every pair, the
clock, attributes, the ``GraphError`` an invalid edit raises, ``copy()``
and a pickle round trip.  The rebuild limit is drawn too, so that the
CSRs are rebuilt (and handles renumbered after a removal) now after every
edit, now never within an example.
"""

import pickle
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import dynamic_graph
from repro.graph.dynamic_graph import DynamicGraph, GraphError

from tests.graph.dict_graph import DictGraph
from tests.graph.test_bulk_loaders import node_ids

DIRECTIONS = ("in", "out", "both")


def public_state(graph):
    nodes = list(graph.nodes())
    return (
        nodes,
        len(graph),
        [graph.out_neighbors(node) for node in nodes],
        [graph.in_neighbors(node) for node in nodes],
        [graph.neighbors(node) for node in nodes],
        [(graph.out_degree(node), graph.in_degree(node)) for node in nodes],
        set(graph.edges()),
        graph.num_edges,
        graph.clock,
        [(graph.get_attr(node, "k"), graph.get_attr(node, "j", "none")) for node in nodes],
    )


def outcome(graph, name, args):
    """What ``graph.name(*args)`` returns, or the message it raises."""
    try:
        return ("returned", getattr(graph, name)(*args))
    except GraphError as error:
        return ("raised", str(error))


def steps_over(pool):
    node = st.sampled_from(pool)
    edge = st.tuples(node, node)
    return st.lists(
        st.one_of(
            # edge edits three times as often as the rest
            *[st.tuples(st.just("add_edge"), edge), st.tuples(st.just("remove_edge"), edge)] * 3,
            st.tuples(st.just("add_undirected_edge"), edge),
            st.tuples(st.just("add_node"), st.tuples(node)),
            st.tuples(st.just("remove_node"), st.tuples(node)),
            st.tuples(st.just("set_attr"), st.tuples(node, st.just("k"), st.integers(0, 3))),
            st.tuples(st.just("csr"), st.tuples(st.sampled_from(DIRECTIONS))),
        ),
        max_size=60,
    )


def check_csr(graph, reference, direction):
    """Every node's row of ``graph.csr(direction)`` names its neighbours
    once each."""
    indptr, ends = graph.csr(direction)
    neighbours = {
        "in": reference.in_neighbors,
        "out": reference.out_neighbors,
        "both": reference.neighbors,
    }[direction]
    for node in reference.nodes():
        handle = graph.handle(node)
        row = [graph.labels[end] for end in ends[indptr[handle] : indptr[handle + 1]].tolist()]
        assert len(row) == len(set(row))
        assert set(row) == neighbours(node)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), rebuild_min=st.sampled_from([0, 3, 256]))
def test_every_step_equals_the_dict_of_sets_graph(data, rebuild_min):
    pool = data.draw(st.lists(node_ids, min_size=1, max_size=7, unique=True), label="pool")
    steps = data.draw(steps_over(pool), label="steps")
    with mock.patch.object(dynamic_graph, "_REBUILD_MIN", rebuild_min):
        graph, reference = DynamicGraph(), DictGraph()
        for name, args in steps:
            if name == "csr":
                check_csr(graph, reference, *args)
                continue
            assert outcome(graph, name, args) == outcome(reference, name, args)
            state = public_state(reference)
            assert public_state(graph) == state
            for u in pool:
                for v in pool:
                    assert graph.has_edge(u, v) == reference.has_edge(u, v)
            assert public_state(graph.copy()) == public_state(reference.copy())
            assert public_state(pickle.loads(pickle.dumps(graph))) == state


@settings(max_examples=100, deadline=None)
@given(
    edges=st.lists(st.tuples(node_ids, node_ids), max_size=60),
    rebuild_min=st.sampled_from([0, 256]),
)
def test_from_edges_then_edits_equals_the_dict_of_sets_graph(edges, rebuild_min):
    """A bulk-loaded graph takes edits as one built edge by edge does."""
    edges = [(u, v) for u, v in edges if u != v]
    with mock.patch.object(dynamic_graph, "_REBUILD_MIN", rebuild_min):
        graph, reference = DynamicGraph.from_edges(edges), DictGraph.from_edges(edges)
        assert public_state(graph) == public_state(reference)
        for u, v in edges[::2]:
            for name in ("remove_edge", "add_edge", "remove_node"):
                assert outcome(graph, name, (u, v)[: 2 if "edge" in name else 1]) == outcome(
                    reference, name, (u, v)[: 2 if "edge" in name else 1]
                )
                assert public_state(graph) == public_state(reference)


def test_a_row_losing_a_rebuilt_end_keeps_the_ends_added_since():
    graph = DynamicGraph.from_edges([(1, 2), (1, 3)])
    graph.add_edge(1, 4)  # after the CSR row of 1, which stays intact
    graph.remove_edge(1, 2)  # the row is now kept whole
    assert graph.out_neighbors(1) == {3, 4}
    assert graph.out_degree(1) == 2
    assert graph.in_neighbors(4) == {1}
    assert graph.has_edge(1, 4) and not graph.has_edge(1, 2)
