"""Unit tests for the dynamic graph store."""

import pytest

from repro.graph import DynamicGraph, GraphError


@pytest.fixture
def triangle():
    g = DynamicGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    return g


class TestNodes:
    def test_add_node(self):
        g = DynamicGraph()
        assert g.add_node(1) is True
        assert 1 in g
        assert g.num_nodes == 1

    def test_add_node_idempotent(self):
        g = DynamicGraph()
        g.add_node(1)
        assert g.add_node(1) is False
        assert g.num_nodes == 1

    def test_remove_node_removes_incident_edges(self, triangle):
        triangle.remove_node("b")
        assert "b" not in triangle
        assert triangle.num_edges == 1  # only c -> a survives
        assert triangle.has_edge("c", "a")

    def test_remove_missing_node_raises(self):
        g = DynamicGraph()
        with pytest.raises(GraphError):
            g.remove_node("ghost")

    def test_len_and_iteration(self, triangle):
        assert len(triangle) == 3
        assert set(triangle.nodes()) == {"a", "b", "c"}

    def test_mixed_node_types(self):
        g = DynamicGraph()
        g.add_edge(1, "one")
        g.add_edge(("tuple", 2), 1)
        assert g.num_nodes == 3


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        g = DynamicGraph()
        assert g.add_edge("x", "y") is True
        assert g.num_nodes == 2
        assert g.has_edge("x", "y")
        assert not g.has_edge("y", "x")

    def test_add_edge_idempotent(self):
        g = DynamicGraph()
        g.add_edge("x", "y")
        assert g.add_edge("x", "y") is False
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = DynamicGraph()
        with pytest.raises(GraphError):
            g.add_edge("x", "x")

    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("a", "b")
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_edge("b", "a")

    def test_undirected_edge(self):
        g = DynamicGraph()
        g.add_undirected_edge("u", "v")
        assert g.has_edge("u", "v") and g.has_edge("v", "u")
        assert g.num_edges == 2

    def test_edges_iterator(self, triangle):
        assert set(triangle.edges()) == {("a", "b"), ("b", "c"), ("c", "a")}


class TestNeighbors:
    def test_in_out_neighbors(self, triangle):
        assert triangle.out_neighbors("a") == {"b"}
        assert triangle.in_neighbors("a") == {"c"}
        assert triangle.neighbors("a") == {"b", "c"}

    def test_degrees(self, triangle):
        assert triangle.out_degree("a") == 1
        assert triangle.in_degree("a") == 1

    def test_neighbors_of_missing_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.out_neighbors("ghost")
        with pytest.raises(GraphError):
            triangle.in_neighbors("ghost")


class TestAttributes:
    def test_set_get(self, triangle):
        triangle.set_attr("a", "kind", "user")
        assert triangle.get_attr("a", "kind") == "user"

    def test_default(self, triangle):
        assert triangle.get_attr("a", "missing", 42) == 42

    def test_set_on_missing_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.set_attr("ghost", "k", 1)


class TestStructureStream:
    """The structure clock an engine reads to tell its own edits from
    edits made behind it."""

    def test_every_edit_ticks_once(self):
        g = DynamicGraph()
        g.add_edge("a", "b")  # two nodes, then the edge
        assert g.clock == 3
        g.remove_edge("a", "b")
        assert g.clock == 4
        g.add_node("c")
        assert g.clock == 5
        g.set_attr("c", "k", 1)  # content, not structure
        assert g.clock == 5

    def test_timestamps_monotone(self):
        g = DynamicGraph()
        stamps = [g.clock]
        for edit in (
            lambda: g.add_edge("a", "b"),
            lambda: g.add_edge("b", "c"),
            lambda: g.remove_edge("a", "b"),
            lambda: g.remove_node("c"),
            lambda: g.add_node("d"),
        ):
            edit()
            stamps.append(g.clock)
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_noop_operations_do_not_tick(self):
        g = DynamicGraph()
        g.add_edge("a", "b")
        clock = g.clock
        assert g.add_node("a") is False
        assert g.add_edge("a", "b") is False
        assert g.clock == clock

    def test_refused_operations_do_not_tick(self, triangle):
        clock = triangle.clock
        for edit in (
            lambda: triangle.remove_edge("a", "c"),
            lambda: triangle.remove_node("ghost"),
            lambda: triangle.add_edge("a", "a"),
        ):
            with pytest.raises(GraphError):
                edit()
        assert triangle.clock == clock

    def test_remove_node_ticks_per_incident_edge_plus_one(self, triangle):
        clock = triangle.clock
        triangle.remove_node("a")  # a -> b and c -> a
        assert triangle.clock == clock + 3
        assert triangle.num_edges == 1

    def test_from_edges_clock_matches_one_edit_at_a_time(self):
        edges = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "a")]
        g = DynamicGraph()
        for u, v in edges:
            g.add_edge(u, v)
        assert DynamicGraph.from_edges(edges).clock == g.clock


class TestConstruction:
    def test_from_edges(self):
        g = DynamicGraph.from_edges([("a", "b"), ("b", "c")])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_copy_is_independent(self, triangle):
        triangle.set_attr("a", "k", 1)
        clone = triangle.copy()
        clone.remove_node("a")
        assert "a" in triangle
        assert triangle.get_attr("a", "k") == 1
        assert "a" not in clone

    def test_copy_preserves_structure(self, triangle):
        clone = triangle.copy()
        assert set(clone.edges()) == set(triangle.edges())
