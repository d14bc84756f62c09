"""Tests for incremental overlay maintenance (paper Section 3.3).

The central property: after ANY sequence of structure-stream events, the
maintained overlay answers exactly like a freshly-built one — verified via
``Overlay.validate`` against the recomputed AG — and the maintainer's ``AG``
is that recomputed AG.  Every edit goes through ``maintainer.apply``, which
makes it on the graph.
"""

import random

import pytest

from repro.graph.bipartite import build_bipartite
from repro.graph.dynamic_graph import DynamicGraph, GraphError
from repro.graph.generators import paper_figure1, random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.overlay import dynamic
from repro.overlay.dynamic import OverlayMaintainer
from repro.overlay.iob import build_iob
from repro.overlay.vnm import build_vnm


def make_maintained(graph, algorithm="vnm_a", neighborhood=None):
    neighborhood = neighborhood or Neighborhood.in_neighbors()
    ag = build_bipartite(graph, neighborhood)
    if algorithm == "iob":
        overlay = build_iob(ag, iterations=2).overlay
    else:
        overlay = build_vnm(ag, variant=algorithm, iterations=4).overlay
    return OverlayMaintainer(graph, neighborhood, overlay, ag)


def add_edge(maintainer, u, v):
    return maintainer.apply(StructureEvent(StructureOp.ADD_EDGE, u, v))


def remove_edge(maintainer, u, v):
    return maintainer.apply(StructureEvent(StructureOp.REMOVE_EDGE, u, v))


def add_node(maintainer, node):
    return maintainer.apply(StructureEvent(StructureOp.ADD_NODE, node))


def remove_node(maintainer, node):
    return maintainer.apply(StructureEvent(StructureOp.REMOVE_NODE, node))


def check(maintainer, graph, neighborhood=None):
    neighborhood = neighborhood or Neighborhood.in_neighbors()
    ag = build_bipartite(graph, neighborhood)
    maintainer.overlay.validate(ag)
    assert maintainer.ag.reader_inputs == ag.reader_inputs
    assert maintainer.ag.writer_out_degree == ag.writer_out_degree


class TestEdgeAddition:
    def test_single_edge(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        add_edge(maintainer, "g", "a")  # g now feeds a
        check(maintainer, graph)

    def test_small_delta_uses_direct_edges(self, monkeypatch):
        monkeypatch.setattr(dynamic, "DELTA_THRESHOLD", 100)
        graph = random_graph(15, 40, seed=1)
        maintainer = make_maintained(graph)
        add_edge(maintainer, 0, 1)  # a no-op when the edge is there
        check(maintainer, graph)

    def test_large_delta_covered_by_partial(self, monkeypatch):
        monkeypatch.setattr(dynamic, "DELTA_THRESHOLD", 1)
        graph = random_graph(15, 40, seed=2)
        # 2-hop neighborhoods: one new edge changes many input lists at once.
        neighborhood = Neighborhood.in_neighbors(hops=2)
        maintainer = make_maintained(graph, neighborhood=neighborhood)
        rng = random.Random(3)
        for _ in range(3):
            add_edge(maintainer, *rng.sample(range(15), 2))
        check(maintainer, graph, neighborhood)

    def test_direct_edge_count_triggers_rebuild(self, monkeypatch):
        monkeypatch.setattr(dynamic, "DELTA_THRESHOLD", 100)
        monkeypatch.setattr(dynamic, "DIRECT_EDGE_THRESHOLD", 2)
        graph = random_graph(20, 50, seed=4)
        maintainer = make_maintained(graph)
        rng = random.Random(5)
        added = 0
        while added < 10:
            u, v = rng.randrange(20), rng.randrange(20)
            if u != v and not graph.has_edge(u, v):
                add_edge(maintainer, u, v)
                added += 1
        check(maintainer, graph)

    def test_new_reader_via_first_edge(self):
        graph = DynamicGraph.from_edges([("w", "r")])
        maintainer = make_maintained(graph)
        add_node(maintainer, "fresh")
        add_edge(maintainer, "w", "fresh")
        check(maintainer, graph)


    def test_added_writer_that_was_subtracted_out(self):
        """``vnm_n`` shape: r consumes a partial over {a, b, c} minus c.
        When c starts feeding r the negative edge must go — skipping the
        addition because "an edge is already there" leaves c's net at 0
        (regression: reads of r then missed c's value)."""
        from repro.core.overlay import Overlay

        graph = DynamicGraph()
        for node in ("a", "b", "c", "r", "s"):
            graph.add_node(node)
        for writer in ("a", "b", "c"):
            graph.add_edge(writer, "s")
        graph.add_edge("a", "r")
        graph.add_edge("b", "r")
        overlay = Overlay()
        writers = {name: overlay.add_writer(name) for name in ("a", "b", "c")}
        partial = overlay.add_partial()
        for handle in writers.values():
            overlay.add_edge(handle, partial)
        overlay.add_edge(partial, overlay.add_reader("s"))
        r = overlay.add_reader("r")
        overlay.add_edge(partial, r)
        overlay.add_edge(writers["c"], r, -1)
        ag = build_bipartite(graph, Neighborhood.in_neighbors())
        maintainer = OverlayMaintainer(graph, Neighborhood.in_neighbors(), overlay, ag)
        check(maintainer, graph)
        add_edge(maintainer, "c", "r")
        check(maintainer, graph)
        assert writers["c"] not in overlay.in_rows(r)[0]


class TestEdgeDeletion:
    def test_direct_edge_removal(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        remove_edge(maintainer, "c", "a")
        check(maintainer, graph)

    def test_removal_through_partial(self):
        graph = random_graph(20, 120, seed=6)
        maintainer = make_maintained(graph, algorithm="iob")
        edges = list(graph.edges())[:8]
        for u, v in edges:
            remove_edge(maintainer, u, v)
        check(maintainer, graph)

    def test_reader_loses_all_inputs(self):
        graph = DynamicGraph.from_edges([("w1", "r"), ("w2", "r")])
        maintainer = make_maintained(graph)
        remove_edge(maintainer, "w1", "r")
        remove_edge(maintainer, "w2", "r")
        check(maintainer, graph)
        assert "r" not in maintainer.ag.reader_inputs
        assert "r" not in maintainer.overlay.reader_of

    def test_affected_threshold_triggers_rebuild(self, monkeypatch):
        monkeypatch.setattr(dynamic, "AFFECTED_THRESHOLD", 0)
        graph = random_graph(25, 150, seed=7)
        maintainer = make_maintained(graph, algorithm="iob")
        for u, v in list(graph.edges())[:5]:
            remove_edge(maintainer, u, v)
        check(maintainer, graph)

    def test_missing_edge_is_refused_before_any_change(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        clock, rows = graph.clock, dict(maintainer.ag.reader_inputs)
        with pytest.raises(GraphError):
            remove_edge(maintainer, "a", "ghost")
        assert graph.clock == clock
        assert maintainer.ag.reader_inputs == rows


class TestNodes:
    def test_node_addition_with_edges(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        add_node(maintainer, "z")
        add_edge(maintainer, "z", "a")
        add_edge(maintainer, "b", "z")
        check(maintainer, graph)

    def test_node_removal(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        remove_node(maintainer, "d")  # d fed almost everyone
        assert "d" not in graph
        check(maintainer, graph)

    def test_node_removal_iob_overlay(self):
        graph = random_graph(20, 100, seed=8)
        maintainer = make_maintained(graph, algorithm="iob")
        remove_node(maintainer, 3)
        check(maintainer, graph)
        remove_node(maintainer, 7)
        check(maintainer, graph)


class TestAffectedReaders:
    def test_apply_returns_the_readers_near_the_edit_before_and_after(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        u, v = next(iter(graph.edges()))
        # in-neighbourhoods: the nodes u feeds, before the removal, and u, v
        before = {u, v} | graph.out_neighbors(u) | graph.out_neighbors(v)
        assert remove_edge(maintainer, u, v) == before

    def test_a_noop_edit_refreshes_no_reader(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        u, v = next(iter(graph.edges()))
        version = maintainer.overlay.version
        near = add_edge(maintainer, u, v)
        assert u in near and v in near
        assert maintainer.overlay.version == version

    def test_node_removal_returns_the_readers_near_the_node(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        near = {"d"} | graph.out_neighbors("d")
        assert remove_node(maintainer, "d") == near


class TestRandomizedChurn:
    @pytest.mark.parametrize("algorithm", ["vnm_a", "vnm_n", "iob"])
    def test_random_mutation_sequences(self, algorithm):
        rng = random.Random(17)
        graph = random_graph(18, 60, seed=9)
        maintainer = make_maintained(graph, algorithm=algorithm)
        next_node = 1000
        for step in range(60):
            op = rng.random()
            nodes = list(graph.nodes())
            if op < 0.45 and len(nodes) >= 2:
                u, v = rng.sample(nodes, 2)
                if not graph.has_edge(u, v):
                    add_edge(maintainer, u, v)
            elif op < 0.75:
                edges = list(graph.edges())
                if edges:
                    u, v = rng.choice(edges)
                    remove_edge(maintainer, u, v)
            elif op < 0.9:
                add_node(maintainer, next_node)
                if nodes:
                    add_edge(maintainer, rng.choice(nodes), next_node)
                next_node += 1
            elif len(nodes) > 5:
                remove_node(maintainer, rng.choice(nodes))
            if step % 10 == 9:
                check(maintainer, graph)
        check(maintainer, graph)

    def test_churn_on_two_hop_neighborhoods(self):
        rng = random.Random(23)
        graph = random_graph(12, 30, seed=10)
        neighborhood = Neighborhood.in_neighbors(hops=2)
        maintainer = make_maintained(graph, neighborhood=neighborhood)
        for step in range(30):
            nodes = list(graph.nodes())
            if rng.random() < 0.5 and len(nodes) >= 2:
                u, v = rng.sample(nodes, 2)
                if not graph.has_edge(u, v):
                    add_edge(maintainer, u, v)
            else:
                edges = list(graph.edges())
                if edges:
                    u, v = rng.choice(edges)
                    remove_edge(maintainer, u, v)
            if step % 6 == 5:
                check(maintainer, graph, neighborhood)
        check(maintainer, graph, neighborhood)

    def test_version_counter_advances(self):
        graph = paper_figure1()
        maintainer = make_maintained(graph)
        before = maintainer.overlay.version
        maintainer.overlay.pop_dirty()
        add_edge(maintainer, "g", "b")
        assert maintainer.overlay.version > before
        assert maintainer.overlay.pop_dirty()
