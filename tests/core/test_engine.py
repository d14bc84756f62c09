"""Integration tests for the EAGrEngine compile-and-run pipeline."""

import random

import pytest

from repro.core.aggregates import Max, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.overlay import Decision, NodeKind
from repro.core.query import EgoQuery, QueryMode
from repro.core.windows import TupleWindow
from repro.dataflow.frequencies import FrequencyModel
from repro.graph.bipartite import build_bipartite
from repro.graph.dynamic_graph import DynamicGraph, GraphError
from repro.graph.generators import paper_figure1, random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp

from tests.conftest import make_events, oracle_for, play_and_check

ALGORITHMS = ["identity", "vnm", "vnm_a", "vnm_n", "vnm_d", "iob"]
DATAFLOWS = ["mincut", "greedy", "all_push", "all_pull"]


def fig1_query(aggregate=None):
    return EgoQuery(
        aggregate=aggregate or Sum(),
        window=TupleWindow(1),
        neighborhood=Neighborhood.in_neighbors(),
    )


class TestPaperExample:
    """Pin the engine to the worked example of Figure 1."""

    DATA = {
        "a": [1, 4], "b": [3, 7], "c": [6, 9], "d": [8, 4, 3],
        "e": [5, 9, 1], "f": [3, 6, 6], "g": [5],
    }
    # The paper's prose pins two results: "a read query on a returns
    # (9) + (3) + (1) + (6) = 19", and N(b) = {d, e, f} gives 3 + 1 + 6 = 10.
    # The rest of Figure 1(b)'s column is checked against the oracle.
    PINNED = {"a": 19.0, "b": 10.0}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_sum_results_match_figure(self, algorithm, dataflow):
        aggregate = Max() if algorithm == "vnm_d" else Sum()
        engine = EAGrEngine(
            paper_figure1(),
            fig1_query(aggregate),
            overlay_algorithm=algorithm,
            dataflow=dataflow,
            overlay_params={} if algorithm == "identity" else {"iterations": 3},
        )
        oracle = oracle_for(engine)
        for node, values in self.DATA.items():
            for value in values:
                engine.write(node, value)
                oracle.write(node, value)
        for node in self.DATA:
            assert engine.read(node) == oracle.read(node)
        if algorithm != "vnm_d":
            for node, expected in self.PINNED.items():
                assert engine.read(node) == expected


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_sum_random_graph(self, algorithm):
        graph = random_graph(40, 200, seed=11)
        aggregate = Max() if algorithm == "vnm_d" else Sum()
        engine = EAGrEngine(
            graph, fig1_query(aggregate), overlay_algorithm=algorithm,
            overlay_params={} if algorithm == "identity" else {"iterations": 4},
        )
        events = make_events(list(graph.nodes()), 400, seed=1)
        assert play_and_check(engine, events) > 50

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_topk_window_dataflows(self, dataflow):
        graph = random_graph(30, 150, seed=5)
        query = EgoQuery(
            aggregate=TopK(3), window=TupleWindow(4),
            neighborhood=Neighborhood.in_neighbors(),
        )
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a", dataflow=dataflow)
        events = make_events(list(graph.nodes()), 300, seed=2, vocabulary=5)
        assert play_and_check(engine, events) > 50

    def test_max_duplicate_insensitive_overlay(self):
        graph = random_graph(30, 150, seed=6)
        engine = EAGrEngine(graph, fig1_query(Max()), overlay_algorithm="vnm_d")
        events = make_events(list(graph.nodes()), 300, seed=3)
        play_and_check(engine, events)

    def test_two_hop_neighborhood(self):
        graph = random_graph(25, 80, seed=7)
        query = EgoQuery(
            aggregate=Sum(), neighborhood=Neighborhood.in_neighbors(hops=2)
        )
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        events = make_events(list(graph.nodes()), 250, seed=4)
        play_and_check(engine, events)

    def test_splitting_preserves_results(self):
        graph = random_graph(30, 180, seed=8)
        frequencies = FrequencyModel.zipf(graph.nodes(), seed=9)
        engine = EAGrEngine(
            graph, fig1_query(), overlay_algorithm="vnm_a",
            frequencies=frequencies, enable_splitting=True,
        )
        events = make_events(list(graph.nodes()), 300, seed=5)
        play_and_check(engine, events)


class TestGuards:
    def test_vnm_n_requires_subtractable(self):
        with pytest.raises(ValueError, match="negative edges"):
            EAGrEngine(paper_figure1(), fig1_query(Max()), overlay_algorithm="vnm_n")

    def test_vnm_d_requires_duplicate_insensitive(self):
        with pytest.raises(ValueError, match="duplicate"):
            EAGrEngine(paper_figure1(), fig1_query(Sum()), overlay_algorithm="vnm_d")

    def test_unknown_dataflow(self):
        with pytest.raises(ValueError):
            EAGrEngine(paper_figure1(), fig1_query(), dataflow="psychic")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            EAGrEngine(paper_figure1(), fig1_query(), overlay_algorithm="magic")


class TestContinuousMode:
    def test_readers_forced_push(self):
        query = EgoQuery(
            aggregate=Sum(), neighborhood=Neighborhood.in_neighbors(),
            mode=QueryMode.CONTINUOUS,
        )
        engine = EAGrEngine(paper_figure1(), query, overlay_algorithm="vnm_a")
        overlay = engine.overlay
        for handle in overlay.reader_handles():
            assert overlay.decisions[handle] is Decision.PUSH

    def test_quasi_mode_mixes(self):
        # With write-heavy expectations, mincut should leave readers pull.
        frequencies = FrequencyModel.uniform(
            paper_figure1().nodes(), read=0.01, write=100.0
        )
        engine = EAGrEngine(
            paper_figure1(), fig1_query(), overlay_algorithm="identity",
            frequencies=frequencies,
        )
        overlay = engine.overlay
        assert any(
            overlay.decisions[h] is Decision.PULL for h in overlay.reader_handles()
        )


class TestStructuralChanges:
    def test_with_maintainer(self):
        graph = random_graph(20, 60, seed=12)
        engine = EAGrEngine(graph, fig1_query(), overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        events = make_events(nodes, 100, seed=6)
        play_and_check(engine, events)
        # Structural churn: add and remove edges, then re-verify reads.
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 0, 5))
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 1, 5))
        some_edge = next(iter(graph.edges()))
        engine.apply_structure_event(
            StructureEvent(StructureOp.REMOVE_EDGE, some_edge[0], some_edge[1])
        )
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, 999))
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 999, 3))
        play_and_check(engine, make_events(nodes + [999], 150, seed=7))
        engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_NODE, 999))
        play_and_check(engine, make_events(nodes, 100, seed=8))

    @pytest.mark.parametrize("built", [True, False])
    def test_the_clock_survives_a_structural_change(self, built):
        """The runtime's clock outlives the sync after a structure event,
        whether that event builds the maintainer or an earlier one did: a
        clock restarted at 0 would put the next timestamp-less write into a
        time window *behind* the last one, which raises."""
        from repro.core.windows import TimeWindow

        graph = random_graph(12, 36, seed=3)
        query = EgoQuery(aggregate=Sum(), window=TimeWindow(5.0))
        engine = EAGrEngine(graph, query)
        if built:
            # an event that changes nothing still builds the maintainer
            engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, 0))
            assert engine.maintainer is not None
        oracle = oracle_for(engine)
        node = next(iter(graph.edges()))[0]
        engine.write_batch([(node, 1.0, 100.0)])
        oracle.write(node, 1.0, 100.0)
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, 999))
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 999, node))
        engine.write(node, 2.0)
        oracle.write(node, 2.0)
        assert engine.runtime.clock == oracle.clock == 101.0
        for reader in graph.nodes():
            assert engine.read(reader) == oracle.read(reader)


class TestOneStructurePath:
    """The overlay maintainer absorbs every structure event; nothing
    rebuilds the overlay from scratch behind the engine's options."""

    def test_the_first_structure_event_builds_the_maintainer(self):
        graph = random_graph(20, 60, seed=12)
        engine = EAGrEngine(graph, fig1_query())
        nodes = sorted(graph.nodes())
        engine.write_batch([(node, 1.0) for node in nodes])
        engine.read_batch(nodes)
        engine.changed_readers()
        assert engine.maintainer is None
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, 999))
        assert engine.maintainer is not None

    def test_a_writer_no_reader_observes_keeps_its_window(self):
        """w leaves the only neighbourhood it was in, is written, then joins
        another: the writes in between count (one writer rule)."""
        graph = DynamicGraph.from_edges([("w", "r"), ("x", "s")])
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum(), window=TupleWindow(2)))
        oracle = oracle_for(engine)
        engine.write("w", 1.0)
        oracle.write("w", 1.0)
        engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_EDGE, "w", "r"))
        for value in (2.0, 4.0):
            engine.write("w", value)
            oracle.write("w", value)
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, "w", "s"))
        assert engine.read("s") == oracle.read("s") == 6.0
        assert engine.read("r") == oracle.read("r") == 0.0

    def test_split_partials_survive_a_structure_event(self):
        graph = random_graph(25, 120, seed=31)
        engine = EAGrEngine(
            graph, EgoQuery(aggregate=Sum()), overlay_algorithm="identity",
            frequencies=FrequencyModel.zipf(graph.nodes(), seed=5),
            enable_splitting=True,
        )
        assert engine.split_handles
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, 999))
        engine.read_batch([])
        overlay = engine.overlay
        for handle in engine.split_handles:
            assert overlay.kinds[handle] is NodeKind.PARTIAL
            assert overlay.out_rows(handle)[0]
        play_and_check(engine, make_events(sorted(graph.nodes()), 200, seed=32))

    def test_overlay_params_survive_a_structure_event(self):
        graph = random_graph(30, 180, seed=8)
        # no item is frequent enough to mine: an overlay without partials,
        # where the default parameters mine ten
        engine = EAGrEngine(
            graph, fig1_query(), overlay_params={"min_item_frequency": 50}
        )
        edges = engine.overlay.num_edges
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, 999))
        engine.read_batch([])
        assert engine.construction.config.min_item_frequency == 50
        assert engine.overlay.num_edges == edges
        assert NodeKind.PARTIAL not in engine.overlay.kinds

    def test_an_attribute_change_reaches_a_filter_with_the_next_event(self):
        """The maintainer starts from the AG the overlay was built from, so
        the event that builds it also re-derives what an attribute change
        since then moved."""
        graph = DynamicGraph.from_edges([("a", "r"), ("b", "r")])
        for node in ("a", "b"):
            graph.set_attr(node, "on", True)
        query = EgoQuery(
            aggregate=Sum(),
            neighborhood=Neighborhood.in_neighbors(
                node_filter=lambda g, node: g.get_attr(node, "on") is True
            ),
        )
        engine = EAGrEngine(graph, query)
        oracle = oracle_for(engine)
        engine.write_batch([("a", 2.0), ("b", 3.0)])
        oracle.write_batch([("a", 2.0), ("b", 3.0)])
        assert engine.read("r") == 5.0
        graph.set_attr("b", "on", False)
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, "c", "r"))
        assert engine.read("r") == oracle.read("r") == 2.0


    def test_removing_a_filtered_node_cuts_the_paths_through_it(self):
        """x is no member of N(r) (the filter drops it), but w reaches r only
        through x: removing x must take w out of N(r) too."""
        graph = DynamicGraph.from_edges([("w", "x"), ("x", "r")])
        query = EgoQuery(
            aggregate=Sum(),
            neighborhood=Neighborhood.in_neighbors(
                hops=2, node_filter=lambda g, node: node != "x"
            ),
        )
        engine = EAGrEngine(graph, query)
        oracle = oracle_for(engine)
        engine.write("w", 4.0)
        oracle.write("w", 4.0)
        assert engine.read("r") == 4.0
        engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_NODE, "x"))
        assert engine.read("r") == oracle.read("r") == 0.0


class TestTheAGStaysCurrent:
    """The engine's ``AG`` is the one record of each reader's inputs: the
    maintainer rewrites its rows, so the sharing index, ``describe()`` and
    ``Overlay.validate`` read the graph as it stands."""

    def test_edge_removals(self):
        # regression: the AG kept the construction's rows, and the sharing
        # index read 0.30 here where the live AG gives 0.0
        graph = random_graph(80, 400, seed=3)
        engine = EAGrEngine(graph, fig1_query())
        rng = random.Random(3)
        for _ in range(120):
            u, v = rng.choice(sorted(graph.edges()))
            engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_EDGE, u, v))
        self.check(engine)
        assert engine.sharing_index() == 0.0

    def test_mixed_churn_with_a_reader_predicate(self):
        graph = random_graph(40, 150, seed=5)
        query = EgoQuery(
            aggregate=Sum(),
            neighborhood=Neighborhood.undirected(hops=2),
            predicate=lambda node: node % 4 != 0,
        )
        engine = EAGrEngine(graph, query, overlay_algorithm="iob")
        rng = random.Random(5)
        for step in range(60):
            nodes = sorted(graph.nodes())
            roll = rng.random()
            if roll < 0.4:
                event = StructureEvent(StructureOp.ADD_EDGE, *rng.sample(nodes, 2))
            elif roll < 0.8:
                event = StructureEvent(StructureOp.REMOVE_EDGE, *rng.choice(sorted(graph.edges())))
            elif roll < 0.9:
                event = StructureEvent(StructureOp.ADD_NODE, 100 + step)
            else:
                event = StructureEvent(StructureOp.REMOVE_NODE, rng.choice(nodes))
            engine.apply_structure_event(event)
            engine.overlay.validate(engine.ag)
        self.check(engine)

    @staticmethod
    def check(engine):
        query = engine.query
        fresh = build_bipartite(engine.graph, query.neighborhood, query.predicate)
        assert engine.ag.reader_inputs == fresh.reader_inputs
        assert engine.ag.writer_out_degree == fresh.writer_out_degree
        assert engine.sharing_index() == 1.0 - engine.overlay.num_edges / fresh.num_edges
        assert f"SI={engine.sharing_index():.3f}" in engine.describe()


class TestEditsBehindTheEngine:
    """A graph edited directly, not through apply_structure_event, is
    refused: the overlay would no longer describe it, and the report would
    miss what the edit moved."""

    def edited(self, built):
        graph = DynamicGraph.from_edges([("a", "r"), ("b", "r")])
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()))
        if built:
            engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, "z"))
        engine.write_batch([("a", 2.0), ("b", 3.0)])
        assert engine.read("r") == 5.0
        engine.changed_readers()
        graph.remove_edge("a", "r")
        return engine

    def test_without_a_maintainer(self):
        engine = self.edited(built=False)
        with pytest.raises(GraphError, match="apply_structure_event"):
            engine.read("r")

    def test_with_a_maintainer(self):
        engine = self.edited(built=True)
        with pytest.raises(GraphError, match="apply_structure_event"):
            engine.changed_readers()
        with pytest.raises(GraphError, match="apply_structure_event"):
            engine.apply_structure_event(StructureEvent(StructureOp.ADD_NODE, "y"))


class TestRedecide:
    def test_redecide_with_new_frequencies(self):
        graph = random_graph(20, 80, seed=13)
        engine = EAGrEngine(graph, fig1_query(), overlay_algorithm="vnm_a")
        events = make_events(list(graph.nodes()), 100, seed=9)
        play_and_check(engine, events)
        engine.redecide(FrequencyModel.uniform(graph.nodes(), read=100.0, write=0.01))
        play_and_check(engine, make_events(list(graph.nodes()), 100, seed=10))

    def test_describe(self):
        engine = EAGrEngine(paper_figure1(), fig1_query())
        text = engine.describe()
        assert "vnm_a" in text and "mincut" in text
