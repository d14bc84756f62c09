"""Integration tests for the EAGrEngine compile-and-run pipeline."""

import pytest

from repro.core.aggregates import Max, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.overlay import Decision
from repro.core.query import EgoQuery, QueryMode
from repro.core.windows import TupleWindow
from repro.dataflow.frequencies import FrequencyModel
from repro.graph.dynamic_graph import DynamicGraph
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
    def run_change_scenario(self, maintain):
        graph = random_graph(20, 60, seed=12)
        engine = EAGrEngine(
            graph, fig1_query(), overlay_algorithm="vnm_a", maintain=maintain
        )
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

    def test_with_maintainer(self):
        self.run_change_scenario(maintain=True)

    def test_with_recompile(self):
        self.run_change_scenario(maintain=False)

    @pytest.mark.parametrize("maintain", [True, False])
    def test_the_clock_survives_a_structural_change(self, maintain):
        """A recompile used to start the new runtime's clock at 0: the next
        timestamp-less write then went into a time window *behind* the
        last one and raised."""
        from repro.core.windows import TimeWindow

        graph = random_graph(12, 36, seed=3)
        query = EgoQuery(aggregate=Sum(), window=TimeWindow(5.0))
        engine = EAGrEngine(graph, query, maintain=maintain)
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
