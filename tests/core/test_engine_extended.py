"""Extended engine coverage: degenerate graphs, filtered/predicate queries,
remaining aggregates end-to-end, UDAs, stream-player integration, and
cost-model plumbing."""

import math

import pytest

from repro.core.aggregates import (
    CountDistinct,
    DistinctSet,
    Mean,
    Min,
    Sum,
    UserDefinedAggregate,
)
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TimeWindow, TupleWindow
from repro.dataflow.costs import CostModel, calibrate
from repro.dataflow.frequencies import FrequencyModel
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import paper_figure1, random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import (
    ReadEvent,
    StreamPlayer,
    StructureEvent,
    StructureOp,
    WriteEvent,
)

from tests.conftest import make_events, play_and_check


class TestDegenerateGraphs:
    def test_empty_graph(self):
        engine = EAGrEngine(DynamicGraph(), EgoQuery(aggregate=Sum()))
        engine.write("ghost", 1.0)
        assert engine.read("ghost") == 0.0

    def test_single_isolated_node(self):
        graph = DynamicGraph()
        graph.add_node("solo")
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()))
        engine.write("solo", 5.0)
        assert engine.read("solo") == 0.0  # nobody feeds solo

    def test_single_edge(self):
        graph = DynamicGraph.from_edges([("w", "r")])
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()))
        engine.write("w", 2.5)
        assert engine.read("r") == 2.5
        assert engine.read("w") == 0.0

    def test_star_graph(self):
        graph = DynamicGraph()
        for i in range(20):
            graph.add_edge(f"leaf{i}", "hub")
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()))
        for i in range(20):
            engine.write(f"leaf{i}", 1.0)
        assert engine.read("hub") == 20.0

    def test_complete_bipartite(self):
        graph = DynamicGraph()
        for w in range(6):
            for r in range(6, 12):
                graph.add_edge(w, r)
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()), overlay_algorithm="iob")
        # Perfect biclique: one partial aggregator, 6 + 6 edges.
        assert engine.overlay.num_edges == 12
        for w in range(6):
            engine.write(w, 1.0)
        for r in range(6, 12):
            assert engine.read(r) == 6.0


class TestPredicateAndFilters:
    def test_predicate_limits_readers(self):
        graph = paper_figure1()
        query = EgoQuery(aggregate=Sum(), predicate=lambda v: v in ("a", "b"))
        engine = EAGrEngine(graph, query)
        assert set(engine.overlay.reader_of) == {"a", "b"}
        engine.write("d", 7.0)
        assert engine.read("a") == 7.0
        assert engine.read("c") == 0.0  # no materialized query for c

    def test_filtered_neighborhood(self):
        graph = paper_figure1()
        for node in graph.nodes():
            graph.set_attr(node, "vip", node in ("c", "d"))
        query = EgoQuery(
            aggregate=Sum(),
            neighborhood=Neighborhood.in_neighbors(
                node_filter=lambda g, v: g.get_attr(v, "vip")
            ),
        )
        engine = EAGrEngine(graph, query)
        engine.write("c", 3.0)
        engine.write("e", 100.0)  # filtered out of every neighborhood
        assert engine.read("a") == 3.0  # N(a) ∩ vip = {c, d}

    def test_out_neighborhood_query(self):
        graph = DynamicGraph.from_edges([("a", "b"), ("a", "c")])
        query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.out_neighbors())
        engine = EAGrEngine(graph, query)
        engine.write("b", 1.0)
        engine.write("c", 2.0)
        assert engine.read("a") == 3.0


class TestMoreAggregates:
    def graph(self):
        return random_graph(20, 90, seed=55)

    def test_mean_end_to_end(self):
        graph = self.graph()
        query = EgoQuery(aggregate=Mean(), window=TupleWindow(3))
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_n")
        events = make_events(list(graph.nodes()), 300, seed=56)
        checked = play_and_check(
            engine, events,
            comparator=lambda a, b: (a is None and b is None)
            or (a is not None and b is not None and abs(a - b) < 1e-9),
        )
        assert checked > 40

    def test_min_end_to_end(self):
        graph = self.graph()
        query = EgoQuery(aggregate=Min(), window=TupleWindow(2))
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_d")
        play_and_check(engine, make_events(list(graph.nodes()), 300, seed=57))

    def test_count_distinct_end_to_end(self):
        graph = self.graph()
        query = EgoQuery(aggregate=CountDistinct(), window=TupleWindow(3))
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        play_and_check(
            engine, make_events(list(graph.nodes()), 300, seed=58, vocabulary=5)
        )

    def test_distinct_set_end_to_end(self):
        graph = self.graph()
        query = EgoQuery(aggregate=DistinctSet(), window=TupleWindow(2))
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_d")
        play_and_check(
            engine, make_events(list(graph.nodes()), 300, seed=59, vocabulary=6)
        )

    def test_user_defined_aggregate_end_to_end(self):
        # Numeric range (max - min) tracked as a (min, max) PAO — a
        # non-subtractable, duplicate-insensitive UDA.
        spread = UserDefinedAggregate(
            name="spread",
            initialize=lambda: None,
            lift=lambda raw: (float(raw), float(raw)),
            merge=lambda a, b: (
                b if a is None else a if b is None else (min(a[0], b[0]), max(a[1], b[1]))
            ),
            finalize=lambda pao: None if pao is None else pao[1] - pao[0],
            duplicate_insensitive=True,
        )
        graph = self.graph()
        query = EgoQuery(aggregate=spread, window=TupleWindow(2))
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_d")
        play_and_check(
            engine, make_events(list(graph.nodes()), 250, seed=60),
            aggregate=lambda values: max(values) - min(values) if values else None,
        )

    def test_subtractable_uda_with_negative_edges(self):
        product = UserDefinedAggregate(
            name="product",
            initialize=lambda: 1.0,
            lift=lambda raw: float(raw),
            merge=lambda a, b: a * b,
            subtract=lambda a, b: a / b,
            finalize=lambda pao: pao,
        )
        graph = self.graph()
        query = EgoQuery(aggregate=product, window=TupleWindow(1))
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_n")

        def close(a, b):
            return abs(a - b) <= 1e-6 * max(1.0, abs(b))

        events = make_events(
            list(graph.nodes()), 250, seed=61,
        )
        # Avoid zero values: division-based subtract cannot invert them.
        events = [
            WriteEvent(e.node, e.value + 1.0, e.timestamp)
            if isinstance(e, WriteEvent) else e
            for e in events
        ]
        play_and_check(engine, events, comparator=close, aggregate=math.prod)


class TestPlumbing:
    def test_stream_player_drives_engine(self):
        graph = paper_figure1()
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()))
        player = StreamPlayer(engine, collect_results=True)
        stats = player.play(
            [
                WriteEvent("c", 9.0, timestamp=1),
                WriteEvent("d", 3.0, timestamp=2),
                ReadEvent("a", timestamp=3),
            ]
        )
        assert stats.read_results == [12.0]

    def test_calibrated_cost_model_through_engine(self):
        graph = random_graph(15, 60, seed=62)
        model = calibrate(Sum(), ks=(1, 4, 8), repetitions=30)
        engine = EAGrEngine(
            graph, EgoQuery(aggregate=Sum()), cost_model=model,
        )
        play_and_check(engine, make_events(list(graph.nodes()), 200, seed=63))

    def test_extreme_cost_models_force_decisions(self):
        graph = paper_figure1()
        # Pull practically free: everything should pull.
        cheap_pull = CostModel(push=lambda k: 1e9, pull=lambda k: 1e-9)
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()), cost_model=cheap_pull)
        from repro.core.overlay import Decision

        assert all(
            engine.overlay.decisions[h] is Decision.PULL
            for h in engine.overlay.reader_handles()
        )

    def test_greedy_dataflow_through_engine(self):
        graph = random_graph(20, 80, seed=64)
        engine = EAGrEngine(
            graph, EgoQuery(aggregate=Sum()), dataflow="greedy",
            frequencies=FrequencyModel.zipf(graph.nodes(), seed=65),
        )
        play_and_check(engine, make_events(list(graph.nodes()), 250, seed=66))

    def test_time_window_with_maintainer(self):
        graph = random_graph(15, 50, seed=67)
        query = EgoQuery(aggregate=Sum(), window=TimeWindow(20.0))
        engine = EAGrEngine(graph, query)
        play_and_check(engine, make_events(list(graph.nodes()), 150, seed=68))
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 0, 2))
        # Timestamps must stay globally monotone across batches.
        second = [
            WriteEvent(e.node, e.value, e.timestamp + 200.0)
            if isinstance(e, WriteEvent)
            else ReadEvent(e.node, e.timestamp + 200.0)
            for e in make_events(list(graph.nodes()), 150, seed=69)
        ]
        play_and_check(engine, second)

    def test_counters_accumulate(self):
        graph = paper_figure1()
        engine = EAGrEngine(graph, EgoQuery(aggregate=Sum()))
        for _ in range(5):
            engine.write("c", 1.0)
            engine.read("a")
        assert engine.counters.writes == 5
        assert engine.counters.reads == 5
        assert engine.counters.events == 10

    def test_overlay_params_pass_through(self):
        graph = paper_figure1()
        engine = EAGrEngine(
            graph, EgoQuery(aggregate=Sum()), overlay_algorithm="vnm_a",
            overlay_params={"iterations": 1, "chunk_size": 4},
        )
        assert engine.construction.config.chunk_size == 4
        assert len(engine.construction.stats) <= 1
