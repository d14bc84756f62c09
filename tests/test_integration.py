"""End-to-end integration tests tying the whole pipeline together.

Beyond per-read correctness (covered by the oracle tests), these verify the
paper's *systems* claims at a work-count level — counting aggregate
operations instead of wall time, so they stay robust on any machine:

* the shared overlay performs strictly less work than the no-sharing
  baselines on balanced workloads (the Figure 14 mechanism),
* decided dataflow beats all-push on write-heavy and all-pull on read-heavy
  workloads (the Figure 13(b) mechanism),
* the full feature stack (sharing + splitting + adaptivity + maintenance)
  composes without breaking correctness.
"""

import pytest

from repro.core.aggregates import Max, Sum, TopK
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery, QueryMode
from repro.core.windows import TimeWindow, TupleWindow
from repro.dataflow.frequencies import FrequencyModel
from repro.graph.generators import community_graph, social_graph, web_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.workload import WorkloadSpec, generate_events, warmup_writes

from tests.conftest import make_events, play_and_check


@pytest.fixture(scope="module")
def web():
    return web_graph(300, 6, copy_probability=0.95, seed=4)


def run(engine, events):
    for event in events:
        if hasattr(event, "value"):
            engine.write(event.node, event.value, event.timestamp)
        else:
            engine.read(event.node)
    return engine.counters


class TestWorkSavings:
    def make(self, graph, algorithm, dataflow, ratio=1.0):
        nodes = list(graph.nodes())
        query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors())
        frequencies = FrequencyModel.uniform(
            nodes, read=1.0 / (1.0 + ratio), write=ratio / (1.0 + ratio)
        )
        return EAGrEngine(
            graph, query, overlay_algorithm=algorithm, dataflow=dataflow,
            frequencies=frequencies,
        )

    def test_overlay_beats_both_baselines_at_ratio_one(self, web):
        nodes = list(web.nodes())
        events = generate_events(nodes, WorkloadSpec(num_events=4000, seed=3))
        work = {}
        for name, algorithm, dataflow in (
            ("all-pull", "identity", "all_pull"),
            ("all-push", "identity", "all_push"),
            ("eagr", "vnm_a", "mincut"),
        ):
            counters = run(self.make(web, algorithm, dataflow), events)
            work[name] = counters.work
        assert work["eagr"] < work["all-pull"]
        assert work["eagr"] < work["all-push"]

    def test_decided_overlay_beats_forced_overlay_decisions(self, web):
        nodes = list(web.nodes())
        events = generate_events(nodes, WorkloadSpec(num_events=4000, seed=5))
        work = {}
        for dataflow in ("all_push", "all_pull", "mincut"):
            counters = run(self.make(web, "vnm_a", dataflow), events)
            work[dataflow] = counters.work
        assert work["mincut"] <= min(work["all_push"], work["all_pull"])

    def test_crossover_with_ratio(self, web):
        """All-pull wins write-heavy, all-push wins read-heavy (Fig 14(a))."""
        nodes = list(web.nodes())
        write_heavy = generate_events(
            nodes, num_events=3000, write_read_ratio=20.0, seed=6
        )
        read_heavy = generate_events(
            nodes, num_events=3000, write_read_ratio=0.05, seed=7
        )
        pull = self.make(web, "identity", "all_pull")
        push = self.make(web, "identity", "all_push")
        assert run(pull, write_heavy).work < run(push, write_heavy).work
        pull2 = self.make(web, "identity", "all_pull")
        push2 = self.make(web, "identity", "all_push")
        assert run(push2, read_heavy).work < run(pull2, read_heavy).work


class TestFullStackComposition:
    def test_everything_on_at_once(self):
        graph = community_graph(num_communities=4, community_size=12, seed=9)
        nodes = list(graph.nodes())
        query = EgoQuery(
            aggregate=TopK(3), window=TupleWindow(3),
            neighborhood=Neighborhood.in_neighbors(),
        )
        engine = EAGrEngine(
            graph, query, overlay_algorithm="vnm_n",
            frequencies=FrequencyModel.zipf(nodes, seed=10),
            enable_splitting=True, adaptive=True,
        )
        play_and_check(engine, make_events(nodes, 400, seed=11, vocabulary=6))
        engine.apply_structure_event(StructureEvent(StructureOp.ADD_EDGE, 0, 30))
        engine.apply_structure_event(StructureEvent(StructureOp.REMOVE_NODE, 17))
        play_and_check(
            engine,
            make_events([n for n in nodes if n != 17], 400, seed=12, vocabulary=6),
        )

    def test_continuous_mode_end_to_end(self):
        graph = social_graph(120, 5, seed=13)
        nodes = list(graph.nodes())
        query = EgoQuery(
            aggregate=Sum(), neighborhood=Neighborhood.in_neighbors(),
            mode=QueryMode.CONTINUOUS,
        )
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        play_and_check(engine, make_events(nodes, 500, seed=14))
        # Continuous: every read is answered from materialized state.
        assert engine.counters.pull_ops == 0

    def test_time_window_quickstart_scenario(self):
        graph = social_graph(100, 5, seed=15)
        nodes = list(graph.nodes())
        query = EgoQuery(
            aggregate=Mean() if False else Sum(), window=TimeWindow(50.0),
        )
        engine = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
        play_and_check(engine, make_events(nodes, 600, seed=16))

    def test_max_on_web_graph_with_vnm_d(self, web):
        nodes = list(web.nodes())
        query = EgoQuery(aggregate=Max(), window=TupleWindow(2))
        engine = EAGrEngine(graph=web, query=query, overlay_algorithm="vnm_d")
        assert engine.sharing_index() > 0.2
        play_and_check(engine, make_events(nodes, 500, seed=17))


from repro.core.aggregates import Mean  # noqa: E402  (used above lazily)
