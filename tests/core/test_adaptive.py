"""Unit tests for the adaptive dataflow controller (Section 4.8).

A bare :class:`Runtime` does not feed a controller: the tests below hand
it each event's node the way the engine does, after the runtime ran it.
"""

import pytest

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.execution import Runtime
from repro.core.overlay import Decision, Overlay
from repro.core.query import EgoQuery
from repro.dataflow.costs import CostModel
from repro.graph.generators import paper_figure1, random_graph
from repro.graph.neighborhoods import Neighborhood

from tests.conftest import make_events, play_and_check


def small_runtime(all_push=False):
    ov = Overlay()
    w = {n: ov.add_writer(n) for n in ("w1", "w2")}
    r = ov.add_reader("r")
    pa = ov.add_partial()
    ov.add_edge(w["w1"], pa)
    ov.add_edge(w["w2"], pa)
    ov.add_edge(pa, r)
    if all_push:
        ov.set_all_decisions(Decision.PUSH)
    rt = Runtime(ov, EgoQuery(aggregate=Sum()))
    return rt, pa, r


def write(rt, controller, node, value):
    rt.write(node, value)
    controller.count_writes((node,))


def read(rt, controller, node):
    result = rt.read(node)
    controller.count_reads((node,))
    return result


class TestFrontier:
    def test_pull_node_with_push_inputs_is_frontier(self):
        rt, pa, r = small_runtime()
        controller = AdaptiveController(rt)
        assert pa in controller.frontier()
        assert r not in controller.frontier()  # its input pa is pull

    def test_push_reader_is_frontier(self):
        rt, pa, r = small_runtime(all_push=True)
        controller = AdaptiveController(rt)
        frontier = controller.frontier()
        assert r in frontier  # push node, no consumers
        assert pa not in frontier  # its consumer r is push


#: No evaluation but the ones a test calls.
NEVER = 10**9


class TestFlips:
    def config(self, check_interval=NEVER):
        return AdaptiveConfig(
            check_interval=check_interval, hysteresis=1.1, min_observations=4
        )

    def test_read_heavy_flips_to_push(self):
        rt, pa, r = small_runtime()
        controller = AdaptiveController(rt, CostModel.constant_linear(), self.config())
        write(rt, controller, "w1", 1.0)
        for _ in range(30):
            read(rt, controller, "r")
        flips = controller.evaluate()
        assert flips >= 1
        assert rt.overlay.decisions[pa] is Decision.PUSH
        # next round the reader becomes the frontier and flips too
        for _ in range(30):
            read(rt, controller, "r")
        controller.evaluate()
        assert rt.overlay.decisions[r] is Decision.PUSH
        assert rt.read("r") == 1.0

    def test_write_heavy_flips_to_pull(self):
        rt, pa, r = small_runtime(all_push=True)
        controller = AdaptiveController(rt, CostModel.constant_linear(), self.config())
        for i in range(40):
            write(rt, controller, "w1", float(i))
        controller.evaluate()
        assert rt.overlay.decisions[r] is Decision.PULL
        controller.evaluate()  # pa now exposed on the frontier
        for i in range(40):
            write(rt, controller, "w2", float(i))
        controller.evaluate()
        assert rt.overlay.decisions[pa] is Decision.PULL
        assert rt.read("r") == 39.0 + 39.0

    def test_min_observations_blocks_flip(self):
        rt, pa, r = small_runtime()
        config = AdaptiveConfig(check_interval=NEVER, min_observations=1000)
        controller = AdaptiveController(rt, config=config)
        for _ in range(20):
            read(rt, controller, "r")
        assert controller.evaluate() == 0

    def test_hysteresis_blocks_marginal_flip(self):
        # 30 would-be pushes (cost 30·H=30) vs 20 pulls (cost 20·L(2)=40):
        # a marginal win for push, blocked by a large hysteresis factor.
        rt, pa, r = small_runtime()
        config = AdaptiveConfig(check_interval=NEVER, hysteresis=100.0, min_observations=1)
        controller = AdaptiveController(rt, config=config)
        for i in range(30):
            write(rt, controller, "w1", float(i))
        for _ in range(20):
            read(rt, controller, "r")
        assert controller.evaluate() == 0
        # The same observations flip once the hysteresis is small.
        relaxed = AdaptiveController(
            rt, config=AdaptiveConfig(check_interval=NEVER, hysteresis=1.05, min_observations=1)
        )
        relaxed.count_writes(["w1"] * 30)
        relaxed.count_reads(["r"] * 20)
        assert relaxed.evaluate() >= 1

    def test_decisions_stay_consistent(self):
        rt, pa, r = small_runtime()
        controller = AdaptiveController(
            rt, CostModel.constant_linear(), self.config(check_interval=10)
        )
        for i in range(25):
            write(rt, controller, "w1", float(i))
            read(rt, controller, "r")
        assert controller.flips  # the interval ran evaluations that flipped
        assert rt.overlay.decisions_consistent()


class TestEngineIntegration:
    def test_adaptive_engine_correctness_under_drift(self):
        graph = random_graph(25, 100, seed=21)
        query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors())
        engine = EAGrEngine(
            graph, query, overlay_algorithm="vnm_a", adaptive=True,
            adaptive_config=AdaptiveConfig(check_interval=50, min_observations=3),
        )
        nodes = list(graph.nodes())
        # Phase 1 write-heavy, phase 2 read-heavy: results stay correct.
        play_and_check(engine, make_events(nodes, 300, write_fraction=0.9, seed=31))
        play_and_check(engine, make_events(nodes, 300, write_fraction=0.1, seed=32))
        assert engine.overlay.decisions_consistent()

    def test_adaptation_reduces_work(self):
        graph = paper_figure1()
        query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors())
        nodes = list(graph.nodes())
        # Decisions were made for write-heavy; the workload is read-heavy.
        from repro.dataflow.frequencies import FrequencyModel

        stale = FrequencyModel.uniform(nodes, read=0.01, write=10.0)
        events = make_events(nodes, 2000, write_fraction=0.05, seed=33)

        static = EAGrEngine(graph, query, frequencies=stale)
        play_and_check(static, events)
        adaptive = EAGrEngine(
            graph, query, frequencies=stale, adaptive=True,
            adaptive_config=AdaptiveConfig(check_interval=100, min_observations=4),
        )
        play_and_check(adaptive, events)
        static_work = static.counters.work
        adaptive_work = adaptive.counters.work
        assert adaptive_work < static_work
