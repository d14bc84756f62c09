"""Tests for the simulated multi-core executor behind Figure 13(d).

The simulator and its task derivation live beside their figure, in
``benchmarks/bench_fig13d_parallelism.py``; these tests keep them in the
tier-1 suite.
"""

import hashlib

import pytest

from benchmarks._common import bench_graph, build_engine as build_bench_engine, workload
from benchmarks.bench_fig13d_parallelism import (
    SimulatedExecutor,
    TraceOp,
    collect_tasks,
    op_cost,
)
from repro.core.aggregates import Max, Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TimeWindow
from repro.dataflow.costs import CostModel
from repro.graph.generators import paper_figure1
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import ReadEvent, WriteEvent

from tests.conftest import make_events


def build_engine(**kwargs):
    query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors())
    return EAGrEngine(paper_figure1(), query, overlay_algorithm="vnm_a", **kwargs)


class TestSimulatedExecutor:
    def make_tasks(self, count=400):
        engine = build_engine(dataflow="mincut")
        events = make_events(list("abcdefg"), count, seed=42)
        return collect_tasks(engine, events)

    def test_one_task_per_event(self):
        tasks = self.make_tasks(100)
        assert len(tasks) == 100

    def test_throughput_rises_then_plateaus(self):
        tasks = self.make_tasks()
        executor = SimulatedExecutor(dispatch_overhead=0.2)
        results = executor.sweep(tasks, [1, 2, 4, 8, 16, 48])
        throughputs = [r.throughput for r in results]
        assert throughputs[1] > throughputs[0] * 1.3  # near-linear at first
        # Saturated region: adding workers past the knee buys almost nothing.
        assert throughputs[-1] < throughputs[-2] * 1.5

    def test_makespan_decreases_with_workers(self):
        tasks = self.make_tasks(200)
        executor = SimulatedExecutor(dispatch_overhead=0.01)
        one = executor.run(tasks, 1)
        four = executor.run(tasks, 4)
        assert four.makespan < one.makespan
        assert one.total_work == pytest.approx(four.total_work)

    def test_utilization_bounded(self):
        tasks = self.make_tasks(100)
        result = SimulatedExecutor().run(tasks, 4)
        assert 0.0 < result.utilization <= 1.0

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            SimulatedExecutor().run([], 0)

    def test_op_costs_follow_model(self):
        model = CostModel.constant_linear(push_unit=2.0, pull_unit=3.0)
        assert op_cost(TraceOp(0, "push", 5), model) == 2.0
        assert op_cost(TraceOp(0, "pull", 5), model) == 15.0
        assert op_cost(TraceOp(0, "write", 1), model) == 1.0
        assert op_cost(TraceOp(0, "read", 1), model) == 0.5

    def test_empty_tasks(self):
        result = SimulatedExecutor().run([], 4)
        assert result.throughput == 0.0


def task_digest(tasks):
    rows = [[(op.handle, op.kind, op.fan_in) for op in task] for task in tasks]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestCollectTasks:
    """The derived tasks are the micro-ops the runtime used to record as
    it ran (``Runtime(collect_trace=True)``): the digests below were taken
    from that live trace, so they pin each op's handle, kind and fan-in
    and the op order within every task."""

    def test_figure1_sum_digest(self):
        tasks = TestSimulatedExecutor().make_tasks(400)
        assert task_digest(tasks) == (
            "8411de30745b20b5523e7d4b178aba2dbb22b44f796b64c4fdd391ac396d87bc"
        )

    @pytest.mark.parametrize(
        "dataflow, expected",
        [
            pytest.param(
                "mincut",
                "6791912ed3014b0dce9b149db3f382e1d068ae2243c5c6957b533d195e6e6fbc",
                id="mincut",
            ),
            pytest.param(
                "all_push",
                "0b02c37adffb2e7982f2430687f52cd9abcad44fa51f2fca6d03801c0f5cedf9",
                id="all_push",
            ),
            pytest.param(
                "all_pull",
                "32bf49b0ea7a577cddb72af5bee2adacbca92fbee35f0ceec07b0babde6d7082",
                id="all_pull",
            ),
        ],
    )
    def test_topk_digest(self, dataflow, expected):
        # Figure 13(d)'s configuration on a 75-node graph.
        graph = bench_graph("livejournal-small", scale=0.05)
        engine = build_bench_engine(
            graph, aggregate_name="topk", algorithm="vnm_a", dataflow=dataflow,
            window=2,
        )
        events = workload(graph, 600, write_read_ratio=1.0, seed=47)
        assert task_digest(collect_tasks(engine, events)) == expected

    def test_unknown_nodes_cost_nothing(self):
        engine = build_engine()
        tasks = collect_tasks(
            engine, [WriteEvent("ghost", 1.0, 1.0), ReadEvent("ghost", 2.0)]
        )
        assert tasks == [[], []]

    def test_data_dependent_pushes_are_rejected(self):
        lattice = EgoQuery(aggregate=Max(), neighborhood=Neighborhood.in_neighbors())
        timed = EgoQuery(
            aggregate=Sum(), window=TimeWindow(5.0),
            neighborhood=Neighborhood.in_neighbors(),
        )
        for query in (lattice, timed):
            engine = EAGrEngine(paper_figure1(), query, overlay_algorithm="vnm_a")
            with pytest.raises(ValueError):
                collect_tasks(engine, [WriteEvent("a", 1.0, 1.0)])
