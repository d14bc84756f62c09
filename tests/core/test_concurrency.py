"""Tests for the simulated multi-core executor behind Figure 13(d).

The simulator lives beside its figure, in
``benchmarks/bench_fig13d_parallelism.py``; these tests keep it in the
tier-1 suite.
"""

import pytest

from benchmarks.bench_fig13d_parallelism import (
    SimulatedExecutor,
    collect_tasks,
    op_cost,
)
from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.execution import TraceOp
from repro.core.query import EgoQuery
from repro.dataflow.costs import CostModel
from repro.graph.generators import paper_figure1
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import WriteEvent

from tests.conftest import make_events


def build_engine(**kwargs):
    query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors())
    return EAGrEngine(paper_figure1(), query, overlay_algorithm="vnm_a", **kwargs)


class TestSimulatedExecutor:
    def make_tasks(self, count=400):
        engine = build_engine(collect_trace=True, dataflow="mincut")
        events = make_events(list("abcdefg"), count, seed=42)
        return collect_tasks(engine, events)

    def test_collect_tasks_requires_trace(self):
        engine = build_engine()
        with pytest.raises(ValueError):
            collect_tasks(engine, [WriteEvent("a", 1.0)])

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
