"""Figure 13(c) — read latency vs the push:pull cost ratio.

Paper's series: worst-case, 95th-percentile, and average read latency for
TOP-K as the pull cost (relative to push) grows, on trace-driven activity.
Raising the pull cost makes the optimizer favor pushes, so reads touch less
and less on-demand work.  Expected shape: all three latency series fall
(then flatten) as the cost ratio rises; worst cases stay low (in-memory, no
distributed traversal).
"""

import pytest

from benchmarks._common import bench_graph, emit_table, run_workload, workload
from repro.core.aggregates import TopK
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.graph.neighborhoods import Neighborhood

PULL_SCALES = (0.25, 1.0, 4.0, 16.0, 64.0)
NUM_EVENTS = 4_000


def build(graph, pull_scale):
    query = EgoQuery(
        aggregate=TopK(3), window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return EAGrEngine(
        graph, query, overlay_algorithm="vnm_a", dataflow="mincut",
        frequencies=FrequencyModel.zipf(
            graph.nodes(), total_events=NUM_EVENTS, write_read_ratio=1.0, seed=41
        ),
        cost_model=CostModel.for_aggregate(TopK(3), pull_scale=pull_scale),
    )


def test_fig13c_latency_vs_cost_ratio(benchmark):
    graph = bench_graph("livejournal-small", scale=0.25)
    events = workload(graph, NUM_EVENTS, write_read_ratio=1.0, seed=43)
    rows = []
    averages = []
    for scale in PULL_SCALES:
        engine = build(graph, scale)
        result = run_workload(engine, events, measure_latency=True)
        averages.append(result.average_read_latency)
        rows.append(
            [
                f"{scale}x",
                f"{result.average_read_latency * 1e6:.1f}",
                f"{result.latency_percentile(95) * 1e6:.1f}",
                f"{result.worst_read_latency * 1e6:.1f}",
            ]
        )
    emit_table(
        "fig13c_latency",
        "Figure 13(c): TOP-K read latency (µs) vs pull:push cost ratio",
        ["pull cost", "average", "p95", "worst"],
        rows,
    )

    # Shape: higher pull cost -> more pre-computation -> lower read latency.
    assert averages[-1] <= averages[0]

    engine = build(graph, 1.0)
    subset = events[:1000]
    benchmark.pedantic(
        lambda: run_workload(engine, subset, measure_latency=True),
        rounds=2, iterations=1,
    )
