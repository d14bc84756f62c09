"""Figure 14(a) — the headline end-to-end throughput comparison.

Paper's series: throughput vs write:read ratio (0.05 … 20) for SUM, MAX and
TOP-K, comparing all-push, all-pull, VNM_A, VNM_N, VNM_D and IOB overlays on
LiveJournal.  Expected shape:

* overlay-based execution beats the best baseline at every ratio (paper:
  ~5-6x at ratio ≈ 1, orders of magnitude over all-pull on read-heavy ends);
* all-pull wins the write-heavy end *among baselines* and all-push the
  read-heavy end;
* gains are largest for TOP-K (expensive aggregation dominates runtime,
  which is exactly what sharing removes);
* IOB's deeper overlays make it the slowest overlay despite the best SI.
"""

import pytest

from benchmarks._common import (
    SYSTEMS,
    bench_graph,
    build_engine,
    emit_table,
    engine_cost_model,
    measure_throughput,
    run_workload,
    workload,
)
from repro.dataflow import CostModel

RATIOS = (0.05, 0.2, 1.0, 5.0, 20.0)
AGGREGATES = ("sum", "max", "topk")
NUM_EVENTS = 4_000


def systems_for(aggregate: str):
    for name, algorithm, dataflow in SYSTEMS:
        if algorithm == "vnm_d" and aggregate != "max":
            continue  # duplicate-path overlays only for duplicate-insensitive F
        if algorithm == "vnm_n" and aggregate == "max":
            continue  # negative edges need subtraction
        yield name, algorithm, dataflow


def test_fig14a_end_to_end_throughput(benchmark):
    graph = bench_graph("livejournal-small", scale=0.25)
    throughput = {}
    work = {}  # aggregate-op counts: deterministic, machine-independent
    for aggregate in AGGREGATES:
        # The wall-clock rows run on decisions costed with this machine's
        # timings.  The work table runs on decisions costed in the units it
        # counts, one per push and one per pulled input (H = 1, L = k),
        # which no timing moves, so every run counts the same.
        timed_model = engine_cost_model(graph, aggregate)
        fixed_model = CostModel.constant_linear()
        rows, work_rows = [], []
        for name, algorithm, dataflow in systems_for(aggregate):
            cells, work_cells = [], []
            for ratio in RATIOS:
                events = workload(
                    graph, NUM_EVENTS, write_read_ratio=ratio, seed=int(ratio * 100)
                )
                timed, counted = (
                    build_engine(
                        graph, aggregate_name=aggregate, algorithm=algorithm,
                        dataflow=dataflow, events=events, cost_model=model,
                    )
                    for model in (timed_model, fixed_model)
                )
                value = measure_throughput(timed, events)
                run_workload(counted, events)
                throughput[(aggregate, name, ratio)] = value
                work[(aggregate, name, ratio)] = counted.counters.work
                cells.append(f"{value:,.0f}")
                work_cells.append(f"{counted.counters.work:,}")
            rows.append([name] + cells)
            work_rows.append([name] + work_cells)
        emit_table(
            f"fig14a_throughput_{aggregate}",
            f"Figure 14(a) [{aggregate.upper()}]: throughput (events/s) vs write:read ratio",
            ["system"] + [f"w:r={r}" for r in RATIOS],
            rows,
        )
        emit_table(
            f"fig14a_work_{aggregate}",
            f"Figure 14(a) [{aggregate.upper()}]: aggregate operations vs write:read ratio",
            ["system"] + [f"w:r={r}" for r in RATIOS],
            work_rows,
        )

    # -- shape assertions -----------------------------------------------
    # Wall-clock throughput (reported above) fluctuates ±20% under load;
    # the figure's *mechanism* — aggregate operations saved — is
    # deterministic, so the shape is asserted on work counters.
    def least_overlay_work(aggregate, ratio):
        names = [n for n, a, _ in systems_for(aggregate) if a != "identity"]
        return min(work[(aggregate, n, ratio)] for n in names)

    for aggregate in AGGREGATES:
        for ratio in RATIOS:
            pull_work = work[(aggregate, "all-pull", ratio)]
            push_work = work[(aggregate, "all-push", ratio)]
            # The best overlay does the least work at middle ratios; at the
            # extremes everything degenerates to O(1) per event and the
            # decided overlay (which optimizes *weighted* cost, not raw op
            # count) may sit a few percent above the matching baseline.
            slack = 1.02 if 0.1 < ratio < 10 else 1.15
            assert least_overlay_work(aggregate, ratio) <= min(
                pull_work, push_work
            ) * slack, (aggregate, ratio)
        # Baseline crossover in work terms: all-push does less work on the
        # read-heavy end, all-pull on the write-heavy end.
        assert work[(aggregate, "all-push", RATIOS[0])] < work[
            (aggregate, "all-pull", RATIOS[0])
        ]
        assert work[(aggregate, "all-pull", RATIOS[-1])] < work[
            (aggregate, "all-push", RATIOS[-1])
        ]

    # At ratio 1 the work saving is substantial, for cheap and expensive
    # aggregates alike.
    def saving(aggregate):
        baseline = min(
            work[(aggregate, "all-pull", 1.0)],
            work[(aggregate, "all-push", 1.0)],
        )
        return baseline / max(1, least_overlay_work(aggregate, 1.0))

    assert saving("sum") > 1.3
    assert saving("topk") > 1.3

    events = workload(graph, 1500, write_read_ratio=1.0, seed=5)
    engine = build_engine(graph, aggregate_name="sum", algorithm="vnm_a", events=events)
    benchmark.pedantic(lambda: measure_throughput(engine, events), rounds=2, iterations=1)
