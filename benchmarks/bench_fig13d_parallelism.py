"""Figure 13(d) — throughput vs number of threads.

Paper's series: TOP-K throughput at write:read 1:1 on LiveJournal as the
serving threads sweep 1..48 for all-pull, all-push, and the decided overlay
— rising until ~24 (their core count) then plateauing.

Substitution: CPython's GIL makes real-thread CPU scaling impossible, so
the sweep runs on :class:`SimulatedExecutor`, a discrete-event simulation
of the paper's hybrid threading model (Section 2.2.2).  It schedules one
task of micro-ops per event across M virtual workers with per-node locks
and a serial dispatcher — the same contention sources as the paper's
implementation.  The tasks are derived, not traced: :func:`collect_tasks`
runs each event on the engine and reads the micro-ops the runtime
performed off the compiled overlay (a write's push DFS when the writer
moved, a read's pull walk).  Throughput rises near-linearly while work is
available and plateaus when dispatch and lock contention dominate, the
published shape.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from benchmarks._common import bench_graph, build_engine, emit_table, workload
from repro.core.engine import EAGrEngine
from repro.core.overlay import Decision, Overlay
from repro.core.windows import TimeWindow
from repro.dataflow.costs import CostModel
from repro.graph.streams import ReadEvent, WriteEvent

THREADS = (1, 2, 4, 8, 16, 24, 32, 48)
NUM_EVENTS = 4_000


class TraceOp(NamedTuple):
    """One micro-operation of a simulated task."""

    handle: int
    kind: str  # "write" | "push" | "pull" | "read"
    fan_in: int


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run."""

    workers: int
    tasks: int
    makespan: float
    throughput: float
    total_work: float

    @property
    def utilization(self) -> float:
        """Fraction of worker-time spent doing useful work."""
        if self.makespan <= 0 or self.workers == 0:
            return 0.0
        return self.total_work / (self.makespan * self.workers)


def op_cost(op: TraceOp, cost_model: CostModel) -> float:
    """Cost of one micro-operation under the query's cost model."""
    if op.kind == "push":
        return cost_model.push_cost(op.fan_in)
    if op.kind == "pull":
        return cost_model.pull_cost(op.fan_in)
    if op.kind == "write":
        return 1.0
    return 0.5  # "read" on a push node: finalize only


def push_ops(overlay: Overlay, writer: int) -> List[TraceOp]:
    """The pushes of a write that moved ``writer``: the stack DFS of
    ``Runtime.propagate_from`` over ``overlay.out_rows``, which stops at
    pull nodes.  A group aggregate pushes every message on, so the DFS
    depends on the overlay alone."""
    ops: List[TraceOp] = []
    stack = [writer]
    while stack:
        node = stack.pop()
        for dst in overlay.out_rows(node)[0]:
            if overlay.decisions[dst] is Decision.PUSH:
                ops.append(TraceOp(dst, "push", overlay.fan_in(dst)))
                stack.append(dst)
    return ops


def pull_ops(overlay: Overlay, reader: int) -> List[TraceOp]:
    """The pulls of one read at pull ``reader``: its pull nodes in
    pre-order, inputs in input order, a node shared by two paths once per
    path — the ENTER ops of the reader's compiled pull plan."""
    ops: List[TraceOp] = []
    stack = [reader]
    while stack:
        node = stack.pop()
        ops.append(TraceOp(node, "pull", overlay.fan_in(node)))
        stack.extend(
            src
            for src in reversed(overlay.in_rows(node)[0])
            if overlay.decisions[src] is not Decision.PUSH
        )
    return ops


def collect_tasks(engine: EAGrEngine, events: Sequence) -> List[List[TraceOp]]:
    """Execute ``events`` on ``engine``, one task per event.

    Each task lists the micro-operations the event cost, derived from the
    overlay the event ran on: ``write(w)`` then, if the write moved writer
    ``w``, its :func:`push_ops`; ``read(h)`` at a push reader, the
    :func:`pull_ops` of a pull reader; nothing for a node no overlay node
    stands for.  Lattice aggregates and time windows are rejected: a
    lattice push stops where a value stops changing, and a time window
    expires values inside any event, so their micro-ops depend on the data.
    """
    query = engine.query
    if not query.aggregate.subtractable:
        raise ValueError("lattice aggregates stop their pushes on the data")
    if isinstance(query.window, TimeWindow):
        raise ValueError("time windows expire values inside any event")
    tasks: List[List[TraceOp]] = []
    for event in events:
        # A lazy recompile would replace engine.runtime (and its overlay)
        # inside the event call; settle it first.  The ops are read off
        # the overlay before the event, which an adaptive controller may
        # re-decide once the event is done.
        engine._sync()
        runtime = engine.runtime
        overlay = runtime.overlay
        if isinstance(event, WriteEvent):
            handle = overlay.writer_of.get(event.node)
            task = []
            if handle is not None:
                task.append(TraceOp(handle, "write", 1))
                pushes = push_ops(overlay, handle)
            runtime.pop_changed_writers()
            engine.write(event.node, event.value, event.timestamp)
            if handle is not None and handle in runtime.pop_changed_writers():
                task.extend(pushes)
        elif isinstance(event, ReadEvent):
            handle = overlay.reader_of.get(event.node)
            if handle is None:
                task = []
            elif overlay.decisions[handle] is Decision.PUSH:
                task = [TraceOp(handle, "read", 1)]
            else:
                task = pull_ops(overlay, handle)
            engine.read(event.node)
        else:
            raise TypeError("collect_tasks handles read/write events only")
        tasks.append(task)
    return tasks


class SimulatedExecutor:
    """Discrete-event scheduler of micro-op tasks over M virtual workers.

    Model: a serial dispatcher hands each task to the earliest-free worker
    (``dispatch_overhead`` time units each — the synchronization cost that
    caps scaling); within a task, micro-ops run in order, each requiring
    exclusive access to its overlay node (per-node lock serialization, so
    hot aggregation nodes become contention points exactly as in the real
    system).
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        dispatch_overhead: float = 0.05,
    ) -> None:
        self.cost_model = cost_model or CostModel.constant_linear()
        self.dispatch_overhead = dispatch_overhead

    def run(self, tasks: Sequence[Sequence[TraceOp]], workers: int) -> SimulationResult:
        """Schedule ``tasks`` on ``workers`` virtual cores; returns metrics."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        worker_free = [0.0] * workers
        node_free: Dict[int, float] = {}
        dispatch_clock = 0.0
        total_work = 0.0
        heap = [(0.0, w) for w in range(workers)]
        heapq.heapify(heap)
        for task in tasks:
            dispatch_clock += self.dispatch_overhead
            free_at, worker = heapq.heappop(heap)
            t = max(free_at, dispatch_clock)
            for op in task:
                duration = op_cost(op, self.cost_model)
                start = max(t, node_free.get(op.handle, 0.0))
                t = start + duration
                node_free[op.handle] = t
                total_work += duration
            worker_free[worker] = t
            heapq.heappush(heap, (t, worker))
        makespan = max(max(worker_free), dispatch_clock) if tasks else 0.0
        throughput = len(tasks) / makespan if makespan > 0 else 0.0
        return SimulationResult(
            workers=workers,
            tasks=len(tasks),
            makespan=makespan,
            throughput=throughput,
            total_work=total_work,
        )

    def sweep(
        self, tasks: Sequence[Sequence[TraceOp]], worker_counts: Sequence[int]
    ) -> List[SimulationResult]:
        """Run the same task trace at several worker counts (Figure 13(d))."""
        return [self.run(tasks, workers) for workers in worker_counts]


def trace_tasks(graph, dataflow):
    engine = build_engine(
        graph, aggregate_name="topk", algorithm="vnm_a", dataflow=dataflow,
        window=2,
    )
    events = workload(graph, NUM_EVENTS, write_read_ratio=1.0, seed=47)
    return collect_tasks(engine, events)


def test_fig13d_parallel_scaling(benchmark):
    graph = bench_graph("livejournal-small", scale=0.25)
    executor = SimulatedExecutor(dispatch_overhead=0.08)
    rows = []
    series = {}
    main_tasks = None
    for name, dataflow in (
        ("vnm_a-topk", "mincut"),
        ("all-push-topk", "all_push"),
        ("all-pull-topk", "all_pull"),
    ):
        tasks = trace_tasks(graph, dataflow)
        if name == "vnm_a-topk":
            main_tasks = tasks
        results = executor.sweep(tasks, THREADS)
        throughputs = [r.throughput for r in results]
        series[name] = throughputs
        rows.append([name] + [f"{t:,.2f}" for t in throughputs])
    # The paper's "VNMA-topK-Ideal" reference: perfect work-conserving
    # scaling of the decided overlay's task trace (no locks, no dispatcher).
    total_work = sum(
        sum(op_cost(op, executor.cost_model) for op in task) for task in main_tasks
    )
    ideal = [len(main_tasks) * workers / total_work for workers in THREADS]
    rows.insert(0, ["vnm_a-topk-ideal"] + [f"{t:,.2f}" for t in ideal])
    emit_table(
        "fig13d_parallelism",
        "Figure 13(d): simulated throughput (tasks/time-unit) vs worker threads",
        ["system"] + [f"{t}thr" for t in THREADS],
        rows,
    )

    # Shape (paper): every system rises near-linearly at first, then
    # plateaus from synchronization overheads, falling away from the ideal
    # line; absolute ordering between systems at saturation is workload
    # dependent (the paper, too, plots the actual VNMA line below others).
    for name, values in series.items():
        assert values[1] > values[0] * 1.3, name  # early near-linear scaling
        knee = THREADS.index(24)
        assert values[-1] < values[knee] * 1.6, name  # saturation after knee
    main = series["vnm_a-topk"]
    assert main[-1] < ideal[-1]  # contention keeps reality under ideal

    subset = main_tasks[:1500]
    benchmark.pedantic(lambda: executor.sweep(subset, (1, 8, 24)), rounds=2, iterations=1)
