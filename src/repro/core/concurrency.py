"""Multi-threaded and simulated parallel execution (Sections 2.2.2, 5.4).

Two executors:

* :class:`ThreadedEngine` implements the paper's hybrid threading model on
  real OS threads: writes use the **queueing model** (micro-tasks at overlay
  node granularity, drained by a write pool under per-node locks), reads use
  the **uni-thread model** (the full pull executes in one thread).  It is
  correct — quiesced state matches single-threaded execution — but, this
  being CPython, the GIL prevents actual CPU scaling.
* :class:`SimulatedExecutor` is the documented substitution for the paper's
  24-core Java measurements (Figure 13(d)): a discrete-event simulation that
  schedules the *same* micro-operation trace the runtime produces onto M
  virtual workers with per-node mutual exclusion and a serial dispatch
  overhead.  Throughput rises near-linearly while work is available and
  plateaus when dispatch and lock contention dominate — the published shape.
"""

from __future__ import annotations

import heapq
import queue
import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.core.engine import EAGrEngine
from repro.core.execution import Runtime, TraceOp, normalize_write
from repro.dataflow.costs import CostModel

NodeId = Hashable


class ThreadedEngine:
    """Thread-pool execution wrapper around an :class:`EAGrEngine`.

    Writes are asynchronous: :meth:`submit_write` enqueues the writer-local
    micro-task and returns; pool workers propagate through the overlay one
    node at a time, locking only the node they touch.  Reads run
    synchronously in the calling thread (the paper's uni-thread read model),
    locking one node at a time — like the paper, we accept the resulting
    mild read-write races ("we ignore the potential for such inconsistencies
    in this work").

    The wrapped engine's value store carries over unchanged: micro-tasks
    read and write PAOs through the store's element protocol, which is
    backend-agnostic (numpy columns or object lists), so a ThreadedEngine
    composes with either backend — the global batch scatter is *not* used
    here because per-node locking requires node-granular application.

    Call :meth:`drain` to quiesce before asserting on state, and
    :meth:`shutdown` when done.
    """

    def __init__(self, engine: EAGrEngine, write_threads: int = 2) -> None:
        if write_threads < 1:
            raise ValueError("write_threads must be >= 1")
        self.engine = engine
        self.runtime: Runtime = engine.runtime
        self._locks = [threading.Lock() for _ in range(self.runtime.overlay.num_nodes)]
        self._tasks: "queue.Queue[Optional[Tuple]]" = queue.Queue()
        self._clock_lock = threading.Lock()
        self._closed = False
        # Serializes the closed-check + enqueue against shutdown's flag
        # flip: without it a submission racing close() could land behind
        # the worker sentinels — silently dropped, and a later drain()
        # would block forever on its unfinished-task count.
        self._submit_lock = threading.Lock()
        # Writer handles touched by accepted submissions; changed_readers()
        # hands them to the runtime's changed_handles().
        self._touched_writers: Dict[int, None] = {}
        self._touched_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker, daemon=True)
            for _ in range(write_threads)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def value_store_backend(self) -> str:
        """Backend of the wrapped runtime's value store (same name and
        meaning as :attr:`EAGrEngine.value_store_backend`)."""
        return self.runtime.values.backend

    # -- write path (queueing model) -------------------------------------

    def submit_write(
        self, node: NodeId, value: Any, timestamp: Optional[float] = None
    ) -> None:
        """Enqueue a write; pool workers process it asynchronously."""
        self._track_writer(node)
        with self._submit_lock:
            self._check_open()
            self._tasks.put(("write", node, value, timestamp))

    def submit_write_batch(self, writes: Sequence) -> None:
        """Enqueue a batch of writes as one micro-task.

        The worker coalesces same-writer deltas (one ``writer_step`` per
        touched writer under its node lock) before fanning the combined
        messages out as ordinary per-edge push micro-tasks, so a batch
        costs one queue round-trip and one writer-lock acquisition per
        writer instead of per event.
        """
        items = list(writes)
        writer_of = self.runtime.overlay.writer_of
        with self._touched_lock:
            touched = self._touched_writers
            for item in items:
                node = item[0] if item.__class__ is tuple else item.node
                handle = writer_of.get(node)
                if handle is not None:
                    touched[handle] = None
        with self._submit_lock:
            self._check_open()
            self._tasks.put(("write_batch", items))

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ThreadedEngine is closed")

    def _track_writer(self, node: NodeId) -> None:
        handle = self.runtime.overlay.writer_of.get(node)
        if handle is not None:
            with self._touched_lock:
                self._touched_writers[handle] = None

    def write_batch(self, writes: Sequence) -> int:
        """Shard-protocol batch write: accept asynchronously, return count."""
        items = list(writes)
        self.submit_write_batch(items)
        return len(items)

    def _worker(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                self._tasks.task_done()
                return
            try:
                if task[0] == "write":
                    self._do_write(task[1], task[2], task[3])
                elif task[0] == "write_batch":
                    self._do_write_batch(task[1])
                else:
                    self._do_push(task[1], task[2], task[3])
            finally:
                self._tasks.task_done()

    def _do_write(self, node: NodeId, value: Any, timestamp: Optional[float]) -> None:
        runtime = self.runtime
        overlay = runtime.overlay
        with self._clock_lock:
            runtime.counters.writes += 1
            runtime.stamp += 1
            if timestamp is None:
                timestamp = runtime.clock + 1.0
            runtime.clock = max(runtime.clock, timestamp)
        handle = overlay.writer_of.get(node)
        if handle is None:
            return
        with self._locks[handle]:
            buffer = runtime.buffers[node]
            evicted = buffer.append(value, timestamp)
            message = runtime.writer_step(handle, [value], evicted)
        if message is None:
            return
        for dst in overlay.outputs[handle]:
            self._tasks.put(("push", handle, dst, message))

    def _do_write_batch(self, writes: Sequence) -> None:
        runtime = self.runtime
        overlay = runtime.overlay
        normalized = []
        with self._clock_lock:
            runtime.stamp += 1  # one ingestion tick per batch task
            for item in writes:
                node, value, timestamp = normalize_write(item)
                runtime.counters.writes += 1
                if timestamp is None:
                    timestamp = runtime.clock + 1.0
                runtime.clock = max(runtime.clock, timestamp)
                normalized.append((node, value, timestamp))
        pending: Dict[int, Any] = {}
        for node, value, timestamp in normalized:
            handle = overlay.writer_of.get(node)
            if handle is None:
                continue
            with self._locks[handle]:
                evicted = runtime.buffers[node].append(value, timestamp)
            entry = pending.get(handle)
            if entry is None:
                entry = pending[handle] = ([], [])
            entry[0].append(value)
            entry[1].extend(evicted)
        for handle, (added, evicted) in pending.items():
            with self._locks[handle]:
                message = runtime.writer_step(handle, added, evicted)
            if message is None:
                continue
            for dst in overlay.outputs[handle]:
                self._tasks.put(("push", handle, dst, message))

    def _do_push(self, src: int, dst: int, message: Any) -> None:
        runtime = self.runtime
        with self._locks[dst]:
            outgoing = runtime.apply_push(src, dst, message)
        if outgoing is None:
            return
        for nxt in runtime.overlay.outputs[dst]:
            self._tasks.put(("push", dst, nxt, outgoing))

    # -- read path (uni-thread model) -------------------------------------

    def read(self, node: NodeId) -> Any:
        """Synchronous read (uni-thread model) under per-node locks."""
        runtime = self.runtime
        overlay = runtime.overlay
        agg = runtime.aggregate
        with self._clock_lock:
            runtime.counters.reads += 1
        handle = overlay.reader_of.get(node)
        if handle is None:
            return agg.finalize(agg.identity())
        from repro.core.overlay import Decision

        if overlay.decisions[handle] is Decision.PUSH:
            with self._locks[handle]:
                return agg.finalize(runtime.values[handle])
        return agg.finalize(self._locked_pull(handle))

    def _locked_pull(self, handle: int) -> Any:
        from repro.core.overlay import Decision

        runtime = self.runtime
        overlay = runtime.overlay
        agg = runtime.aggregate
        acc = agg.identity()
        for src, sign in list(overlay.inputs[handle].items()):
            if overlay.decisions[src] is Decision.PUSH:
                with self._locks[src]:
                    value = runtime.values[src]
            else:
                value = self._locked_pull(src)
            acc = agg.merge(acc, value) if sign > 0 else agg.subtract(acc, value)
            runtime.counters.pull_ops += 1
        return acc

    def read_batch(self, nodes: Sequence[NodeId]) -> List[Any]:
        """Shard-protocol batch read: drain pending writes, then read.

        The protocol requires reads to observe every *accepted* write, so
        the queue quiesces first; individual reads then run under the
        usual per-node locks.
        """
        self.drain()
        read = self.read
        return [read(node) for node in nodes]

    def changed_readers(self) -> List[NodeId]:
        """Readers downstream of any writer touched since the last call.

        A *candidate* set (as the shard protocol allows): submission-time
        tracking cannot see which micro-tasks were value no-ops, so every
        reader downstream of a touched writer is reported; consumers diff
        values before acting.  Drains first so reported readers reflect
        fully-applied state.  A view of the runtime's one who-changed
        computation: each reader once, ascending overlay handle.
        """
        self.drain()
        with self._touched_lock:
            touched = list(self._touched_writers)
            self._touched_writers.clear()
        # The runtime's own report (fed by per-event paths) is superseded
        # by submission tracking here; drop it so it cannot grow unbounded.
        self.runtime.pop_changed_writers()
        return self.runtime.changed_readers(touched)

    def changed_report(self):
        """``(stamp, readers)`` — the stamped protocol extension.

        The stamp is the runtime's global write stamp (ingestion tasks
        bump it under the clock lock), monotone for the engine's
        lifetime.  Drains first (via :meth:`changed_readers`) so the
        stamp covers every reader in the report.
        """
        readers = self.changed_readers()
        return self.runtime.stamp, readers

    # -- lifecycle ---------------------------------------------------------

    def drain(self) -> None:
        """Block until every queued write micro-task has completed."""
        self._tasks.join()

    def shutdown(self) -> None:
        """Drain outstanding writes and stop the worker threads.

        Flushes rather than drops: every write accepted before the call is
        applied before the workers exit.  Idempotent.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        # Every submission either enqueued before the flag flipped (the
        # drain below applies it) or observes the flag and raises.
        self.drain()
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=5)

    def close(self) -> None:
        """Shard-protocol alias for :meth:`shutdown` (flush, then stop)."""
        self.shutdown()


# ---------------------------------------------------------------------------
# Simulated multi-core execution (Figure 13(d) substitution)
# ---------------------------------------------------------------------------


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


def collect_tasks(engine: EAGrEngine, events: Sequence) -> List[List[TraceOp]]:
    """Execute ``events`` on a trace-collecting engine, one task per event.

    The engine must have been built with ``collect_trace=True``.  Returns the
    per-event micro-operation lists the simulator schedules.
    """
    from repro.graph.streams import ReadEvent, WriteEvent

    if engine.runtime.trace is None:
        raise ValueError("engine was not built with collect_trace=True")
    tasks: List[List[TraceOp]] = []
    for event in events:
        # A lazy recompile would replace engine.runtime (and its trace)
        # inside the event call; settle it first so the slice below reads
        # the trace list the event actually appends to.
        engine._sync()
        runtime = engine.runtime
        before = len(runtime.trace)
        if isinstance(event, WriteEvent):
            engine.write(event.node, event.value, event.timestamp)
        elif isinstance(event, ReadEvent):
            engine.read(event.node)
        else:
            raise TypeError("collect_tasks handles read/write events only")
        tasks.append(list(runtime.trace[before:]))
    return tasks


def collect_batch_tasks(
    engine: EAGrEngine, events: Sequence, batch_size: int = 64
) -> List[List[TraceOp]]:
    """Like :func:`collect_tasks`, but writes are grouped into batches.

    Consecutive writes (up to ``batch_size``) become ONE task whose
    micro-operations come from a single compiled-plan execution per
    coalesced writer; a read flushes the pending batch first (it must
    observe every prior write) and forms its own task.  This is the task
    granularity a batched ingestion deployment would hand the scheduler.
    """
    from repro.graph.streams import ReadEvent, WriteEvent

    if engine.runtime.trace is None:
        raise ValueError("engine was not built with collect_trace=True")
    tasks: List[List[TraceOp]] = []
    buffered: List = []

    def run_task(action) -> None:
        # Settle any pending lazy recompile first: it would replace
        # engine.runtime (and its trace list) mid-call, making the slice
        # below read the dead trace.
        engine._sync()
        runtime = engine.runtime
        before = len(runtime.trace)
        action()
        tasks.append(list(runtime.trace[before:]))

    def flush() -> None:
        if not buffered:
            return
        run_task(lambda: engine.write_batch(buffered))
        buffered.clear()

    for event in events:
        if isinstance(event, WriteEvent):
            buffered.append(event)
            if len(buffered) >= batch_size:
                flush()
        elif isinstance(event, ReadEvent):
            flush()
            run_task(lambda: engine.read(event.node))
        else:
            raise TypeError("collect_batch_tasks handles read/write events only")
    flush()
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
