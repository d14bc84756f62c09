"""Overlay execution: processing writes and reads (paper Section 2.2.2).

The runtime holds a partial aggregate object (PAO) for every node annotated
*push* and nothing for *pull* nodes.  A write enters at its writer node,
updates the writer's sliding window and PAO, and propagates through
consecutive push nodes; propagation stops at the push/pull frontier.  A read
at a push reader returns its PAO immediately; at a pull reader it pulls PAOs
from upstream, merging (or subtracting, across negative edges) as it goes.

Two propagation strategies, selected by the aggregate's family
(see :mod:`repro.core.aggregates`):

* **group** (subtractable) — updates travel as small *delta* PAOs; applying
  one is O(|delta|), the ``H(k) ∝ 1`` regime;
* **lattice** (MAX-like) — updates travel as ``(old, new)`` pairs; each push
  node keeps its inputs' last values, applies an O(1) fast path when the
  change cannot lower the extremum, and recomputes otherwise.

Compiled propagation plans
--------------------------
The hot path no longer traverses the dict-of-dict overlay per event.  Once
dataflow decisions are fixed, the runtime freezes the overlay into CSR
arrays (:meth:`repro.core.overlay.Overlay.to_csr`) and compiles, lazily and
per entry point:

* a **push plan** per writer — for group aggregates, the exact ``(dst,
  cumulative_sign, is_push)`` application sequence the interpreter's DFS
  would perform (group propagation never short-circuits, so the sequence is
  static); for Sum/Count a further scalar specialization applies the delta
  with ``values[dst] += sign * delta``;
* a **pull plan** per pull reader — a flat three-op stack program (LEAF /
  ENTER / EXIT) replaying the recursive pull's merge order exactly, so
  reads run without recursion or dict lookups;
* for lattice aggregates, a per-node **compiled adjacency** (propagation is
  data-dependent, so the DFS survives, but over flat tuples instead of
  dicts).

Plans are cached and invalidated precisely: every plan registers the
handles it touches in a dependency index, and structural or decision
changes (overlay dirty set, :meth:`Runtime.set_decision`, rebuilds) drop
only the plans touching the changed handles.  A ``(version,
decision_version)`` stamp check guards against out-of-band overlay
mutation.

The batched entry points :meth:`Runtime.write_batch` /
:meth:`Runtime.read_batch` coalesce same-writer deltas so a batch performs
one plan execution per touched writer instead of one graph traversal per
event.

Columnar value store
--------------------
Aggregate state lives behind a pluggable value store
(:mod:`repro.core.statestore`).  Aggregates that declare a
:class:`~repro.core.aggregates.ColumnSpec` (SUM, COUNT, MEAN as a
``(sum, count)`` column pair, MAX/MIN) keep their PAOs in dense numpy
columns indexed by overlay handle; everything else keeps the seed's
object-list semantics.  On the columnar backend:

* a write batch folds each touched writer's added/evicted run into
  per-column scalar deltas during ingestion, then applies the whole
  batch through a precompiled **scatter table** — one ``np.add.at`` per
  column over ragged per-writer frontier rows — instead of a Python loop
  per plan step;
* for SUM/MEAN over a tuple window the ingestion itself runs in handle
  space: every writer's window is a row of one ring matrix
  (:class:`~repro.core.windows.TupleRing`) and a packed batch folds into
  it in one pass (:meth:`Runtime._write_ring`) — for long batches a
  vectorised kernel (node ids to rows by ``searchsorted``, one stable
  ``argsort``, one ``np.add.at`` over the per-event ``value - old``
  terms), for short ones the same fold as a Python loop;
* reads run in handle space through frozen **pull rows** — each reader's
  pull subtree flattened, on first touch, to its push-frontier leaves and
  their signed coefficients (:mod:`repro.core.pullrows`) — and one kernel
  that maps a whole batch with one gather × coefficient and one
  ``reduceat`` per column (``fmax``/``fmin`` for the lattice extrema).

Backend choice is invisible: reads are byte-identical between backends
for integer streams (asserted by ``tests/core/test_statestore.py``), and
both the scatter table and the pull rows ride the existing dependency
-indexed invalidation, so overlay surgery resizes and remaps columns
through the same dirty-set machinery as the plans.

Changed-reader reporting
------------------------
Every write path records the *handles* of the writers whose value
actually moved (the batch kernels the array they scattered), and
structural changes record the readers whose neighbourhood they altered;
:meth:`Runtime.changed_handles` turns both into the reader *handles*
whose aggregates may have changed.  Each writer's **reader closure** (the
full downstream reader set, push and pull alike, cached and invalidated
through the same dependency index as the plans) is frozen in one arena
over *reader slots* — the readers numbered in ascending handle order
(:mod:`repro.core.closures`) — as an index row of slots, or, for a hub
writer whose index row would outgrow a packed bitset over the slots (and
for every writer of a small overlay), as a bitset row.  A report ORs the
bitset rows, unpacks them once into a slot bitmap, scatters the index
rows into it and reads the set back with one
``flatnonzero`` — deduplicated and in ascending handle order without a
per-writer or per-reader Python step.  :meth:`Runtime.changed_readers` is
that plus one gather through an object array of the overlay's labels
(:meth:`Runtime.labels_of`), so node ids exist only for the handles a
caller keeps: the serving layer (:mod:`repro.serve`) intersects the
handles with its watch mask first and diffs exactly those egos after each
batch, which keeps continuous-subscription notification work O(affected
watched readers) instead of O(subscribers).

The runtime also counts *observed* push and pull frequencies per node —
including would-be pushes blocked at the frontier — which the adaptive
controller (Section 4.8) consumes, and can record a micro-operation trace
for the simulated multi-core executor.
"""

from __future__ import annotations

import heapq
from itertools import chain
from dataclasses import dataclass
from time import monotonic as _monotonic
from operator import attrgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.aggregates import NEED_RECOMPUTE
from repro.core.closures import MISSING, ReaderClosures
from repro.core.overlay import (
    Decision,
    KIND_READER,
    KIND_WRITER,
    NodeKind,
    Overlay,
    OverlayCSR,
    OverlayError,
)
from repro.core.pullrows import PullRows, ragged_index
from repro.core.query import EgoQuery
from repro.core.statestore import WriteFrame, gated_columns, make_value_store
from repro.core.windows import (
    NO_VALUE,
    RingRow,
    TimeWindow,
    TupleRing,
    TupleWindow,
    WindowBuffer,
)

NodeId = Hashable
PAO = Any

#: Pull-plan opcodes: merge a push source, enter a pull node, merge a
#: finished pull node's accumulator into its parent.
_OP_LEAF, _OP_ENTER, _OP_EXIT = 0, 1, 2

#: Plan-kind codes for the dependency-indexed invalidation registry.
_PLAN_PUSH, _PLAN_PULL, _PLAN_ROW, _PLAN_READERS = 0, 1, 2, 3

#: Distinguishes "memo maps this key to None" from "no memo entry".
_MISS = object()

#: C-level batch extraction of WriteEvent-shaped items.
_EVENT_FIELDS = attrgetter("node", "value", "timestamp")

#: Shortest packed batch ``Runtime._write_ring`` folds with the vectorised
#: kernel; below it the Python loop is cheaper (measured crossover 64–128
#: rows, by how often writers repeat within a batch).
_RING_ROWS = 128

#: Moved-writer handles a runtime retains between reports before it
#: collapses them to one duplicate-free array (bounds a report-free stream).
_MOVED_CAP = 4096

_NO_SLOTS = np.empty(0, dtype=np.int64)


def normalize_write(item) -> Tuple[NodeId, Any, Optional[float]]:
    """Coerce one batch item into ``(node, value, timestamp)``.

    Accepts ``(node, value)`` / ``(node, value, timestamp)`` tuples and
    WriteEvent-like objects with ``node`` / ``value`` / ``timestamp``
    attributes.
    """
    if isinstance(item, tuple):
        if len(item) == 3:
            return item
        node, value = item
        return (node, value, None)
    return (item.node, item.value, getattr(item, "timestamp", None))


@dataclass
class RuntimeCounters:
    """Operation counters for throughput accounting.

    ``write_seconds`` / ``read_seconds`` accumulate wall time inside the
    batched entry points — but only while ``Runtime.op_timing`` is on
    (the serve layer's metrics plane flips it); they stay 0.0 otherwise
    so the unmetered engine pays nothing for them.
    """

    writes: int = 0
    reads: int = 0
    push_ops: int = 0
    pull_ops: int = 0
    write_seconds: float = 0.0
    read_seconds: float = 0.0

    @property
    def events(self) -> int:
        return self.writes + self.reads

    @property
    def work(self) -> int:
        return self.push_ops + self.pull_ops


@dataclass
class TraceOp:
    """One micro-operation for the simulated executor (Figure 13(d))."""

    handle: int
    kind: str  # "write" | "push" | "pull" | "read"
    fan_in: int


class PushPlan:
    """Compiled propagation of one writer's delta (group aggregates).

    ``steps`` is the exact application sequence of the interpreter's DFS:
    ``(dst, cumulative_sign, is_push, fan_in)``.  ``observe`` lists every
    destination (for observed-push accounting), ``scalar_steps`` is the
    push-only ``(dst, sign)`` specialization for scalar deltas (Sum/Count),
    and ``touched`` indexes the plan into the invalidation registry.
    """

    __slots__ = ("steps", "observe", "scalar_steps", "push_count", "touched")

    def __init__(
        self,
        steps: Tuple[Tuple[int, int, bool, int], ...],
        scalar: bool,
        touched: FrozenSet[int],
    ) -> None:
        self.steps = steps
        self.observe = tuple(step[0] for step in steps)
        self.push_count = sum(1 for step in steps if step[2])
        self.scalar_steps = (
            tuple((dst, sign) for dst, sign, is_push, _ in steps if is_push)
            if scalar
            else None
        )
        self.touched = touched


class PullPlan:
    """Compiled on-demand evaluation of one pull reader.

    ``program`` is a flat list of ``(op, a, b)`` instructions for a tiny
    accumulator-stack machine that replays the recursive pull's exact
    merge order (LEAF: merge a push source, ENTER: start a nested pull
    node's accumulator, EXIT: fold it into the parent with the edge sign).

    For batch-aware memoization the plan also indexes its own nesting:
    ``spans`` maps the program index of each nested ENTER to ``(matching
    exit index, entered node, handles observed inside the span)`` so a
    memo hit can skip the whole sub-program while still crediting the
    observed-pull frequencies; ``exit_nodes`` names the node each EXIT
    completes (the memo store point); ``observe_all`` is every handle the
    full program observes (credited on a whole-plan hit).
    """

    __slots__ = ("program", "pull_ops", "touched", "spans", "exit_nodes", "observe_all")

    def __init__(
        self, program: Tuple[Tuple[int, int, int], ...], touched: FrozenSet[int]
    ) -> None:
        self.program = program
        self.pull_ops = sum(1 for op, _, _ in program if op != _OP_ENTER)
        self.touched = touched
        spans: Dict[int, Tuple[int, int, Tuple[int, ...]]] = {}
        exit_nodes: Dict[int, int] = {}
        enter_stack: List[Tuple[int, int]] = []
        for index, (op, a, _b) in enumerate(program):
            if op == _OP_ENTER:
                enter_stack.append((index, a))
            elif op == _OP_EXIT:
                start, node = enter_stack.pop()
                exit_nodes[index] = node
                spans[start] = (
                    index,
                    node,
                    tuple(
                        sa for so, sa, _ in program[start:index] if so != _OP_EXIT
                    ),
                )
        self.spans = spans
        self.exit_nodes = exit_nodes
        self.observe_all = tuple(a for op, a, _ in program if op != _OP_EXIT)


class _ScatterTable:
    """Ragged per-writer frontiers, frozen for whole-batch scatters.

    Two row sets per writer ``w``, each in the exact order the per-writer
    plan visits its steps.  ``indptr[w]:indptr[w+1]`` slices ``dst`` to
    every destination ``w``'s compiled propagation observes — push
    applications and the would-be pushes stopping at the pull frontier —
    what ``np.add.at(observed, dst, events)`` credits the observed-push
    frequencies over.  ``push_indptr`` slices ``push_dst``/``push_coeff``
    to the push applications alone, with their cumulative edge signs:
    ``np.add.at(column, push_dst, push_coeff * delta)`` applies a batch's
    value updates in the per-writer loop's addition order (the frontier
    stops it leaves out would only add exact zeros to slots no read
    uses), and a push row's length is its work-counter credit.
    """

    __slots__ = ("indptr", "dst", "push_indptr", "push_dst", "push_coeff", "has_push")

    def __init__(self, indptr, dst, push_indptr, push_dst, push_coeff):
        self.indptr = indptr
        self.dst = dst
        self.push_indptr = push_indptr
        self.push_dst = push_dst
        self.push_coeff = push_coeff
        # All-pull frontier right at the writers (pure on-demand systems):
        # batches then skip the value scatter entirely.
        self.has_push = bool(push_dst.size)

    def expand(self, w_arr, push: bool = False):
        """Ragged expansion of ``w_arr``'s rows (push rows with ``push``).

        Returns ``(idx, counts)`` where ``idx`` indexes ``dst`` (or
        ``push_dst``/``push_coeff``) with every row of every writer in
        ``w_arr``, writers in input order and steps in row order, or
        ``None`` when the rows are all empty.
        """
        indptr = self.push_indptr if push else self.indptr
        starts = indptr[w_arr]
        counts = indptr[w_arr + 1] - starts
        idx, _offsets = ragged_index(starts, counts)
        if not idx.size:
            return None
        return idx, counts


class Runtime:
    """Executes one compiled query over an annotated overlay."""

    def __init__(
        self,
        overlay: Overlay,
        query: EgoQuery,
        buffers: Optional[Dict[NodeId, WindowBuffer]] = None,
        collect_trace: bool = False,
        value_store: str = "auto",
        stamp: int = 0,
    ) -> None:
        self.overlay = overlay
        self.query = query
        self.aggregate = query.aggregate
        self.group = self.aggregate.subtractable
        if not self.group and overlay.num_negative_edges:
            raise OverlayError(
                f"overlay has negative edges but {self.aggregate.name} "
                "does not support subtraction"
            )
        if not overlay.decisions_consistent():
            raise OverlayError("overlay decisions are inconsistent (pull feeds push)")
        self._time_window = isinstance(query.window, TimeWindow)
        # Per-writer sliding windows, keyed by *graph node id* so they can
        # survive overlay rebuilds.
        self.buffers: Dict[NodeId, WindowBuffer] = buffers if buffers is not None else {}
        # Global write stamp: bumped once per ingestion call (write /
        # write_batch), never reset by rebuild() — seedable at construction
        # so a runtime restored from checkpointed buffers continues the
        # sequence of the instance it replaces.  Changed-reader reports are
        # tagged with it (:meth:`changed_report`), giving downstream
        # consumers (the serve layer's notifications) a version that is
        # stable across overlay rebuilds and shard restarts.
        self.stamp = stamp
        # -- pluggable value store ------------------------------------
        self.value_store_mode = value_store
        self.values = make_value_store(self.aggregate, overlay.num_nodes, value_store)
        self._columnar = self.values.backend == "columnar"
        self._spec = self.aggregate.column_spec if self._columnar else None
        self._columnar_delta = self._columnar and self._spec.kind == "delta"
        self._scalar_buffers = self._columnar and self._spec.scalar_raws
        # SUM/MEAN over a tuple window: the windows are rows of one ring
        # matrix (see _build_ring) and packable batches take _write_ring.
        self._ring: Optional[TupleRing] = None
        self._ring_keys = None
        self._ring_window = (
            self._columnar_delta
            and self._spec.scalar_raws
            and isinstance(query.window, TupleWindow)
        )
        self.snapshots: List[Optional[Dict[int, PAO]]] = []
        self._observed_push_store = []
        self.observed_pull = []
        # Deferred observed-push credits from columnar batches: (writer,
        # events) pairs, plus the writer rows (kernel) or node ids (loop)
        # of every ring batch (O(1) per batch), expanded through the
        # scatter table only when the counters are actually read (or
        # before the table goes).
        self._obs_pending_handles: List[int] = []
        self._obs_pending_events: List[int] = []
        self._obs_ring_rows: List = []
        self._obs_ring_nodes: List = []
        self.counters = RuntimeCounters()
        # Engine-op wall-time accounting for the observability plane:
        # off by default; the serve layer's ShardHost re-syncs it onto
        # whatever runtime the engine currently holds (recompiles swap
        # the instance) before each batch.
        self.op_timing = False
        self.clock = 0.0
        self._expiry_heap: List[Tuple[float, int]] = []
        self.trace: Optional[List[TraceOp]] = [] if collect_trace else None
        # Columnar lattice execution (MAX/MIN over columns): per-input
        # snapshots are redundant — a push node's snapshot of input ``src``
        # always equals ``values[src]`` (every emitted message updates all
        # consumers before propagation descends), so recomputes gather the
        # inputs' columns directly and batches of grow-only updates apply
        # as one ``fmax.at``/``fmin.at`` scatter.  Trace collection keeps
        # the snapshot-based interpreter (micro-op parity with the seed).
        self._lattice_columns = (
            self._columnar and self._spec.kind == "lattice" and self.trace is None
        )
        # Columnar reads run through frozen pull rows and one kernel
        # (:meth:`_row_columns`) whose ``_row_fold.reduceat`` folds a row;
        # the object store and trace collection keep the interpreted plans.
        self._row_reads = self._columnar and self.trace is None
        if self._row_reads:
            folds = {"add": np.add, "maximum": np.fmax, "minimum": np.fmin}
            self._row_fold = folds[self._spec.merge_ufunc]
        self._plain_reads = getattr(self.aggregate, "plain_reads", False)
        # The identity PAO is immutable by the aggregate API contract
        # (merge/subtract never mutate arguments), so one instance serves
        # every identity use instead of reconstructing it per operation.
        self._identity = self.aggregate.identity()
        self._scalar_group = self.group and getattr(
            self.aggregate, "scalar_delta", False
        )
        # -- compiled-plan caches -------------------------------------
        self._push_plans: Dict[int, PushPlan] = {}
        self._pull_plans: Dict[int, PullPlan] = {}
        # Dict-shaped either way; empty for good when reads are interpreted.
        self._pull_rows = PullRows() if self._row_reads else {}
        self._closures = ReaderClosures()
        # Handles of the writers whose value changed since the last
        # pop_changed_writers(): int arrays or sequences, one per write
        # call, repeats allowed (changed_handles is indifferent to them).
        # The serve layer turns this into the set of egos to diff for
        # subscription notifications, which is what keeps notification
        # work O(affected readers) instead of O(subscribers).
        self._moved: List = []
        self._moved_rows = 0
        self._moved_cap = _MOVED_CAP
        # Readers whose neighbourhood a structural change altered since the
        # last report (their value can move with no writer moving), keyed
        # by graph node id: the record must survive the rebuild the change
        # triggers.
        self._restructured_readers: Dict[NodeId, None] = {}
        self._plan_deps: Dict[int, Set[Tuple[int, int]]] = {}
        self._out_cache: Dict[int, List[Tuple[int, int, bool, int]]] = {}
        self._csr: Optional[OverlayCSR] = None
        self._scatter: Optional[_ScatterTable] = None
        self._plan_stamp = (overlay.version, overlay.decision_version)
        self.plan_compiles = 0
        self.plan_invalidations = 0
        self.scatter_builds = 0
        #: Pull subtrees the *interpreted* ``read_batch`` answered from its
        #: per-batch memo: an object-store counter, 0 under the row kernel.
        self.pull_memo_hits = 0
        # Construction-time dirt predates any compiled plan; absorb it so
        # later pops only carry genuinely new mutations.
        overlay.pop_dirty()
        self._materialize()

    # ------------------------------------------------------------------
    # state materialization
    # ------------------------------------------------------------------

    def _materialize(self) -> None:
        overlay = self.overlay
        agg = self.aggregate
        n = overlay.num_nodes
        # Overlay surgery may have changed the handle space: the store
        # remaps its columns (or object slots) to the new ids and the loop
        # below re-derives every live PAO.
        self.values.resize(n)
        self.snapshots = [None] * n
        if self._columnar:
            self._observed_push_store = np.zeros(n, dtype=np.int64)
            self.observed_pull = np.zeros(n, dtype=np.int64)
        else:
            self._observed_push_store = [0] * n
            self.observed_pull = [0] * n
        if self._row_reads:
            self._pull_rows.resize(n)
        # Reader slots: the readers in ascending handle order (handles only
        # grow, so the closures already frozen keep their slots).
        self._closures.resize(
            n, np.flatnonzero(np.array(overlay.kind_codes()) == KIND_READER)
        )
        # The handle -> node id gather table, one element per label:
        # np.array of the list would broadcast tuple labels into a second
        # axis.
        self._label_array = np.fromiter(overlay.labels, dtype=object, count=n)
        if self._ring_window:
            self._build_ring()
        for node, handle in overlay.writer_of.items():
            if node not in self.buffers:
                self.buffers[node] = self.query.window.make_buffer(
                    scalar=self._scalar_buffers
                )
        # Drop buffers of writers no longer present (after node removals).
        live = set(overlay.writer_of)
        for node in [n_ for n_ in self.buffers if n_ not in live]:
            del self.buffers[node]
        # Fused node -> [handle, bound push, entry, batch-marker, buffer]
        # routing for the columnar batch ingestion loop: one dict probe
        # per event resolves the writer handle, the buffer's append fast
        # path and the batch's per-writer accumulator slot in one go.
        self._ingest = {
            node: [handle, self.buffers[node].push, None, None, self.buffers[node]]
            for node, handle in overlay.writer_of.items()
            if node in self.buffers
        }
        self._ingest_by_handle = {
            route[0]: route for route in self._ingest.values()
        }
        for handle in overlay.topological_order():
            kind = overlay.kinds[handle]
            if kind is NodeKind.WRITER:
                buffer = self.buffers.get(overlay.labels[handle])
                if buffer is None:
                    # Tombstoned writer (its graph node was removed): it has
                    # no edges and never receives writes; keep it inert.
                    self.values[handle] = self._identity
                    continue
                self.values[handle] = agg.combine_raw(buffer.values())
                if self._time_window:
                    expiry = buffer.next_expiry()
                    if expiry is not None:
                        heapq.heappush(self._expiry_heap, (expiry, handle))
                continue
            if overlay.decisions[handle] is Decision.PUSH:
                self._initialize_push_node(handle)

    def _build_ring(self) -> None:
        """Rebuild the ring matrix over the current writers from the
        node-keyed windows (views of the previous matrix, or detached
        buffers from a checkpoint), and make every ``buffers`` entry a view
        of its row.  With plain ``int`` writer ids the rows are in id
        order, so ``_ring_keys`` maps node ids to rows by ``searchsorted``
        (the kernel's precondition; ``None`` otherwise, or under trace
        collection)."""
        writer_of = self.overlay.writer_of
        nodes = list(writer_of)
        keyed = bool(nodes) and all(type(node) is int for node in nodes)
        if keyed:
            nodes.sort()
        ring = TupleRing(len(nodes), self.query.window.size)
        buffers = self.buffers
        for row, node in enumerate(nodes):
            buffer = buffers.get(node)
            if buffer is not None:
                ring.load(row, buffer)
            buffers[node] = RingRow(ring, row)
        self._ring = ring
        self._ring_handles = np.array(
            [writer_of[node] for node in nodes], dtype=np.int64
        )
        self._ring_keys = None
        if keyed and self.trace is None:
            try:
                self._ring_keys = np.array(nodes, dtype=np.int64)
            except OverflowError:  # ids beyond int64: per-event path only
                pass

    def _initialize_push_node(self, handle: int) -> None:
        """Compute a push node's PAO from its (push, by consistency) inputs."""
        agg = self.aggregate
        acc = self._identity
        snaps: Dict[int, PAO] = {}
        for src, sign in self.overlay.inputs[handle].items():
            value = self.values[src]
            snaps[src] = value
            acc = agg.merge(acc, value) if sign > 0 else agg.subtract(acc, value)
        self.values[handle] = acc
        if not self.group and not self._lattice_columns:
            # Columnar lattice recomputes gather the input columns directly
            # (see __init__), so no per-node snapshot dict is kept.
            self.snapshots[handle] = snaps

    # ------------------------------------------------------------------
    # observed-push accounting
    # ------------------------------------------------------------------

    @property
    def observed_push(self):
        """Observed push frequencies per handle (adaptive signal).

        Columnar batches defer their credits — as ``(writer, events)``
        pairs, or from ring batches as each batch's writer rows or node
        ids — and expand them through the scatter table on first read,
        so the batched hot path never pays for bookkeeping nobody is
        looking at.  One deliberate nuance: tuple-window batches credit
        every event of a writer's stream traffic even when its batch
        delta sums to exactly zero — the closer reading of the paper's
        ``f_h`` write-frequency estimate.  Both the object kernel and the
        per-event ``write()`` path skip identity-delta writers instead,
        so on the columnar backend a zero-net-delta workload (e.g. COUNT
        over a full tuple window) reports higher — stream-accurate —
        frequencies through ``write_batch`` than through ``write``.
        """
        if self._obs_pending_handles or self._obs_ring_rows or self._obs_ring_nodes:
            self._flush_observed()
        return self._observed_push_store

    def _flush_observed(self) -> None:
        """Materialize deferred observed-push credits into the counters:
        the ``(writer, events)`` pairs and the ``bincount`` of the retained
        ring rows (node ids mapped to rows first) added into one per-handle
        tally, then one expansion of the credited writers through the
        scatter table."""
        tally = np.zeros(len(self._observed_push_store), dtype=np.int64)
        if self._obs_pending_handles:
            np.add.at(tally, self._obs_pending_handles, self._obs_pending_events)
            self._obs_pending_handles, self._obs_pending_events = [], []
        if self._obs_ring_nodes:
            nodes = np.fromiter(chain.from_iterable(self._obs_ring_nodes), np.int64)
            self._obs_ring_nodes = []
            keys = self._ring_keys
            rows = np.minimum(keys.searchsorted(nodes), len(keys) - 1)
            self._obs_ring_rows.append(rows[keys[rows] == nodes])
        if self._obs_ring_rows:
            tally[self._ring_handles] += np.bincount(
                np.concatenate(self._obs_ring_rows),
                minlength=len(self._ring_handles),
            )
            self._obs_ring_rows = []
        writers = tally.nonzero()[0]
        if not writers.size:
            return
        table = self._scatter
        if table is None:
            table = self._build_scatter_table()
        expanded = table.expand(writers)
        if expanded is None:
            return
        idx, counts = expanded
        np.add.at(
            self._observed_push_store, table.dst[idx], np.repeat(tally[writers], counts)
        )

    # ------------------------------------------------------------------
    # plan compilation and invalidation
    # ------------------------------------------------------------------

    def _check_plans(self) -> None:
        """Drop every cached plan if the overlay mutated out-of-band."""
        stamp = (self.overlay.version, self.overlay.decision_version)
        if stamp != self._plan_stamp:
            self.invalidate_plans()
            self._plan_stamp = stamp

    def invalidate_plans(self, handles: Optional[Iterable[int]] = None) -> None:
        """Invalidate compiled plans.

        With ``handles`` given, only plans whose traversal touches one of
        those handles are dropped (precise invalidation); without, the
        whole cache is cleared.  The CSR snapshot, compiled adjacencies and
        the batch scatter table are cheap to rebuild lazily and are always
        dropped (any structural or decision change can reroute a frontier).
        """
        # Deferred observed-push credits belong to the *outgoing* scatter
        # table's frontier rows; settle them before dropping it.
        if self._obs_pending_handles or self._obs_ring_rows or self._obs_ring_nodes:
            self._flush_observed()
        self._csr = None
        self._scatter = None
        self._out_cache.clear()
        if handles is None:
            self.plan_invalidations += (
                len(self._push_plans)
                + len(self._pull_plans)
                + len(self._pull_rows)
                + len(self._closures)
            )
            self._push_plans.clear()
            self._pull_plans.clear()
            self._pull_rows.clear()
            self._closures.clear()
            self._plan_deps.clear()
            return
        deps = self._plan_deps
        for handle in handles:
            bucket = deps.get(handle)
            if bucket:
                for key in list(bucket):
                    self._drop_plan(key)

    def _plan_store(self, kind: int) -> Dict[int, Any]:
        if kind == _PLAN_PUSH:
            return self._push_plans
        if kind == _PLAN_PULL:
            return self._pull_plans
        if kind == _PLAN_ROW:
            return self._pull_rows
        return self._closures

    def _drop_plan(self, key: Tuple[int, int]) -> None:
        kind, root = key
        plan = self._plan_store(kind).pop(root, None)
        if plan is None:
            return
        self.plan_invalidations += 1
        deps = self._plan_deps
        for handle in plan.touched:
            bucket = deps.get(handle)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del deps[handle]

    def _register_plan(self, kind: int, root: int, touched: FrozenSet[int]) -> None:
        key = (kind, root)
        deps = self._plan_deps
        for handle in touched:
            bucket = deps.get(handle)
            if bucket is None:
                bucket = deps[handle] = set()
            bucket.add(key)
        self.plan_compiles += 1

    def _ensure_csr(self) -> OverlayCSR:
        csr = self._csr
        if csr is None:
            csr = self._csr = self.overlay.to_csr()
        return csr

    def _compile_push_plan(self, handle: int) -> PushPlan:
        """Freeze the DFS a group delta from ``handle`` would perform.

        Group propagation never short-circuits (``apply_push`` always
        forwards the signed delta from a push node), so the interpreter's
        stack traversal is fully determined by the structure: simulate it
        over the CSR arrays once, recording every application in order.
        """
        csr = self._ensure_csr()
        out_indptr = csr.out_indptr
        out_indices = csr.out_indices
        out_signs = csr.out_signs
        push = csr.push
        fan_in = csr.fan_in
        steps: List[Tuple[int, int, bool, int]] = []
        touched = {handle}
        stack: List[Tuple[int, int]] = [(handle, 1)]
        while stack:
            node, carried = stack.pop()
            for i in range(out_indptr[node], out_indptr[node + 1]):
                dst = out_indices[i]
                sign = carried * out_signs[i]
                is_push = bool(push[dst])
                steps.append((dst, sign, is_push, fan_in[dst]))
                touched.add(dst)
                if is_push:
                    stack.append((dst, sign))
        plan = PushPlan(tuple(steps), self._scalar_group, frozenset(touched))
        self._push_plans[handle] = plan
        self._register_plan(_PLAN_PUSH, handle, plan.touched)
        return plan

    def _compile_pull_plan(self, root: int) -> PullPlan:
        """Flatten the recursive pull of ``root`` into a stack program."""
        csr = self._ensure_csr()
        in_indptr = csr.in_indptr
        in_indices = csr.in_indices
        in_signs = csr.in_signs
        push = csr.push
        fan_in = csr.fan_in
        program: List[Tuple[int, int, int]] = []
        touched = {root}
        # Work items mirror the recursion: ENTER emits the node then
        # schedules its children in input order (LEAF for push sources,
        # ENTER+EXIT for nested pull nodes); EXIT folds a finished child
        # into its parent with the edge sign.
        stack: List[Tuple[int, int, int]] = [(_OP_ENTER, root, 0)]
        while stack:
            op, a, b = stack.pop()
            if op == _OP_LEAF:
                program.append((_OP_LEAF, a, b))
                continue
            if op == _OP_EXIT:
                program.append((_OP_EXIT, b, 0))
                continue
            node = a
            program.append((_OP_ENTER, node, fan_in[node]))
            # Children are pushed reversed so they run in input order.
            for i in range(in_indptr[node + 1] - 1, in_indptr[node] - 1, -1):
                src = in_indices[i]
                sign = in_signs[i]
                touched.add(src)
                if push[src]:
                    stack.append((_OP_LEAF, src, sign))
                else:
                    stack.append((_OP_EXIT, src, sign))
                    stack.append((_OP_ENTER, src, 0))
        plan = PullPlan(tuple(program), frozenset(touched))
        self._pull_plans[root] = plan
        self._register_plan(_PLAN_PULL, root, plan.touched)
        return plan

    def _compile_pull_row(self, root: int) -> None:
        """Flatten reader ``root``'s pull subtree into its :class:`PullRow`.

        The walk multiplies edge signs down every path, so a leaf's
        coefficient is its net signed path count and ``credit`` counts the
        visits a sequential pull would make (shared pull nodes expand once
        per path, exactly as the interpreted plan replays them).
        """
        overlay = self.overlay
        decisions = overlay.decisions
        inputs = overlay.inputs
        coeff: Dict[int, int] = {}
        credit: Dict[int, int] = {root: 1}
        pull = decisions[root] is not Decision.PUSH
        if not pull:
            coeff[root] = 1
        stack = [(root, 1)] if pull else []
        while stack:
            node, carried = stack.pop()
            for src, sign in inputs[node].items():
                credit[src] = credit.get(src, 0) + 1
                if decisions[src] is Decision.PUSH:
                    coeff[src] = coeff.get(src, 0) + carried * sign
                else:
                    stack.append((src, carried * sign))
        leaf = [handle for handle, net in coeff.items() if net]
        touched = frozenset(credit)
        self._pull_rows.put(
            root, leaf, [coeff[handle] for handle in leaf],
            list(credit), list(credit.values()), len(leaf) if pull else 0, touched,
        )
        self._register_plan(_PLAN_ROW, root, touched)

    def _compile_reader_closure(self, writer: int) -> None:
        """Freeze the readers downstream of ``writer`` into the arena.

        The traversal follows *every* overlay edge (not just push edges):
        a changed writer affects each reachable reader's value whether that
        reader materializes it eagerly or computes it on demand.  Each
        reader appears once; the visit order carries no meaning
        (:meth:`changed_handles` reports in handle order).
        """
        csr = self._ensure_csr()
        out_indptr = csr.out_indptr
        out_indices = csr.out_indices
        kinds = csr.kinds
        touched = {writer}
        readers: List[int] = []
        stack = [writer]
        while stack:
            node = stack.pop()
            for i in range(out_indptr[node], out_indptr[node + 1]):
                dst = out_indices[i]
                if dst in touched:
                    continue
                touched.add(dst)
                if kinds[dst] == KIND_READER:
                    readers.append(dst)
                else:
                    stack.append(dst)
        touched = frozenset(touched)
        self._closures.put(writer, readers, touched)
        self._register_plan(_PLAN_READERS, writer, touched)

    # ------------------------------------------------------------------
    # changed-reader reporting (continuous subscriptions)
    # ------------------------------------------------------------------

    def _note_moved(self, handles) -> None:
        """Record the handles of writers whose value moved (a non-empty int
        array or sequence of ints); past ``_MOVED_CAP`` retained handles
        the record collapses to one duplicate-free array."""
        moved = self._moved
        moved.append(handles)
        self._moved_rows += len(handles)
        if self._moved_rows > self._moved_cap and len(moved) > 1:
            unique = np.unique(np.concatenate(moved, dtype=np.int64))
            self._moved = [unique]
            self._moved_rows = unique.size
            self._moved_cap = max(_MOVED_CAP, 2 * unique.size)

    def pop_changed_writers(self):
        """Handles of the writers whose value changed since the last pop.

        Every write path records the writers it actually moved (zero-delta
        writers are skipped exactly where propagation skips them) as
        handles: the batch kernels hand over the array they scattered, the
        per-event paths their handles, so the record costs one list append
        per write call.  Returns an int array in no particular order, a
        writer possibly repeated; :meth:`changed_handles`, its consumer,
        is indifferent to both.

        Pending writers survive a new overlay by node id, and only there:
        :meth:`rebuild` (overlay surgery in place) and the engine's full
        recompile (a new runtime over a new handle space) take them out
        with :meth:`pop_changed_writer_nodes` and put them back with
        :meth:`note_changed_writers`, so a writer the surgery removed
        drops out silently and every other one reaches its current handle.
        """
        moved = self._moved
        if not moved:
            return np.empty(0, dtype=np.int64)
        self._moved = []
        self._moved_rows = 0
        self._moved_cap = _MOVED_CAP
        if len(moved) == 1:
            return np.asarray(moved[0], dtype=np.int64)
        return np.concatenate(moved, dtype=np.int64)

    def pop_changed_writer_nodes(self) -> List[NodeId]:
        """:meth:`pop_changed_writers` as node ids, for a record that must
        outlive this handle space (see there)."""
        return self._label_array[self.pop_changed_writers()].tolist()

    def note_changed_writers(self, nodes: Iterable[NodeId]) -> None:
        """Record writers by node id (as :meth:`pop_changed_writer_nodes`
        returns them) against the current overlay; nodes that are no
        longer writers drop out silently."""
        writer_of = self.overlay.writer_of
        handles = [writer_of[node] for node in nodes if node in writer_of]
        if handles:
            self._note_moved(handles)

    def note_restructured_readers(self, nodes: Iterable[NodeId]) -> None:
        """Record readers whose neighbourhood a structural change altered.

        Their aggregates can move without any writer moving (an edge
        removal takes a value out of ``N(r)``), so the next report unions
        them in as candidates.  Node-keyed, unlike the moved writers: the
        record is rare and must survive the overlay rebuild the change
        triggers; nodes that are no longer readers by then drop out
        silently.
        """
        self._restructured_readers.update(dict.fromkeys(nodes))

    def changed_handles(self, writers: Optional[Iterable[int]] = None):
        """Reader *handles* whose aggregate may have changed — the one
        who-changed computation; every other report is a view of it.

        The union of the frozen reader closures of ``writers`` (default:
        :meth:`pop_changed_writers`) and of the structurally affected
        readers recorded since the last call, built in reader-slot space
        by a fixed sequence of numpy calls — no per-writer or per-reader
        Python step.  Missing closures compile first (once per writer per
        overlay).  The cost model, per call over ``S`` reader slots: the
        ``H`` bitset rows among the writers' closures are ORed in packed
        form (``H · S / 8`` bytes) and unpacked once into a slot bitmap,
        the ``E`` entries of their index rows are gathered and scattered
        into it, and one ``flatnonzero`` reads the set back —
        O(``H · S / 8 + S + E``) whatever the rows' overlap, in about a
        dozen numpy calls when both kinds meet and about half that when
        one is absent (a call skips the part it has no rows for).  Which
        kind a closure is was decided once, by size, when it was frozen
        (see :class:`~repro.core.closures.ReaderClosures`): a hub writer's
        closure is a bitset, a small one an index row, and on a shard's
        overlay (``S`` ≤ 2 048) every closure is a bitset.  Slots map back
        to handles with one gather.

        Returns an int array with no duplicates, **in ascending handle
        order** (ascending slot is ascending handle) — closure visit order
        is not observable and nothing may rely on it.  The call keeps no
        scratch state: a call that raises leaves the arena and every
        later report as they were.

        The result is a *candidate* set: a reader is included when an
        upstream writer moved, even if cancellation (e.g. a MAX that did
        not grow) leaves its final value unchanged — consumers diff actual
        values before notifying.  Supersets are allowed, drops never.
        """
        if writers is None:
            writers = self.pop_changed_writers()
        elif not isinstance(writers, np.ndarray):
            writers = np.fromiter(writers, dtype=np.int64)
        self._check_plans()
        return self._closures.slots[self._changed_slots(writers)]

    def _changed_slots(self, writers):
        """:meth:`changed_handles` in slot space: the ascending reader
        slots of the closures of ``writers`` (an int array of handles) and
        of the restructured readers."""
        closures = self._closures
        rows = closures.bitrow[writers]
        low = rows.min() if rows.size else 0
        if low == MISSING:
            for writer in dict.fromkeys(writers[rows == MISSING].tolist()):
                self._compile_reader_closure(writer)
            rows = closures.bitrow[writers]
            low = rows.min()
        entries = _NO_SLOTS
        if low < 0:  # index rows among the writers' closures
            idx, _offsets = ragged_index(closures.start[writers], closures.count[writers])
            entries = closures.entries[idx]
            rows = rows[rows >= 0]
        restructured = self._restructured_readers
        if restructured:
            reader_of = self.overlay.reader_of
            extra = [reader_of[node] for node in restructured if node in reader_of]
            restructured.clear()
            entries = np.concatenate(
                [entries, closures.slot_of[np.asarray(extra, dtype=np.int64)]]
            )
        num_slots = closures.num_slots
        if rows.size:
            packed = np.bitwise_or.reduce(closures.bits[rows], axis=0)
            mark = np.unpackbits(packed, count=num_slots).view(np.bool_)
        else:
            mark = np.zeros(num_slots, dtype=np.bool_)
        if entries.size:
            mark[entries] = True
        return np.flatnonzero(mark)

    def _distinct(self, handles):
        """``handles`` (an int array) without duplicates, ascending,
        through a bitmap over the handle space."""
        mark = np.zeros(len(self._label_array), dtype=np.bool_)
        mark[handles] = True
        return np.flatnonzero(mark)

    def labels_of(self, handles) -> List[NodeId]:
        """Node ids of ``handles`` (as :meth:`changed_handles` returns
        them), in the same order — the one place the change report turns
        handles into Python objects, so callers that filter in handle
        space first (the serve layer's watch mask) pay for what they keep.
        """
        return self._label_array[handles].tolist()

    def changed_readers(self, writers: Optional[Iterable[int]] = None) -> List[NodeId]:
        """Reader nodes whose aggregate may have changed.

        :meth:`changed_handles` mapped to node ids through
        :meth:`labels_of`: same candidate-set semantics (structurally
        affected readers included), no duplicates, ascending overlay
        handle order.
        """
        return self.labels_of(self.changed_handles(writers))

    def changed_report(self) -> Tuple[int, List[NodeId]]:
        """``(stamp, readers)``: the changed-reader set with its version.

        ``stamp`` is the global write stamp — the number of ingestion
        calls absorbed over this runtime's whole lineage.  Unlike overlay
        versions or plan stamps it survives overlay rebuilds (the
        attribute is never reset) and shard restarts (a restored runtime
        is seeded with the checkpointed value), so consumers can use it
        to order and correlate change reports across those boundaries.
        ``readers`` is :meth:`changed_readers` (ascending overlay handle).
        """
        return self.stamp, self.changed_readers()

    def _build_scatter_table(self) -> _ScatterTable:
        """Freeze every writer's compiled push frontier into ragged rows.

        Rows replay the exact ``(dst, cumulative_sign)`` application order
        of :meth:`_compile_push_plan`, so a whole-batch ``np.add.at`` over
        concatenated rows performs the same additions, in the same order,
        as the per-writer Python loop.
        """
        csr = self._ensure_csr()
        out_indptr = csr.out_indptr
        out_indices = csr.out_indices
        out_signs = csr.out_signs
        push = csr.push
        kinds = csr.kinds
        n = self.overlay.num_nodes
        indptr = [0] * (n + 1)
        dsts: List[int] = []
        push_indptr = [0] * (n + 1)
        push_dsts: List[int] = []
        push_coeffs: List[int] = []
        for handle in range(n):
            if kinds[handle] == KIND_WRITER:
                stack: List[Tuple[int, int]] = [(handle, 1)]
                while stack:
                    node, carried = stack.pop()
                    for i in range(out_indptr[node], out_indptr[node + 1]):
                        dst = out_indices[i]
                        sign = carried * out_signs[i]
                        dsts.append(dst)
                        if push[dst]:
                            push_dsts.append(dst)
                            push_coeffs.append(sign)
                            stack.append((dst, sign))
            indptr[handle + 1] = len(dsts)
            push_indptr[handle + 1] = len(push_dsts)
        table = _ScatterTable(
            indptr=np.asarray(indptr, dtype=np.int64),
            dst=np.asarray(dsts, dtype=np.int64),
            push_indptr=np.asarray(push_indptr, dtype=np.int64),
            push_dst=np.asarray(push_dsts, dtype=np.int64),
            push_coeff=np.asarray(push_coeffs, dtype=np.int8),
        )
        self._scatter = table
        self.scatter_builds += 1
        return table

    def _compile_out(self, node: int) -> List[Tuple[int, int, bool, int]]:
        """Per-node compiled adjacency for data-dependent (lattice) DFS."""
        overlay = self.overlay
        decisions = overlay.decisions
        inputs = overlay.inputs
        out = [
            (dst, inputs[dst][node], decisions[dst] is Decision.PUSH, len(inputs[dst]))
            for dst in overlay.outputs[node]
        ]
        self._out_cache[node] = out
        return out

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write(self, node: NodeId, value: Any, timestamp: Optional[float] = None) -> None:
        """Process one content update ("write on v")."""
        self.counters.writes += 1
        self.stamp += 1
        if timestamp is None:
            timestamp = self.clock + 1.0
        self.clock = max(self.clock, timestamp)
        if self._time_window:
            self._advance_time(self.clock)
        handle = self.overlay.writer_of.get(node)
        if handle is None:
            return  # no reader observes this node; the write is dropped
        buffer = self.buffers[node]
        evicted = buffer.append(value, timestamp)
        if self._time_window:
            heapq.heappush(
                self._expiry_heap, (timestamp + self.query.window.duration, handle)
            )
        if self.trace is not None:
            self.trace.append(TraceOp(handle, "write", 1))
        message = self.writer_step(handle, [value], evicted)
        if message is not None:
            self._note_moved((handle,))
            self._propagate(handle, message)

    def write_batch(self, writes: Sequence) -> int:
        """Process many writes, coalescing same-writer deltas.

        ``writes`` holds ``(node, value)`` / ``(node, value, timestamp)``
        tuples or WriteEvent-like objects, in stream order.  Window buffers
        are advanced per event (so eviction semantics match the per-event
        loop exactly), but propagation runs once per touched writer: the
        writer-local step sees the batch's full added/evicted lists and a
        single compiled-plan execution carries the combined delta.  Returns
        the number of writes processed.
        """
        if not self.op_timing:
            return self._write_batch_impl(writes)
        t0 = _monotonic()
        try:
            return self._write_batch_impl(writes)
        finally:
            self.counters.write_seconds += _monotonic() - t0

    def _write_batch_impl(self, writes: Sequence) -> int:
        self._check_plans()
        self.stamp += 1
        # Packed batches of a ring runtime take _write_ring: a frame's record
        # columns (serve ingress, WAL replay) as they are, a list when it
        # passes the WriteFrame gate (int nodes, float values and
        # timestamps), pairs as well as triples.
        if writes.__class__ is WriteFrame:
            if self._ring_keys is not None:
                stamps = writes.timestamps
                last = float(stamps.max()) if stamps.size else None
                return self._write_ring(writes.nodes, writes.values, last)
            writes = writes.tolist()
        else:
            if writes.__class__ is not list and not isinstance(writes, tuple):
                # Packing and the fallback both walk the batch; a one-shot
                # iterator would reach the second walk exhausted.
                writes = list(writes)
            if self._ring_keys is not None:
                columns = gated_columns(writes, 2) or gated_columns(writes, 3)
                if columns is not None:
                    last = max(columns[2]) if len(columns) == 3 else None
                    return self._write_ring(columns[0], columns[1], last)
        if self._columnar_delta and self.trace is None:
            return self._write_batch_columnar(writes)
        overlay = self.overlay
        writer_of = overlay.writer_of
        buffers = self.buffers
        trace = self.trace
        time_window = self._time_window
        duration = self.query.window.duration if time_window else 0.0
        clock = self.clock
        # dict preserves insertion order: propagation runs in first-touch order
        pending: Dict[int, Tuple[List[Any], List[Any]]] = {}
        count = 0
        try:
            for item in writes:
                # inlined normalize_write: this loop is the ingestion hot path
                if item.__class__ is tuple:
                    if len(item) == 3:
                        node, value, timestamp = item
                    else:
                        node, value = item
                        timestamp = None
                else:
                    node = item.node
                    value = item.value
                    timestamp = getattr(item, "timestamp", None)
                count += 1
                if timestamp is None:
                    timestamp = clock + 1.0
                if timestamp > clock:
                    clock = timestamp
                if time_window:
                    self.clock = clock
                    self._advance_time_deferred(clock, pending)
                handle = writer_of.get(node)
                if handle is None:
                    continue
                evicted = buffers[node].append(value, timestamp)
                if time_window:
                    heapq.heappush(self._expiry_heap, (timestamp + duration, handle))
                entry = pending.get(handle)
                if entry is None:
                    entry = pending[handle] = ([], [])
                entry[0].append(value)
                if evicted:
                    entry[1].extend(evicted)
                if trace is not None:
                    trace.append(TraceOp(handle, "write", 1))
        finally:
            # Even when an item raises (e.g. a non-monotone timestamp),
            # values already absorbed into buffers must propagate so push
            # state stays consistent with the windows.
            self.clock = clock
            self.counters.writes += count
            self._apply_pending(pending, trace)
        return count

    def _apply_pending(
        self,
        pending: Dict[int, Tuple[List[Any], List[Any]]],
        trace: Optional[List[TraceOp]],
    ) -> None:
        """Propagation phase of a batch: one plan execution per writer."""
        if self._lattice_columns and trace is None:
            self._apply_pending_lattice(pending)
            return
        if self._scalar_group and trace is None:
            # Scalar kernel: coalesced delta per writer, applied through the
            # compiled plan with plain arithmetic (matches writer_step +
            # merge exactly: both are sequential ``+``/``-`` folds).
            agg = self.aggregate
            lift = agg.lift
            identity = self._identity
            plans = self._push_plans
            observed = self.observed_push
            values = self.values.data
            moved: List[int] = []
            push_ops = 0
            try:
                for handle, (added, evicted) in pending.items():
                    delta = identity
                    for raw in added:
                        delta = delta + lift(raw)
                    for raw in evicted:
                        delta = delta - lift(raw)
                    if delta == identity:
                        continue
                    moved.append(handle)
                    values[handle] = values[handle] + delta
                    plan = plans.get(handle)
                    if plan is None:
                        plan = self._compile_push_plan(handle)
                    events = len(added) or 1  # eviction-only: one expiry sweep
                    for dst in plan.observe:
                        observed[dst] += events
                    for dst, sign in plan.scalar_steps:
                        values[dst] += sign * delta
                    push_ops += plan.push_count
            finally:
                self.counters.push_ops += push_ops
                if moved:
                    self._note_moved(moved)
            return
        moved = []
        try:
            for handle, (added, evicted) in pending.items():
                message = self.writer_step(handle, added, evicted)
                if message is not None:
                    moved.append(handle)
                    self._propagate(handle, message, len(added) or 1)
        finally:
            if moved:
                self._note_moved(moved)

    # ------------------------------------------------------------------
    # columnar lattice batches (MAX/MIN scatters)
    # ------------------------------------------------------------------

    def _apply_pending_lattice(self, pending) -> None:
        """Columnar MAX/MIN propagation: grow-only writers scatter as one
        ``fmax.at``/``fmin.at``, the rest take the column-based DFS.

        A writer whose batch run evicted nothing can only *raise* the
        extremum (lattice merges are monotone), so its whole downstream
        frontier applies as an idempotent extremum scatter over the same
        push rows the delta kernels use — lattice overlays carry no
        negative edges, so every coefficient there is +1.  Writers
        that saw an eviction (the extremum may shrink) recompute from their
        window buffer and propagate through the data-dependent DFS, which
        gathers input columns directly instead of per-node snapshots.

        Observed-push accounting: scattered writers defer full-closure
        credits through the scatter table (the stream-frequency semantics
        of the delta kernels); DFS writers credit per visited node like
        the interpreter.  Both feed the same adaptive estimates.
        """
        is_max = self._spec.merge_ufunc == "maximum"
        fold_at = np.fmax.at if is_max else np.fmin.at
        store = self.values
        column = store.columns[0]
        cleared = store._cleared
        grow_handles: List[int] = []
        grow_values: List[float] = []
        grow_events: List[int] = []
        slow: List[Tuple[int, Tuple[List[Any], List[Any]]]] = []
        for handle, entry in pending.items():
            added, evicted = entry
            if evicted or not added:
                slow.append((handle, entry))
                continue
            extremum = float(max(added) if is_max else min(added))
            if not cleared[handle]:
                old = column[handle]
                if (extremum <= old) if is_max else (extremum >= old):
                    continue  # the writer's value did not move: no-op batch
            grow_handles.append(handle)
            grow_values.append(extremum)
            grow_events.append(len(added))
        if grow_handles:
            self._note_moved(grow_handles)
            table = self._scatter
            if table is None:
                table = self._build_scatter_table()
            count = len(grow_handles)
            w_arr = np.fromiter(grow_handles, dtype=np.int64, count=count)
            v_arr = np.fromiter(grow_values, dtype=np.float64, count=count)
            column[w_arr] = v_arr
            cleared[w_arr] = False
            expanded = table.expand(w_arr, push=True)
            if expanded is not None:
                idx, counts = expanded
                dsts = table.push_dst[idx]
                fold_at(column, dsts, np.repeat(v_arr, counts))
                cleared[dsts] = False
                self.counters.push_ops += idx.size
            self._obs_pending_handles.extend(grow_handles)
            self._obs_pending_events.extend(grow_events)
        for handle, (added, evicted) in slow:
            message = self.writer_step(handle, added, evicted)
            if message is not None:
                self._note_moved((handle,))
                self._propagate_lattice_columns(
                    handle, message[0], message[1], len(added) or 1
                )

    def _propagate_lattice_columns(
        self, source: int, old: PAO, new: PAO, events: int = 1
    ) -> None:
        """Lattice DFS over compiled adjacencies, state in columns.

        Identical control flow to :meth:`_propagate_lattice`, but node
        values come from the columnar store's element accessors and a
        :data:`NEED_RECOMPUTE` gathers the destination's *input columns*
        instead of a snapshot dict — valid because a push node's snapshot
        of input ``src`` always mirrors ``values[src]`` (see __init__).
        """
        agg = self.aggregate
        store = self.values
        inputs = self.overlay.inputs
        observed = self.observed_push
        counters = self.counters
        out_cache = self._out_cache
        stack: List[Tuple[int, PAO, PAO]] = [(source, old, new)]
        while stack:
            node, node_old, node_new = stack.pop()
            out = out_cache.get(node)
            if out is None:
                out = self._compile_out(node)
            for dst, _sign, is_push, _fan_in in out:
                observed[dst] += events
                if not is_push:
                    continue
                current = store[dst]
                updated = agg.fast_update(current, node_old, node_new)
                if updated is NEED_RECOMPUTE:
                    updated = agg.combine(store[src] for src in inputs[dst])
                counters.push_ops += 1
                if updated != current:
                    store[dst] = updated
                    stack.append((dst, current, updated))

    # ------------------------------------------------------------------
    # columnar batched writes
    # ------------------------------------------------------------------

    def _write_batch_columnar(self, writes: Sequence) -> int:
        """Columnar-backend write batch: fold-then-scatter.

        Ingestion mirrors the generic loop event for event (same clock,
        window and expiry semantics), but instead of materializing
        added/evicted lists it folds each writer's run directly into a
        running ``[value delta, count delta, coalesced events]``
        accumulator on the writer's ingest route — exactly the sufficient
        statistics for every delta column source — and the propagation
        phase applies the whole batch through the scatter table in a
        handful of numpy calls.  Tuple windows additionally take the
        buffers' allocation-free
        :meth:`~repro.core.windows.WindowBuffer.push` path, fusing the
        steady-state (window full) event into a single ``+= value - old``;
        this is what a tuple-window batch the ring kernel cannot take
        (:meth:`_write_ring`: COUNT, unpackable items) runs.
        """
        time_window = self._time_window
        use_value = "value" in self._spec.sources
        clock = self.clock
        marker = object()  # tags routes touched by *this* batch
        touched: List[List] = []  # touched routes, in first-touch order
        touched_append = touched.append
        ingest_get = self._ingest.get
        count = 0
        try:
            if not time_window:
                # Tuple windows never consult timestamps, so events can be
                # unpacked in one C-level pass (uniform WriteEvent-shaped
                # items; anything else falls back to per-item dispatch).
                try:
                    triples = list(map(_EVENT_FIELDS, writes))
                except AttributeError:
                    triples = [
                        (
                            item
                            if item.__class__ is tuple and len(item) == 3
                            else (item[0], item[1], None)
                            if item.__class__ is tuple
                            else (
                                item.node,
                                item.value,
                                getattr(item, "timestamp", None),
                            )
                        )
                        for item in writes
                    ]
                count = len(triples)
                if use_value:
                    # Hyper path: SUM/MEAN-style value folding; the
                    # steady-state event is one fused ``+= value - old``.
                    for node, value, timestamp in triples:
                        if timestamp is None:
                            timestamp = clock = clock + 1.0
                        elif timestamp > clock:
                            clock = timestamp
                        route = ingest_get(node)
                        if route is None:
                            continue  # no reader observes this node
                        old = route[1](value, timestamp)
                        if route[3] is marker:
                            entry = route[2]
                        else:
                            entry = route[2] = [0.0, 0, 0]
                            route[3] = marker
                            touched_append(route)
                        entry[2] += 1
                        if old is NO_VALUE:
                            entry[0] += value
                            entry[1] += 1
                        else:
                            entry[0] += value - old
                else:
                    # COUNT-style: payloads are opaque, only arrivals fold.
                    for node, value, timestamp in triples:
                        if timestamp is None:
                            timestamp = clock = clock + 1.0
                        elif timestamp > clock:
                            clock = timestamp
                        route = ingest_get(node)
                        if route is None:
                            continue
                        old = route[1](value, timestamp)
                        if route[3] is marker:
                            entry = route[2]
                        else:
                            entry = route[2] = [0.0, 0, 0]
                            route[3] = marker
                            touched_append(route)
                        entry[2] += 1
                        if old is NO_VALUE:
                            entry[1] += 1
            else:
                duration = self.query.window.duration
                heap = self._expiry_heap
                for item in writes:
                    if item.__class__ is tuple:
                        if len(item) == 3:
                            node, value, timestamp = item
                        else:
                            node, value = item
                            timestamp = None
                    else:
                        node = item.node
                        value = item.value
                        timestamp = getattr(item, "timestamp", None)
                    count += 1
                    if timestamp is None:
                        timestamp = clock = clock + 1.0
                    elif timestamp > clock:
                        clock = timestamp
                    self.clock = clock
                    self._advance_time_deferred_scalar(
                        clock, marker, touched, use_value
                    )
                    route = ingest_get(node)
                    if route is None:
                        continue
                    evicted = route[4].append(value, timestamp)
                    heapq.heappush(heap, (timestamp + duration, route[0]))
                    if route[3] is marker:
                        entry = route[2]
                    else:
                        entry = route[2] = [0.0, 0, 0]
                        route[3] = marker
                        touched_append(route)
                    if use_value:
                        entry[0] += value
                    entry[1] += 1
                    entry[2] += 1
                    if evicted:
                        if use_value:
                            for raw in evicted:
                                entry[0] -= raw
                        entry[1] -= len(evicted)
        finally:
            # Mirror the generic batch loop: values already absorbed into
            # buffers must propagate even when an item raises.
            self.clock = clock
            self.counters.writes += count
            self._apply_pending_columnar(touched, credit_all=not time_window)
        return count

    def _write_ring(self, nodes, values, last: Optional[float]) -> int:
        """The tuple-window write: one packed batch — ``nodes`` (ints) and
        ``values`` (floats) in stream order, ``last`` its largest timestamp
        or ``None`` for a timestamp-less batch, which advances the clock by
        one per event — folded into the ring matrix and scattered.

        Events of unknown writers are dropped; each writer's run folds its
        per-event ``value - old`` terms in stream order (the additions of
        the per-event ``entry[0] += value - old``), and moved writers reach
        :meth:`_scatter_deltas` in first-touch order, as the per-event loop
        hands them over — so the columns are bit-identical to it.  A batch
        of ``_RING_ROWS`` or more runs the vectorised kernel
        (:meth:`_ring_kernel`); a shorter one, whose events cost less than
        the kernel's numpy calls, the same fold as a Python loop
        (:meth:`_ring_loop`).
        """
        count = len(nodes)
        clock = self.clock
        if last is None:
            clock = float(clock)
            if clock.is_integer() and clock < 2.0**52:
                clock += count  # exactly the per-event ``+ 1.0`` chain
            else:
                for _ in range(count):
                    clock += 1.0
        elif last > clock:
            clock = last
        self.clock = clock
        self.counters.writes += count
        if count >= _RING_ROWS:
            self._ring_kernel(
                np.asarray(nodes, dtype=np.int64), np.asarray(values, dtype=np.float64)
            )
        elif count:
            if nodes.__class__ is not tuple:  # record columns
                nodes, values = nodes.tolist(), values.tolist()
            self._ring_loop(nodes, values)
        return count

    def _ring_loop(self, nodes, values) -> None:
        """:meth:`_write_ring` for a short batch: events grouped per writer
        in first-touch order, each run pushed through the matrix's flat
        memoryviews (:class:`TupleRing`'s slot discipline) with the per-event
        ``dv += value - old`` — plain Python floats, so the same IEEE
        additions as the kernel's.  Observed-push credits keep the batch's
        node list (mapped to rows when they are flushed)."""
        runs: Dict[NodeId, List[float]] = {}
        for node, value in zip(nodes, values):
            run = runs.get(node)
            if run is None:
                runs[node] = [value]
            else:
                run.append(value)
        self._obs_ring_nodes.append(nodes)
        if len(self._obs_ring_nodes) >= 256:  # bounds what read-free streams retain
            self._flush_observed()
        ring = self._ring
        size, cells, counts = ring.size, ring.cells, ring.counts
        ingest_get = self._ingest.get
        use_count = "count" in self._spec.sources
        writers: List[int] = []
        value_deltas: List[float] = []
        count_deltas: List[int] = []
        for node, run in runs.items():
            route = ingest_get(node)
            if route is None:
                continue
            row = route[4].row
            pushed = counts[row]
            base = row * size
            dv, dc = 0.0, 0
            for value in run:
                cell = base + pushed % size
                if pushed < size:
                    dv += value
                    dc += 1
                else:
                    dv += value - cells[cell]
                cells[cell] = value
                pushed += 1
            counts[row] = pushed
            if dv or (dc and use_count):
                writers.append(route[0])
                value_deltas.append(dv)
                count_deltas.append(dc)
        self._scatter_deltas(writers, value_deltas, count_deltas)

    def _ring_kernel(self, nodes, values) -> None:
        """:meth:`_write_ring` for a long batch: node ids to rows by
        ``searchsorted`` over the sorted writer ids, one stable ``argsort``
        to group the events per writer, :meth:`TupleRing.fold_sorted`."""
        keys = self._ring_keys
        order = nodes.argsort(kind="stable")  # sorted needles search faster
        sought = nodes[order]
        rows = keys.searchsorted(sought)
        np.minimum(rows, len(keys) - 1, out=rows)
        known = keys[rows] == sought
        if not known.all():
            rows, order = rows[known], order[known]
        if not rows.size:
            return
        self._obs_ring_rows.append(rows)
        if len(self._obs_ring_rows) >= 256:  # bounds what read-free streams retain
            self._flush_observed()
        starts, dv, dc = self._ring.fold_sorted(rows, values[order])
        moved = dv != 0
        if "count" in self._spec.sources:
            moved |= dc != 0
        touch = order[starts].argsort()  # first-touch order
        touch = touch[moved[touch]]
        handles = self._ring_handles[rows[starts][touch]]
        self._scatter_deltas(handles, dv[touch], dc[touch])

    def _advance_time_deferred_scalar(
        self, now: float, marker: Any, touched: List[List], use_value: bool
    ) -> None:
        """Batch-mode expiry for the columnar path: evictions fold into the
        touched routes' running delta accumulators."""
        heap = self._expiry_heap
        by_handle = self._ingest_by_handle
        while heap and heap[0][0] <= now:
            _, handle = heapq.heappop(heap)
            route = by_handle.get(handle)
            if route is None:
                continue
            evicted = route[4].evict_until(now)
            if evicted:
                if route[3] is marker:
                    entry = route[2]
                else:
                    entry = route[2] = [0.0, 0, 0]
                    route[3] = marker
                    touched.append(route)
                if use_value:
                    for raw in evicted:
                        entry[0] -= raw
                entry[1] -= len(evicted)

    def _apply_pending_columnar(self, touched: List[List], credit_all: bool) -> None:
        """Propagation phase of a per-event columnar batch: one scatter
        per column.

        Per-writer column deltas come straight off the touched routes'
        accumulators (``value`` columns from the folded value delta,
        ``count`` columns from the count delta); zero-delta writers'
        *state* is skipped exactly as the object kernel skips identity
        deltas.  Observed-push credits are deferred as (writer, events)
        pairs: with ``credit_all`` (tuple windows) every touched writer's
        events — the stream-accurate credit of the ring kernel — otherwise
        (time windows) only moved writers', an eviction-only sweep
        counting one.
        """
        sources = self._spec.sources
        use_value = "value" in sources
        use_count = "count" in sources
        credited, events = self._obs_pending_handles, self._obs_pending_events
        writers: List[int] = []
        value_deltas: List[float] = []
        count_deltas: List[int] = []
        for route in touched:
            entry = route[2]
            dv = entry[0] if use_value else 0
            dc = entry[1] if use_count else 0
            if credit_all:
                credited.append(route[0])
                events.append(entry[2])
            if not dv and not dc:
                continue
            if not credit_all:
                credited.append(route[0])
                events.append(entry[2] or 1)
            writers.append(route[0])
            value_deltas.append(dv)
            count_deltas.append(dc)
        if len(credited) >= 8192:  # bounds what read-free streams retain
            self._flush_observed()
        self._scatter_deltas(writers, value_deltas, count_deltas)

    def _scatter_deltas(self, writers, value_deltas, count_deltas) -> None:
        """Apply per-writer column deltas through the scatter table.

        ``writers`` (handles) and the two delta sequences are aligned, in
        the order the batch hands the writers over: the scatter's
        additions into a shared destination happen in that order.
        """
        w_arr = np.asarray(writers, dtype=np.int64)
        num_writers = w_arr.size
        if not num_writers:
            return
        self._note_moved(w_arr)
        table = self._scatter
        if table is None:
            table = self._build_scatter_table()
        columns = self.values.columns
        deltas = tuple(
            np.asarray(
                value_deltas if source == "value" else count_deltas,
                dtype=column.dtype,
            )
            for source, column in zip(self._spec.sources, columns)
        )
        push_total = 0
        expanded = table.expand(w_arr, push=True) if table.has_push else None
        if expanded is not None:
            idx, counts = expanded
            push_total = idx.size
            dsts = table.push_dst[idx]
            coeff = table.push_coeff[idx]
            reps = np.repeat(np.arange(num_writers, dtype=np.int64), counts)
            for column, delta in zip(columns, deltas):
                np.add.at(column, dsts, coeff * delta[reps])
        # Writer-local state (writers never receive edges, so these slots
        # are disjoint from every scatter destination).
        for column, delta in zip(columns, deltas):
            column[w_arr] += delta
        self.counters.push_ops += push_total

    def writer_step(
        self, handle: int, added: List[Any], evicted: List[Any]
    ) -> Optional[PAO]:
        """Writer-local part of a write: update the window PAO.

        Returns the propagation message for the writer's consumers (a delta
        PAO for group aggregates, an ``(old, new)`` pair for lattice ones)
        or ``None`` when nothing downstream can change.  Exposed as a
        micro-task so the multi-threaded *queueing model* can run it under
        a single node lock.
        """
        agg = self.aggregate
        identity = self._identity
        old = self.values[handle]
        if self.group:
            delta = identity
            for raw in added:
                delta = agg.merge(delta, agg.lift(raw))
            for raw in evicted:
                delta = agg.subtract(delta, agg.lift(raw))
            if delta == identity:
                return None
            self.values[handle] = agg.merge(old, delta)
            return delta
        if evicted:
            buffer = self.buffers[self.overlay.labels[handle]]
            new = agg.combine_raw(buffer.values())
        else:
            new = old
            for raw in added:
                new = agg.merge(new, agg.lift(raw))
        if new == old:
            return None
        self.values[handle] = new
        return (old, new)

    def apply_push(self, src: int, dst: int, message: PAO) -> Optional[PAO]:
        """One micro-task of the queueing model: apply ``src``'s change at
        ``dst``; returns ``dst``'s own outgoing message (or ``None`` when
        propagation stops — at the frontier or on a no-op update)."""
        agg = self.aggregate
        overlay = self.overlay
        self.observed_push[dst] += 1
        if overlay.decisions[dst] is Decision.PULL:
            return None
        if self.group:
            sign = overlay.inputs[dst][src]
            outgoing = message if sign > 0 else agg.negate(message)
            self.values[dst] = agg.merge(self.values[dst], outgoing)
            self.counters.push_ops += 1
            if self.trace is not None:
                self.trace.append(TraceOp(dst, "push", overlay.fan_in(dst)))
            return outgoing
        old, new = message
        snaps = self.snapshots[dst]
        current = self.values[dst]
        if snaps is None:
            # Columnar lattice mode keeps no snapshots: the message's own
            # ``old`` *is* src's previous value, and a recompute gathers
            # the inputs' current column values (identical by the
            # snapshot-mirrors-values invariant, see __init__).
            updated = agg.fast_update(current, old, new)
            if updated is NEED_RECOMPUTE:
                updated = agg.combine(
                    self.values[source] for source in overlay.inputs[dst]
                )
        else:
            previous = snaps.get(src, old)
            snaps[src] = new
            updated = agg.fast_update(current, previous, new)
            if updated is NEED_RECOMPUTE:
                updated = agg.combine(snaps.values())
        self.counters.push_ops += 1
        if self.trace is not None:
            self.trace.append(TraceOp(dst, "push", overlay.fan_in(dst)))
        if updated == current:
            return None
        self.values[dst] = updated
        return (current, updated)

    def _propagate(self, source: int, message: PAO, events: int = 1) -> None:
        """Dispatch a writer's message through the compiled hot path.

        ``events`` is how many stream events the message coalesces: the
        *work* counters reflect the single propagation actually performed,
        but ``observed_push`` — the adaptive controller's estimate of
        stream frequencies — is credited per coalesced event so batched
        and per-event execution see the same traffic.
        """
        self._check_plans()
        if self.group:
            self._run_push_plan(source, message, events)
        elif self._lattice_columns:
            self._propagate_lattice_columns(source, message[0], message[1], events)
        else:
            self._propagate_lattice(source, message, events)

    def _run_push_plan(self, source: int, message: PAO, events: int = 1) -> None:
        """Execute a compiled group push plan (zero per-event traversal)."""
        plan = self._push_plans.get(source)
        if plan is None:
            plan = self._compile_push_plan(source)
        observed = self.observed_push
        values = self.values.data
        trace = self.trace
        scalar = plan.scalar_steps
        if scalar is not None and trace is None:
            for dst in plan.observe:
                observed[dst] += events
            if self._columnar:
                column = self.values.columns[0]
                for dst, sign in scalar:
                    column[dst] += sign * message
            else:
                for dst, sign in scalar:
                    values[dst] += sign * message
            self.counters.push_ops += plan.push_count
            return
        agg = self.aggregate
        merge = agg.merge
        negative = None
        for dst, sign, is_push, fan_in in plan.steps:
            observed[dst] += events
            if not is_push:
                continue
            if sign > 0:
                msg = message
            else:
                if negative is None:
                    negative = agg.negate(message)
                msg = negative
            values[dst] = merge(values[dst], msg)
            if trace is not None:
                trace.append(TraceOp(dst, "push", fan_in))
        self.counters.push_ops += plan.push_count

    def _propagate_lattice(self, source: int, message: PAO, events: int = 1) -> None:
        """Lattice DFS over compiled adjacencies (data-dependent stops)."""
        agg = self.aggregate
        values = self.values.data
        snapshots = self.snapshots
        observed = self.observed_push
        counters = self.counters
        trace = self.trace
        out_cache = self._out_cache
        stack: List[Tuple[int, PAO]] = [(source, message)]
        while stack:
            node, msg = stack.pop()
            out = out_cache.get(node)
            if out is None:
                out = self._compile_out(node)
            old, new = msg
            for dst, _sign, is_push, fan_in in out:
                observed[dst] += events
                if not is_push:
                    continue
                snaps = snapshots[dst]
                previous = snaps.get(node, old)
                snaps[node] = new
                current = values[dst]
                updated = agg.fast_update(current, previous, new)
                if updated is NEED_RECOMPUTE:
                    updated = agg.combine(snaps.values())
                counters.push_ops += 1
                if trace is not None:
                    trace.append(TraceOp(dst, "push", fan_in))
                if updated != current:
                    values[dst] = updated
                    stack.append((dst, (current, updated)))

    def propagate_from(self, source: int, message: PAO) -> None:
        """Uncompiled reference propagation using the micro-steps.

        Kept as the semantic baseline the compiled plans are tested
        against, and for callers (the threaded queueing model) that work
        at micro-task granularity.
        """
        stack: List[Tuple[int, PAO]] = [(source, message)]
        while stack:
            node, msg = stack.pop()
            for dst in self.overlay.outputs[node]:
                outgoing = self.apply_push(node, dst, msg)
                if outgoing is not None:
                    stack.append((dst, outgoing))

    def _writer_updated(
        self, handle: int, added: List[Any], evicted: List[Any]
    ) -> None:
        message = self.writer_step(handle, added, evicted)
        if message is not None:
            self._note_moved((handle,))
            self._propagate(handle, message)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, node: NodeId) -> Any:
        """Process one read: the current value of ``F(N(node))``.

        A pull reader on the columnar store is a batch of one through
        :meth:`_row_columns`, so ``read(n)`` and ``read_batch([n])[0]``
        are the same floating-point computation.
        """
        self._begin_reads(1)
        handle = self.overlay.reader_of.get(node)
        if handle is None:
            return self.aggregate.finalize(self._identity)
        if self._row_reads and self.overlay.decisions[handle] is not Decision.PUSH:
            return self._finalize_columns(self._row_columns((handle,)))[0]
        return self.aggregate.finalize(self._read_interpreted(handle, None))

    def read_batch(self, nodes: Sequence[NodeId]) -> List[Any]:
        """Process many reads: node ids to handles, :meth:`read_handles`,
        unknown nodes answered with the identity.

        The columnar store runs the batch as one pass of the row kernel,
        duplicates collapsed; the object store spans it with one memo dict,
        so overlapping pull plans evaluate each shared subtree once.  Either
        saving shows in ``counters.pull_ops`` (work performed) while
        ``observed_pull`` — the adaptive controller's traffic signal — is
        credited as if every reader evaluated alone.
        """
        if not self.op_timing:
            return self._read_batch_impl(nodes)
        t0 = _monotonic()
        try:
            return self._read_batch_impl(nodes)
        finally:
            self.counters.read_seconds += _monotonic() - t0

    def _read_batch_impl(self, nodes: Sequence[NodeId]) -> List[Any]:
        handles = list(map(self.overlay.reader_of.get, nodes))
        if None not in handles:
            return self.read_handles(handles)
        self.counters.reads += handles.count(None)
        values = iter(self.read_handles([h for h in handles if h is not None]))
        identity = self.aggregate.finalize(self._identity)
        return [identity if h is None else next(values) for h in handles]

    def read_handles(self, handles) -> List[Any]:
        """The values of reader *handles* (as :meth:`changed_handles`
        returns them), in order: what :meth:`read_batch` runs on, public
        for callers already in handle space (the serve layer's diff)."""
        self._begin_reads(len(handles))
        if not len(handles):
            return []
        if self._row_reads:
            return self._finalize_columns(self._row_columns(handles))
        finalize = self.aggregate.finalize
        memo: Dict = {}
        return [finalize(self._read_interpreted(handle, memo)) for handle in handles]

    @property
    def float_reads(self) -> bool:
        """Whether reads are one float64 column as is (SUM over the
        columnar store): :meth:`read_handle_column` answers, and the
        values it returns are exactly :meth:`read_handles`'."""
        return (
            self._row_reads
            and self._plain_reads
            and self._spec.dtypes == ("float64",)
        )

    def read_handle_column(self, handles):
        """:meth:`read_handles` as one float64 array, for a runtime with
        :attr:`float_reads` — no Python float per row."""
        self._begin_reads(len(handles))
        if not len(handles):
            return np.empty(0, dtype=np.float64)
        return self._row_columns(handles)[0]

    def _begin_reads(self, count: int) -> None:
        """Once per read call, however many rows it carries."""
        self.counters.reads += count
        if self._time_window:
            self._advance_time(self.clock)
        self._check_plans()

    def _finalize_columns(self, columns) -> List[Any]:
        """Column scalars to results — the one place the kernel's arrays
        become Python objects: the column's ``tolist()`` as is for an
        aggregate with ``plain_reads`` (SUM, COUNT), a per-row ``unpack``
        and ``finalize`` otherwise."""
        if self._plain_reads:
            return columns[0].tolist()
        unpack, finalize = self._spec.unpack, self.aggregate.finalize
        scalars = zip(*[column.tolist() for column in columns])
        return [finalize(unpack(cols)) for cols in scalars]

    def _row_columns(self, handles):
        """The columnar read kernel: the accumulators of reader ``handles``
        (non-empty, any order, duplicates allowed) as one array per value
        column, aligned with ``handles``.

        Duplicates collapse, missing rows compile (first touch), and the
        batch's rows become two flat index arrays into the arena — two
        slices for a batch of one, all that differs for it.  Leaf entries
        reduce with one gather × coefficient and one ``reduceat`` per
        column (empty rows keep the identity fill); observe entries credit
        ``observed_pull`` with one scatter, once per *requested* reader;
        ``counters.pull_ops`` grows by the leaf entries folded.
        """
        handles = np.asarray(handles, dtype=np.int64)
        rows = self._pull_rows
        inverse = repeats = None
        if handles.size == 1:
            root = int(handles[0])
            if rows.meta[0, root] < 0:
                self._compile_pull_row(root)
            start, leaves, observes, ops = rows.meta[:, root].tolist()
            leaf_at = slice(start, start + leaves)
            observe_at = slice(leaf_at.stop, leaf_at.stop + observes)
            offsets = np.zeros(1, dtype=np.int64)
            live = slice(0, min(leaves, 1))  # the one row, unless it is empty
        else:
            requested = handles
            handles = self._distinct(requested)
            inverse = np.searchsorted(handles, requested)
            if handles.size < requested.size:
                repeats = np.bincount(inverse)
            meta = rows.meta[:, handles]
            if meta[0].min() < 0:
                for root in handles[meta[0] < 0].tolist():
                    self._compile_pull_row(root)
                meta = rows.meta[:, handles]
            start, leaves, observes, ops = meta
            ops = int(ops.sum())
            leaf_at, offsets = ragged_index(start, leaves)
            observe_at, _ = ragged_index(start + leaves, observes)
            live = leaves > 0
        self.counters.pull_ops += ops
        handle_of, weight_of = rows.entries
        credit = weight_of[observe_at]
        if repeats is not None:
            credit = credit * np.repeat(repeats, observes)
        np.add.at(self.observed_pull, handle_of[observe_at], credit)
        leaf = handle_of[leaf_at]
        coeff = weight_of[leaf_at]
        bounds = offsets[live]
        fold = self._row_fold
        columns = []
        for column, fill in zip(self.values.columns, self._spec.fills):
            gathered = column[leaf]
            if fold is np.add:
                gathered = gathered * coeff
            out = np.full(handles.size, fill, dtype=column.dtype)
            if bounds.size:
                out[live] = fold.reduceat(gathered, bounds)
            columns.append(out if inverse is None else out[inverse])
        return columns

    def _read_interpreted(self, handle: int, memo: Optional[Dict]) -> PAO:
        """One reader's PAO without the row kernel: a push reader's stored
        value, or its compiled :class:`PullPlan` run (through the per-batch
        ``memo`` when one is given)."""
        if self.overlay.decisions[handle] is Decision.PUSH:
            self.observed_pull[handle] += 1
            if self.trace is not None:
                self.trace.append(TraceOp(handle, "read", 1))
            return self.values[handle]
        plan = self._pull_plans.get(handle)
        if plan is None:
            plan = self._compile_pull_plan(handle)
        if memo is None:
            return self._run_pull_plan(plan)
        return self._run_pull_plan_memo(plan, handle, memo)

    def _run_pull_plan_memo(self, plan: PullPlan, root: int, memo: Dict) -> PAO:
        """Interpreted pull with per-batch subtree memoization.

        Identical merge order to :meth:`_run_pull_plan`, except that a
        nested span whose node is already in the memo folds the cached
        accumulator and skips its sub-program (crediting the skipped
        handles' observed-pull frequencies), and every completed span
        stores its accumulator for later readers in the batch.
        """
        stamp = self._plan_stamp
        observed = self.observed_pull
        cached = memo.get((root, stamp), _MISS)
        if cached is not _MISS:
            for h in plan.observe_all:
                observed[h] += 1
            self.pull_memo_hits += 1
            return cached
        agg = self.aggregate
        merge = agg.merge
        subtract = agg.subtract
        values = self.values.data
        trace = self.trace
        spans = plan.spans
        exit_nodes = plan.exit_nodes
        program = plan.program
        length = len(program)
        acc: PAO = None
        acc_stack: List[PAO] = []
        ops = 0
        index = 0
        while index < length:
            op, a, b = program[index]
            if op == _OP_LEAF:
                observed[a] += 1
                value = values[a]
                acc = merge(acc, value) if b > 0 else subtract(acc, value)
                ops += 1
            elif op == _OP_ENTER:
                span = spans.get(index)
                if span is not None:
                    exit_index, span_node, span_observe = span
                    hit = memo.get((span_node, stamp), _MISS)
                    if hit is not _MISS:
                        for h in span_observe:
                            observed[h] += 1
                        sign = program[exit_index][1]
                        acc = merge(acc, hit) if sign > 0 else subtract(acc, hit)
                        ops += 1
                        self.pull_memo_hits += 1
                        index = exit_index + 1
                        continue
                observed[a] += 1
                if trace is not None:
                    trace.append(TraceOp(a, "pull", b))
                acc_stack.append(acc)
                acc = self._identity
            else:  # _OP_EXIT
                child = acc
                memo[(exit_nodes[index], stamp)] = child
                acc = acc_stack.pop()
                acc = merge(acc, child) if a > 0 else subtract(acc, child)
                ops += 1
            index += 1
        self.counters.pull_ops += ops
        memo[(root, stamp)] = acc
        return acc

    def _run_pull_plan(self, plan: PullPlan) -> PAO:
        """Run a compiled pull program: no recursion, no dict lookups."""
        agg = self.aggregate
        merge = agg.merge
        subtract = agg.subtract
        values = self.values.data
        observed = self.observed_pull
        trace = self.trace
        acc: PAO = None
        acc_stack: List[PAO] = []
        for op, a, b in plan.program:
            if op == _OP_LEAF:
                observed[a] += 1
                value = values[a]
                acc = merge(acc, value) if b > 0 else subtract(acc, value)
            elif op == _OP_ENTER:
                observed[a] += 1
                if trace is not None:
                    trace.append(TraceOp(a, "pull", b))
                acc_stack.append(acc)
                acc = self._identity
            else:  # _OP_EXIT: fold the finished child into its parent
                child = acc
                acc = acc_stack.pop()
                acc = merge(acc, child) if a > 0 else subtract(acc, child)
        self.counters.pull_ops += plan.pull_ops
        return acc

    def _pull(self, handle: int) -> PAO:
        """Uncompiled recursive pull (reference implementation)."""
        agg = self.aggregate
        overlay = self.overlay
        self.observed_pull[handle] += 1
        if self.trace is not None:
            self.trace.append(TraceOp(handle, "pull", overlay.fan_in(handle)))
        acc = self._identity
        for src, sign in overlay.inputs[handle].items():
            if overlay.decisions[src] is Decision.PUSH:
                self.observed_pull[src] += 1
                value = self.values[src]
            else:
                value = self._pull(src)
            acc = agg.merge(acc, value) if sign > 0 else agg.subtract(acc, value)
            self.counters.pull_ops += 1
        return acc

    # ------------------------------------------------------------------
    # sliding-window expiry
    # ------------------------------------------------------------------

    def _advance_time(self, now: float) -> None:
        while self._expiry_heap and self._expiry_heap[0][0] <= now:
            _, handle = heapq.heappop(self._expiry_heap)
            node = self.overlay.labels[handle]
            buffer = self.buffers.get(node)
            if buffer is None:
                continue
            evicted = buffer.evict_until(now)
            if evicted:
                self._writer_updated(handle, [], evicted)

    def _advance_time_deferred(
        self, now: float, pending: Dict[int, Tuple[List[Any], List[Any]]]
    ) -> None:
        """Batch-mode expiry: buffers advance now, propagation is deferred
        into ``pending`` so it coalesces with the batch's writes."""
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            _, handle = heapq.heappop(heap)
            node = self.overlay.labels[handle]
            buffer = self.buffers.get(node)
            if buffer is None:
                continue
            evicted = buffer.evict_until(now)
            if evicted:
                entry = pending.get(handle)
                if entry is None:
                    entry = pending[handle] = ([], [])
                entry[1].extend(evicted)

    # ------------------------------------------------------------------
    # decision changes (adaptive execution, Section 4.8)
    # ------------------------------------------------------------------

    def set_decision(self, handle: int, decision: Decision) -> None:
        """Flip one node's dataflow decision, materializing state as needed.

        The caller must preserve consistency (the adaptive controller only
        flips push/pull *frontier* nodes, which is always safe).  Only the
        compiled plans whose traversal touches ``handle`` are invalidated.
        """
        if self.overlay.decisions[handle] is decision:
            return
        self._check_plans()
        if decision is Decision.PUSH:
            for src in self.overlay.inputs[handle]:
                if self.overlay.decisions[src] is not Decision.PUSH:
                    raise OverlayError(
                        "cannot flip to push: an input is not push (not a frontier node)"
                    )
            self.overlay.set_decision(handle, decision)
            self._initialize_push_node(handle)
        else:
            for dst in self.overlay.outputs[handle]:
                if self.overlay.decisions[dst] is Decision.PUSH:
                    raise OverlayError(
                        "cannot flip to pull: a consumer is push (not a frontier node)"
                    )
            self.overlay.set_decision(handle, decision)
            self.values[handle] = None
            self.snapshots[handle] = None
        self.invalidate_plans((handle,))
        self.overlay.pop_dirty()
        self._plan_stamp = (self.overlay.version, self.overlay.decision_version)

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def reference_read(self, input_nodes) -> Any:
        """Brute-force evaluation straight from the window buffers.

        This bypasses the overlay entirely and is the oracle the test suite
        compares engine reads against.
        """
        agg = self.aggregate
        acc = self._identity
        for node in input_nodes:
            buffer = self.buffers.get(node)
            if buffer is None:
                continue
            if self._time_window:
                buffer.evict_until(self.clock)
            for raw in buffer.values():
                acc = agg.merge(acc, agg.lift(raw))
        return agg.finalize(acc)

    def rebuild(self, dirty: Optional[Iterable[int]] = None) -> "Runtime":
        """Re-derive all runtime state from the (possibly mutated) overlay.

        Window buffers are preserved by graph-node id; everything else is
        recomputed.  With ``dirty`` (the overlay handles touched since the
        last rebuild, e.g. from :meth:`Overlay.pop_dirty`), only the
        compiled plans reaching those handles are invalidated; otherwise
        the whole plan cache is dropped.  Returns ``self`` for chaining.
        """
        self._expiry_heap.clear()
        # The observed counters restart at zero below: credits still deferred
        # die with them rather than expand over a handle space that moved.
        self._obs_pending_handles, self._obs_pending_events = [], []
        self._obs_ring_rows, self._obs_ring_nodes = [], []
        # Pending moved writers cross the surgery by node id (see
        # pop_changed_writers).
        moved = self.pop_changed_writer_nodes()
        self.invalidate_plans(dirty)
        self._plan_stamp = (self.overlay.version, self.overlay.decision_version)
        self._materialize()
        self.note_changed_writers(moved)
        return self
