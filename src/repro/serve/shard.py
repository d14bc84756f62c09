"""Shard side of the serving layer: spec, host, step, and worker loop.

A :class:`ShardSpec` is the *picklable* description of one shard's slice of
the deployment — the data graph, the query's components, the shard's reader
set, and the engine configuration.  It travels to a worker process (spawn
context: nothing is inherited, everything arrives by pickle) where
:meth:`ShardSpec.build` constructs the actual :class:`ShardHost`: a full
:class:`~repro.core.engine.EAGrEngine` compiled for exactly this shard's
readers (the paper's Conclusions partitioning: "for each machine, an
overlay can be constructed for the readers assigned to that machine"),
plus the shard-local subscription state.

The host is transport-agnostic: :meth:`ShardHost.handle` maps one request
tuple to one reply tuple (see :mod:`repro.serve.messages`).  Around it sits
:class:`RequestStep` — kill points and the empty-acknowledgement drop —
the one per-request step of every deployment: :func:`shard_worker`, the
single process entry point, drives it over the worker half of the
shard's transport (:mod:`repro.serve.transport`), and the in-process
executor calls it directly — same code path, no channel — which is what
the CI smoke tests run on.
"""

from __future__ import annotations

import copy
import pickle
from itertools import repeat
from time import monotonic as _monotonic
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.query import EgoQuery
from repro.serve import frames as _frames
from repro.serve.messages import (
    OP_CHECKPOINT,
    OP_DRAIN,
    OP_READ,
    OP_STATS,
    OP_STOP,
    OP_SUBSCRIBE,
    OP_UNSUBSCRIBE,
    OP_WRITE,
    R_ERR,
    R_OK,
    R_STOPPED,
    R_WRITE,
    ShardCheckpoint,
)

NodeId = Hashable

#: Minimum refresh window for the shard load gauges (seconds); scrapes
#: closer together than this reuse the previously published values.
LOAD_WINDOW = 0.05


class _ReaderMembership:
    """Picklable reader predicate: membership in the shard's reader set.

    The front-end evaluates the user's own predicate *once* when it
    partitions the reader space, so the set already encodes it — no user
    callable (potentially an unpicklable lambda) needs to travel.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: FrozenSet[NodeId]) -> None:
        self.nodes = nodes

    def __call__(self, node: NodeId) -> bool:
        return node in self.nodes


class ShardSpec:
    """Everything a worker process needs to stand up one shard.

    Parameters
    ----------
    graph:
        The data graph (pickled whole; listeners are dropped in transit —
        see :meth:`repro.graph.dynamic_graph.DynamicGraph.__getstate__`).
    query:
        The deployment-wide query.  The shard rebuilds it with a
        membership predicate over ``readers`` (the user predicate is
        already folded into the partition).
    shard_id / num_shards:
        This shard's position in the deployment.
    readers:
        The reader nodes assigned to this shard.
    engine_kwargs:
        Forwarded to the shard's :class:`~repro.core.engine.EAGrEngine`
        (overlay algorithm, dataflow mode, ...).  Unpicklable engine
        options (e.g. a calibrated cost model holding lambdas) cannot
        travel to worker processes; configure those per-shard via
        defaults instead.
    checkpoint:
        Optional :class:`~repro.serve.messages.ShardCheckpoint` to restore
        on build — the shard resumes with the checkpointed window buffers,
        watch registry, applied batch number and write stamp instead of a
        blank slate (see :meth:`with_checkpoint`).
    faults:
        Optional fault-injection plan for the worker loop (used by the
        crash/restart test harness): ``{"exit_before_writes": N}`` kills
        the worker on *receiving* its N-th write batch without applying
        it; ``{"exit_after_writes": N}`` kills it after *applying* the
        N-th batch but before acknowledging — the applied-but-unacked
        window a real crash exposes.  ``None`` (default) disables both.
    metrics:
        Whether the shard keeps a live metrics registry (apply/recompute
        histograms, engine op seconds — see ``repro.obs``), which the
        front-end reads back with ``OP_STATS``.
    """

    def __init__(
        self,
        graph,
        query: EgoQuery,
        shard_id: int,
        num_shards: int,
        readers: FrozenSet[NodeId],
        engine_kwargs: Optional[Dict[str, Any]] = None,
        checkpoint: Optional[ShardCheckpoint] = None,
        faults: Optional[Dict[str, int]] = None,
        metrics: bool = True,
    ) -> None:
        self.graph = graph
        # The user's predicate is already folded into ``readers`` by the
        # front-end's partition pass; strip it here so an unpicklable
        # callable (a lambda) never travels to the worker process.
        if query.predicate is not None:
            query = EgoQuery(
                aggregate=query.aggregate,
                window=query.window,
                neighborhood=query.neighborhood,
                predicate=None,
                mode=query.mode,
            )
        self.query = query
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.readers = frozenset(readers)
        self.engine_kwargs = dict(engine_kwargs or {})
        self.checkpoint = checkpoint
        self.faults = faults
        self.metrics = metrics

    def with_checkpoint(
        self, checkpoint: Optional[ShardCheckpoint]
    ) -> "ShardSpec":
        """A shallow copy of this spec that restores ``checkpoint`` on build.

        The graph and query are shared (they are immutable from the
        shard's point of view); only the restart state differs.  The
        front-end uses this to rebuild a dead worker from its last known
        checkpoint.
        """
        spec = copy.copy(self)
        spec.checkpoint = checkpoint
        return spec

    def shard_query(self) -> EgoQuery:
        """The deployment query restricted to this shard's readers."""
        return EgoQuery(
            aggregate=self.query.aggregate,
            window=self.query.window,
            neighborhood=self.query.neighborhood,
            predicate=_ReaderMembership(self.readers),
            mode=self.query.mode,
        )

    def build(self) -> "ShardHost":
        """Construct the live shard (engine + subscription state)."""
        return ShardHost(self)


class ShardHost:
    """One shard's engine plus its slice of the subscription registry.

    After every applied write batch the host diffs *exactly* the watched
    egos in the runtime's changed-reader report against their last
    notified values — so a quiet batch costs one empty report, a busy
    batch costs O(affected watched egos), and no batch ever scans the full
    subscriber table.  The whole diff runs in overlay-handle space:

    * the watched egos are a bool mask over the handle space, and the
      diff baseline is a per-handle *value column* beside it — a valid
      mask, the last notified value, and the handle's ego (an int64
      label column when every watched ego is an ``int``).  All of it is
      rebuilt from :attr:`watchers` and the node-keyed baseline dict on
      the same stamp, ``(runtime, overlay version)``;
    * a report is one gather of the watched candidates, one compare
      against the baseline, one ``flatnonzero``, and a
      :class:`~repro.serve.frames.ChangeFrame` built from the surviving
      arrays, labels gathered last — so only egos that actually changed
      ever become node ids.  On a runtime whose reads are one float64
      column (``Runtime.float_reads``: SUM over the columnar store) the
      values stay an array end to end; any other store compares row by
      row against an object column, same order, same rows.

    The node-keyed dict is the column's cold form: what a
    :class:`~repro.serve.messages.ShardCheckpoint` carries and what
    watched egos without a reader handle keep.  The column is folded
    into it at checkpoint (a copy), subscribe, unsubscribe and rebuild,
    and loaded from it on the next batch; restore only replaces it.
    """

    def __init__(self, spec: ShardSpec) -> None:
        from repro.core.engine import EAGrEngine

        self.spec = spec
        self.shard_id = spec.shard_id
        self.engine = EAGrEngine(spec.graph, spec.shard_query(), **spec.engine_kwargs)
        # -- observability (repro.obs): a local slot-backed registry.
        # Disabled registries hand out shared no-op metrics, so the
        # metrics-off hot path pays one truthy check per batch.
        from repro.obs import MetricsRegistry, declare_shard_metrics

        self._metrics_on = bool(getattr(spec, "metrics", True))
        self.metrics_registry = MetricsRegistry(enabled=self._metrics_on)
        self.metrics = declare_shard_metrics(self.metrics_registry)
        self.engine.runtime.op_timing = self._metrics_on
        #: ego -> subscribers watching it (dict-as-ordered-set).
        self.watchers: Dict[NodeId, Dict[Hashable, None]] = {}
        #: ego -> last value delivered (or baselined at subscribe time),
        #: for every baselined ego the value column does not hold.
        self._baseline: Dict[NodeId, Any] = {}
        #: Monotone count of write batches applied by *this* host instance.
        self.batches = 0
        #: Highest front-end batch number applied (checkpoint-restored, so
        #: a redo-log replay after restart skips what already landed).
        self.applied_through = 0
        self.notices_emitted = 0
        # -- windowed load accounting (shard_busy_fraction / _applied_eps).
        # Busy seconds accumulate per applied batch; the gauges refresh on
        # the next scrape/publish at least LOAD_WINDOW after the last one,
        # so they read as "fraction of the recent window spent applying".
        self._busy_window = 0.0
        self._applied_window = 0
        self._load_mark = _monotonic()
        # The watched egos as a mask over the handle space of one
        # (runtime, overlay version), and the baseline as columns over the
        # same space; a ``None`` stamp makes the next batch rebuild all of
        # them from ``self.watchers`` and ``self._baseline``.
        self._watch_mask = None
        self._watch_stamp: Optional[Tuple[Any, int]] = None
        #: the watched handles, their egos, and the baseline's valid mask
        #: and values per handle (``None``: no column, the dict is whole).
        self._column_handles = None
        self._labels = None
        self._base_valid = None
        self._base_values = None
        if spec.checkpoint is not None:
            self._restore(spec.checkpoint)

    def _restore(self, ck: ShardCheckpoint) -> None:
        """Resume from a checkpoint: exact value state, watch registry,
        batch/stamp positions (see :class:`ShardCheckpoint`)."""
        if ck.shard_id != self.shard_id:
            raise ValueError(
                f"checkpoint for shard {ck.shard_id} cannot restore "
                f"shard {self.shard_id}"
            )
        runtime = self.engine.runtime
        # The engine's whole value state is derivable from the writer
        # window buffers: swap in the checkpointed ones and re-materialize.
        # Copies — an in-process host shares ``ck`` with whoever keeps it
        # as the restart baseline, and live writes must not edit that.
        runtime.buffers.clear()
        runtime.buffers.update(pickle.loads(pickle.dumps(ck.buffers)))
        runtime.clock = ck.clock
        runtime.stamp = ck.stamp
        runtime.rebuild()
        self.applied_through = ck.applied_through
        self.watchers = {
            ego: dict.fromkeys(subs) for ego, subs in ck.watchers.items()
        }
        self._baseline = dict(ck.baseline)
        self._drop_column()

    def checkpoint(self) -> ShardCheckpoint:
        """Snapshot this shard's restart state (pickle-isolated).

        The pickle round-trip both deep-copies (an in-process host keeps
        mutating its live buffers afterwards) and proves the checkpoint
        can cross a process boundary — the in-process executor therefore
        exercises the same serialization surface as the real deployment.
        """
        runtime = self.engine.runtime
        ck = ShardCheckpoint(
            shard_id=self.shard_id,
            applied_through=self.applied_through,
            stamp=runtime.stamp,
            clock=runtime.clock,
            buffers=dict(runtime.buffers),
            watchers={ego: tuple(subs) for ego, subs in self.watchers.items()},
            baseline=self._baseline_dict(),
        )
        return pickle.loads(pickle.dumps(ck))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def apply_write_batch(
        self, batch_no: Optional[int], items: List[Tuple]
    ) -> Tuple[int, Any]:
        """Apply one write batch; returns ``(count, changes)``.

        ``batch_no`` is the front-end's per-shard monotone batch number;
        a batch at or below :attr:`applied_through` was already absorbed
        (this request is a redo-log replay after a restart) and is
        skipped, making replays idempotent.  ``items`` is a triple list
        or a packed :class:`~repro.core.statestore.WriteFrame` (the
        engine dispatches on the type).  ``changes`` reports every
        watched ego whose aggregate value actually changed — one row per
        ego however many subscribers watch it (the front-end fans out) —
        stamped with the runtime's global write stamp (stable across
        restarts): candidates are the engine's changed reader *handles*
        (moved writers' closures plus structurally affected readers)
        intersected with the watch mask, a re-read of the surviving
        handles (one pass of the runtime's read kernel) compared against
        the baseline column filters out cancellations, and only the rows
        left are turned into node ids (see :meth:`_diff`).  Rows come in
        ascending overlay handle order; nothing may rely on more than
        "one row per ego".
        They travel as one :class:`~repro.serve.frames.ChangeFrame` when
        they pass the packing gate and as a list of ``(ego, value,
        stamp)`` triples otherwise.
        """
        if batch_no is not None and batch_no <= self.applied_through:
            return 0, []
        engine = self.engine
        metered = self._metrics_on
        if metered:
            # Recompiles swap the runtime instance; keep its op-timing
            # flag in lockstep (one attribute store per batch).
            engine.runtime.op_timing = True
            t0 = _monotonic()
        count = engine.write_batch(items)
        if metered:
            t1 = _monotonic()
            self.metrics["shard_apply_seconds"].observe(t1 - t0)
            self.metrics["shard_batches_applied"].inc()
            self.metrics["shard_writes_applied"].inc(count)
        if batch_no is not None:
            self.applied_through = batch_no
        self.batches += 1
        ingress = getattr(items, "ingress", None)
        try:
            watchers = self.watchers
            if not watchers:
                # Nobody is listening: consume the pending changed-writer set
                # (keeping it bounded) without compiling reader closures.
                engine.runtime.pop_changed_writers()
                return count, []
            frame = self._diff(engine, ingress)
            if frame is None:
                return count, []
            notes = len(frame)
            self.notices_emitted += notes
            if metered:
                self.metrics["shard_notices_emitted"].inc(notes)
            return count, frame
        finally:
            if metered:
                # Everything after the scatter — change diffing, the
                # filtering re-read, notice/frame packing — is recompute
                # + egress work.
                end = _monotonic()
                self.metrics["shard_recompute_seconds"].observe(end - t1)
                self._busy_window += end - t0
                self._applied_window += count

    def _diff(self, engine, ingress: Optional[float]):
        """The watched egos whose value the batch changed, against the
        baseline column, which they then update: a
        :class:`~repro.serve.frames.ChangeFrame` (or ``(ego, value,
        stamp)`` triples when the rows do not pack), ``None`` when no
        row survives.  Rows come in ascending handle order."""
        changed = engine.changed_handles()
        self._sync_column()
        kept = changed[self._watch_mask[changed]]
        if not kept.size:
            return None
        stamp = engine.runtime.stamp
        if self._base_values.dtype == np.float64:
            # Missing baselines hold NaN, which compares unequal to
            # everything: one compare covers them.
            values = engine.read_handle_column(kept)
            moved = np.flatnonzero(values != self._base_values[kept])
            if not moved.size:
                return None
            hit = kept[moved]
            values = values[moved]
            self._base_values[hit] = values
            self._base_valid[hit] = True
            egos = self._label(hit)
            if egos.dtype == np.int64:
                return _frames.ChangeFrame(egos, values, stamp, ingress)
            return list(zip(egos.tolist(), values.tolist(), repeat(stamp)))
        # Object values (the object store, per-row finalize): the same
        # compare row by row, against the object column.
        values = engine.read_handles(kept)
        hit: List[int] = []
        fresh: List[Any] = []
        for handle, value, known, old in zip(
            kept.tolist(),
            values,
            self._base_valid[kept].tolist(),
            self._base_values[kept].tolist(),
        ):
            if known and value == old:
                continue
            self._base_values[handle] = value
            hit.append(handle)
            fresh.append(value)
        if not hit:
            return None
        self._base_valid[hit] = True
        egos = self._label(np.asarray(hit, dtype=np.int64))
        # the ingress frames' lossless gate: int egos, float values
        if egos.dtype == np.int64 and all(isinstance(v, float) for v in fresh):
            return _frames.ChangeFrame(
                egos, np.asarray(fresh, dtype=np.float64), stamp, ingress
            )
        return list(zip(egos.tolist(), fresh, repeat(stamp)))

    def _label(self, handles):
        """The egos of watched ``handles``: one gather from the label
        column, the only place the diff turns handles into node ids."""
        return self._labels[handles]

    def _sync_column(self) -> None:
        """Rebuild the watch mask and the baseline column when the watch
        set was edited or the engine's runtime or overlay is no longer
        the one they were built for."""
        engine = self.engine
        runtime = engine.runtime
        stamp = (runtime, engine.overlay.version)
        if stamp == self._watch_stamp:
            return
        self._drop_column()
        reader_of = engine.overlay.reader_of
        egos = [ego for ego in self.watchers if ego in reader_of]
        handles = np.fromiter(
            (reader_of[ego] for ego in egos), dtype=np.int64, count=len(egos)
        )
        size = engine.overlay.num_nodes
        mask = np.zeros(size, dtype=np.bool_)
        mask[handles] = True
        if runtime.float_reads:
            values = np.full(size, np.nan, dtype=np.float64)
        else:
            values = np.empty(size, dtype=object)
        packs = all(type(ego) is int for ego in egos)
        labels = np.zeros(size, dtype=np.int64 if packs else object)
        if packs:
            labels[handles] = egos
        valid = np.zeros(size, dtype=np.bool_)
        baseline = self._baseline
        for ego, handle in zip(egos, handles.tolist()):
            if not packs:
                labels[handle] = ego  # one by one: an ego may be a tuple
            if ego in baseline:
                values[handle] = baseline.pop(ego)
                valid[handle] = True
        self._watch_mask = mask
        self._column_handles = handles
        self._labels = labels
        self._base_valid = valid
        self._base_values = values
        self._watch_stamp = stamp

    def _column_items(self):
        """The column's baselines as ``(egos, values)`` lists."""
        handles = self._column_handles
        if handles is None:
            return [], []
        held = handles[self._base_valid[handles]]
        return self._labels[held].tolist(), self._base_values[held].tolist()

    def _drop_column(self) -> None:
        """Fold the column back into the node-keyed dict and retire it
        (with the watch mask: the next batch rebuilds both)."""
        self._baseline.update(zip(*self._column_items()))
        self._column_handles = None
        self._labels = self._base_valid = self._base_values = None
        self._watch_stamp = None

    def _baseline_dict(self) -> Dict[NodeId, Any]:
        """Every baseline, node-keyed (a copy; the column stays live)."""
        baseline = dict(self._baseline)
        baseline.update(zip(*self._column_items()))
        return baseline

    def subscribe(
        self, subscriber: Hashable, nodes: List[NodeId]
    ) -> Tuple[Dict[NodeId, Any], int]:
        """Watch ``nodes`` for ``subscriber``; returns ``(snapshot, stamp)``.

        The baseline equals the current value, so notifications fire
        exactly for changes *after* the subscription (no spurious initial
        delivery).  ``stamp`` is the runtime's current global write stamp
        — the front-end seeds its per-ego replay filter with it, so a
        post-crash redo replay of batches that predate this subscription
        is never delivered to the new subscriber.
        """
        self._drop_column()
        baseline = self._baseline
        snapshot: Dict[NodeId, Any] = {}
        fresh = [node for node in nodes if node not in baseline]
        if fresh:
            for node, value in zip(fresh, self.engine.read_batch(fresh)):
                baseline[node] = value
        for node in nodes:
            self.watchers.setdefault(node, {})[subscriber] = None
            snapshot[node] = baseline[node]
        return snapshot, self.engine.runtime.stamp

    def unsubscribe(
        self, subscriber: Hashable, nodes: Optional[List[NodeId]] = None
    ) -> int:
        """Stop watching ``nodes`` (``None``: everything); returns removals."""
        self._drop_column()
        targets = list(self.watchers) if nodes is None else nodes
        removed = 0
        for node in targets:
            watching = self.watchers.get(node)
            if watching is not None and watching.pop(subscriber, _MISSING) is not _MISSING:
                removed += 1
                if not watching:
                    del self.watchers[node]
                    self._baseline.pop(node, None)
        return removed

    def metrics_values(self):
        """The registry's flat value array, engine gauges refreshed.

        This is what ``stats()`` carries to the front-end, in the
        ``repro.obs.schema.SHARD_METRICS`` layout.
        """
        counters = self.engine.counters
        self.metrics["shard_engine_write_seconds"].set(counters.write_seconds)
        self.metrics["shard_engine_read_seconds"].set(counters.read_seconds)
        now = _monotonic()
        window = now - self._load_mark
        if window >= LOAD_WINDOW:
            self.metrics["shard_busy_fraction"].set(
                min(1.0, self._busy_window / window)
            )
            self.metrics["shard_applied_eps"].set(self._applied_window / window)
            self._busy_window = 0.0
            self._applied_window = 0
            self._load_mark = now
        return self.metrics_registry.values_snapshot()

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot (counters, backend, registry sizes)."""
        counters = self.engine.counters
        return {
            "shard": self.shard_id,
            "readers": len(self.engine.overlay.reader_of),
            "batches": self.batches,
            "writes": counters.writes,
            "reads": counters.reads,
            "push_ops": counters.push_ops,
            "pull_ops": counters.pull_ops,
            "watched_egos": len(self.watchers),
            "notices_emitted": self.notices_emitted,
            "value_store_backend": self.engine.value_store_backend,
            # The shard-metrics carrier (SHARD_METRICS layout).
            "metrics_values": (
                list(self.metrics_values()) if self._metrics_on else None
            ),
        }

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def handle(self, request: Tuple) -> Tuple:
        """Map one request tuple to one reply tuple (never raises)."""
        op = request[0]
        seq = request[1]
        try:
            if op == OP_WRITE:
                count, changes = self.apply_write_batch(request[2], request[3])
                return (R_WRITE, seq, count, changes)
            if op == OP_READ:
                return (R_OK, seq, self.engine.read_batch(request[2]))
            if op == OP_SUBSCRIBE:
                return (R_OK, seq, self.subscribe(request[2], request[3]))
            if op == OP_UNSUBSCRIBE:
                return (R_OK, seq, self.unsubscribe(request[2], request[3]))
            if op == OP_DRAIN:
                return (R_OK, seq, self.batches)
            if op == OP_STATS:
                return (R_OK, seq, self.stats())
            if op == OP_CHECKPOINT:
                return (R_OK, seq, self.checkpoint())
            if op == OP_STOP:
                return (R_STOPPED, seq, None)
            return (R_ERR, seq, f"unknown op {op!r}")
        except Exception as error:  # noqa: BLE001 - reply, don't kill the loop
            return (R_ERR, seq, f"{type(error).__name__}: {error}")


#: Sentinel distinguishing "not watching" from a stored None.
_MISSING = object()


class RequestStep:
    """One request through one shard — the single per-request step.

    ``step(request)`` is: kill points → :meth:`ShardHost.handle` → the
    reply to send, or ``None`` when the shard just died at a kill point
    or the reply is an empty write acknowledgement that may be dropped.
    It is driven by :func:`shard_worker` and, directly, by
    :class:`~repro.serve.executors.InProcessShardExecutor` — so kill
    points, replay idempotency and stamp discipline cannot differ
    between deployments.

    Parameters
    ----------
    die:
        What a triggered ``spec.faults`` kill point calls: on
        *receiving* the N-th write batch (``exit_before_writes``, batch
        lost unapplied) or after *applying* it, before the reply leaves
        (``exit_after_writes``, the applied-but-unacknowledged window).
    drop_empty_acks:
        Whether an ``R_WRITE`` with an empty change report is dropped
        (the worker process) or returned (in-process).  Requests are
        FIFO and an ``R_WRITE`` has one consumer, the front-end's
        ``_deliver``, which returns at once on an empty report — so over
        a pipe an empty acknowledgement is pure codec traffic.
    """

    def __init__(
        self, spec: ShardSpec, host: "ShardHost", die, drop_empty_acks: bool = False
    ) -> None:
        self._host = host
        self._die = die
        self._drop_empty_acks = drop_empty_acks
        faults = spec.faults or {}
        self._exit_before = faults.get("exit_before_writes")
        self._exit_after = faults.get("exit_after_writes")
        self._writes_seen = 0

    def __call__(self, request: Tuple) -> Optional[Tuple]:
        host = self._host
        if request[0] != OP_WRITE:
            return host.handle(request)
        self._writes_seen += 1
        if self._exit_before is not None and self._writes_seen >= self._exit_before:
            self._die()  # batch received, never applied
            return None
        reply = host.handle(request)
        if self._exit_after is not None and self._writes_seen >= self._exit_after:
            self._die()  # applied, but no reply left
            return None
        if self._drop_empty_acks and reply[0] == R_WRITE and not len(reply[3]):
            return None
        return reply


def shard_worker(spec: ShardSpec, channel) -> None:
    """Process entry point: pump a transport through a fresh shard host.

    Spawn-safe: everything arrives via the pickled ``spec`` and
    ``channel``, the worker half of the shard's transport
    (:mod:`repro.serve.transport`).  The loop is single-threaded and the
    transport is FIFO, so request order *is* apply order — per-shard
    read-your-writes.  Exits after acknowledging ``OP_STOP`` (the
    ``R_STOPPED`` reply also tells the front-end's drainer thread to
    finish).  A triggered kill point calls ``os._exit`` — no finalizer
    runs, as close to ``kill -9`` as the worker can do to itself — so
    recovery is exercised against a genuinely unclean death.
    """
    import os

    step = RequestStep(spec, spec.build(), lambda: os._exit(17), drop_empty_acks=True)
    while True:
        reply = step(channel.recv())
        if reply is not None:
            channel.reply(reply)
            if reply[0] == R_STOPPED:
                break
    channel.close()
