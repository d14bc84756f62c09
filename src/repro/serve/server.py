"""EAGrServer: the sharded front-end for continuous ego-centric queries.

The server partitions the reader space over shards (each a full EAGr
engine behind an executor — worker process or in-process), then serves
four verbs:

* :meth:`EAGrServer.write_batch` — multicast each write to the shards
  whose readers need it (:class:`~repro.serve.router.Router` derives
  that from the ledger's reader partition, which this class never
  copies).  Writes land in per-shard *outboxes* (the
  ledger's pending rounds, below) and flush through the shard's
  executor; when a shard is backed up, the flush refuses instead of
  blocking and consecutive batches **coalesce** in the outbox until
  either the shard frees up or the coalescing cap forces a blocking
  submit — bounded memory, bounded latency, no drops.
* :meth:`EAGrServer.read_batch` — route reads to owning shards, one
  ``OP_READ`` per shard.  The per-shard FIFO transport orders them after
  every previously accepted write (read-your-writes per shard).
* **Transport** — how requests reach a process worker and how its
  replies come back is :mod:`repro.serve.transport`'s secret: this
  module holds one transport per process shard for the shard's life and
  otherwise talks to executors.  Every guarantee in this docstring rests
  on the transport's FIFO order, which the in-process executor keeps
  too.
* :meth:`EAGrServer.subscribe` / :meth:`EAGrServer.unsubscribe` — standing
  queries: shards diff watched egos after each applied batch (via the
  runtime's O(affected) changed-reader report) and report one row per
  changed ego.  This class sends ``OP_SUBSCRIBE`` / ``OP_UNSUBSCRIBE``
  to the shard that owns an ego, under its flush lock (see the lock
  order below); everything after the shard's
  reply is :class:`~repro.serve.subscriptions.Subscriptions`' — the
  fan-out to per-subscriber journals with strictly monotone,
  **contiguous** per-subscriber stamps, the replay filter, the
  handles.  *Who watches what* is neither's: it is the ledger's fold
  (``S``/``U``/``P``, below), which ``Subscriptions`` appends to and
  reads.
* **Durability and resume** — every stamped notification is journalled
  (:class:`~repro.serve.journal.NotificationLog`: bounded ring,
  optionally disk-backed), its only copy: a :class:`Subscription` is a
  cursor into it.  ``subscribe(..., resume_from=N)`` sets the cursor to
  ``N`` — exactly-once-after-resume.  A ``resume_from`` older than the
  journal's horizon, or a live cursor that falls behind it, raises
  :class:`~repro.serve.journal.ResumeGapError` (never a silent gap).
* **One durability ledger** — which shard owns which reader, which
  rounds are accepted, which batch each became, what a checkpoint
  covers and who watches what is the state of one
  :class:`~repro.serve.wal.WriteAheadLog`, and this class
  keeps no copy of it: every transition is ``log.append(record)``
  (``W`` accepts a round into the outboxes, ``B`` pops a shard's rounds
  into the numbered redo batch that is then submitted, ``RB`` undoes a
  refused submit, ``C`` files a checkpoint and truncates the redo log,
  ``S``/``U`` record watches, ``P`` a reshard), and the server reads
  ``log.state`` back.  ``wal_dir=None`` is the same ledger with no file
  behind it; with a directory every record is on disk before the call
  that caused it returns, and a cold boot folds it back.
* **Checkpoint / restart** — :meth:`EAGrServer.checkpoint` snapshots each
  shard's restart state (window buffers, watch registry, applied batch
  number), which truncates the ledger's per-shard *redo log* of
  submitted write batches; :meth:`EAGrServer.restart_shard` rebuilds a
  dead worker from its spec + checkpoint, re-arms the ledger's watches
  on it, and replays the redo log idempotently (batch numbers already
  applied are skipped shard-side, already-delivered notification values
  are suppressed front-side).
* :meth:`EAGrServer.drain` / :meth:`EAGrServer.close` — barrier and
  clean shutdown (flushes, never drops).

Every verb is thread-safe, writes included: two racing ``write_batch``
/ ``accept`` callers are accepted in the order they take the route lock
(see the lock order below).  :meth:`EAGrServer.accept` is the first half
of ``write_batch`` — acceptance: routed, logged and, with a log
directory, fsynced — and leaves the second half, the fan-out (outbox
flushes, due checkpoints), to the background flusher it wakes.
That is the network gateway's ack path.

Lock order
----------
Acquired strictly in this order, never the reverse:

1. ``_reshard_lock`` — one ``reshard``/``rebalance`` at a time.  Only
   ``reshard`` takes it, holding nothing.
2. ``_flush_locks[shard]`` — held across a shard's ``B`` append (the
   outbox pop and the numbering) *and* the submit, so its batches are
   numbered and enqueued in acceptance order; every other record that
   removes from that shard's rounds or redo log (``RB``, ``C``, ``P``)
   is appended under it too, as is a worker replacement
   (``restart_shard``, ``reshard``) with its redo replay — so the
   holder reads ``state.redo[shard]`` and ``state.checkpoints[shard]``
   as a matching pair.  It is also who owns an ego right now: a
   reshard holds the locks of every shard it moves an ego from or to,
   so no ego changes owner while its owner's lock is held.  Every
   per-ego request (``read_batch``, ``subscribe``,
   ``unsubscribe(nodes=...)``) is therefore sent under the owning
   shards' locks (``_owners_locked``): flush, resolve ownership, submit
   — ``subscribe`` also awaits the reply and appends ``S`` — before
   they release, so no
   write and no reshard reaches a shard between a watch being armed and
   it being recorded, and no read asks a shard that lost the ego.
   Holders of more than one (``reshard``, a per-ego request) take them
   in ascending shard id; non-blocking flushes
   ``acquire(blocking=False)`` and skip migrating shards, so a producer
   never waits out a migration or a subscribe's reply — its writes
   park, and leave with the holder's closing flush or the background
   flusher.  The one flush-lock wait a producer makes is the coalesce
   cap's: ``accept`` blocks on a shard's lock (timed, re-checking
   ``_migrating``) once its outbox holds ``coalesce_max`` rows.  (An
   in-process executor's own submit lock nests here.)
3. ``_route_lock`` — acceptance: every ``W`` and ``P`` append (so log
   order is acceptance order, ``state.wal_seq`` / ``state.clock`` are
   read-then-advanced atomically, and a round is routed by the
   partition it is logged under), ``_migrating`` and the ``writes_*``
   counters.  Taken with or without a flush lock; nothing but leaves is
   taken under it.
   The subscriptions lock (``Subscriptions._lock``) — every field of
   the :class:`~repro.serve.subscriptions.Subscriptions` object and of
   the subscriber states it holds (handle, stamp, journal, delivery
   filter), and nothing of this class's; the ``S`` and ``U`` appends
   happen under it (their fsync after it).  Same level as the route
   lock: the two are never held together.  Taken holding nothing (a
   reply drainer's ``_deliver``, ``unsubscribe``'s ``U``) or holding
   flush locks (an in-process shard's ``_deliver``, which runs on the
   submitting thread; ``subscribe``'s ``S``).
   Under it, a subscriber's lock (its journal's ``lock``, a leaf)
   guards the journal ring and handle cursors; an append or ``ack``
   takes it only for the ring change, the disk frame written outside.  A
   reader (``Subscription``'s reads; the gateway's pump, on the event
   loop) takes only that lock: it waits out one ring change, never a
   report's fan-out or a journal file's write or fsync.

   What makes ``state.watches[shard]`` stable for a delivery walking it
   under this lock: only three folds write the registry.  ``S`` and
   ``U`` are appended under this same lock (``S`` by a holder of the
   ego's flush lock, so under the shard that owns it).  ``P`` is
   appended under the route lock instead, and moves entries only
   between shards ``reshard`` has quiesced — it holds their flush
   locks, their checkpoint replies trailed every earlier change report,
   and no write reaches their new workers before those locks release —
   so no delivery, and no ``_replay`` re-arm (flush lock, or boot),
   reads the slices it edits.

Leaves (nothing is acquired while holding one): ``_seq_lock``,
``_pending_lock``, the ledger's lock (it serializes folds, so it is what
guards the rounds and redo *lists*; the flush and route locks above only
decide who may append which record), the ledger's sync condition (its
group commit: the fsync runs holding neither — the leader takes the
ledger lock only to note the position and ``dup`` the descriptor — so
an append never waits out a disk flush), the transports' send locks.
``_scrape_lock`` serializes metric scrapes and is taken holding nothing
(a scrape awaits shard replies under it).  ``_flush_failed`` /
``_poisoned`` / ``_async_errors`` are written lock-free from the flusher
and drainer threads (set-add, list-append, first-writer-wins string).

A send may block holding locks: a request frame larger than the free
pipe buffer waits, on the calling thread, for the shard to read it,
and the sender may hold flush locks, ``_scrape_lock`` and the
transport's send lock.  No cycle follows.  The shard reads its requests
unless it is blocked writing a reply, and that only until the reply
drainer reads the reply pipe.  The drainer takes only the subscriptions
lock (``_deliver``) and leaves (``_pending_lock``, metric slots) —
none of the locks a sender may hold; and nothing sends under the
subscriptions lock, the route lock or any leaf but the send lock.  So the drainer always makes progress, the shard
always drains, and the sender always finishes — or, if the shard died,
gives up within a second with ``RuntimeError``.
"""

from __future__ import annotations

import os as _os
import threading
import time as _time
from contextlib import contextmanager
from functools import partial
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.execution import normalize_write
from repro.core.query import EgoQuery
from repro.core.statestore import WriteFrame
from repro.graph.dynamic_graph import DynamicGraph
from repro.serve.executors import InProcessShardExecutor, ProcessShardExecutor
from repro.serve.messages import (
    OP_CHECKPOINT,
    OP_DRAIN,
    OP_READ,
    OP_STATS,
    OP_SUBSCRIBE,
    OP_UNSUBSCRIBE,
    OP_WRITE,
    R_ERR,
    R_STOPPED,
    R_WRITE,
    ServeError,
    ShardCheckpoint,
)
from repro.serve.reshard import propose_rebalance, reroute, splice
from repro.serve.router import Router, readers
from repro.serve.shard import ShardSpec
# ``Subscription`` stays importable from here (its public path).
from repro.serve.subscriptions import Subscription, Subscriptions
from repro.serve.transport import open_transports
from repro.serve.wal import WriteAheadLog

NodeId = Hashable


class _Call:
    """One awaited request: an event plus its result-or-error slot."""

    __slots__ = ("event", "result", "error", "shard")

    def __init__(self, shard: Optional[int] = None) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[str] = None
        self.shard = shard


class EAGrServer:
    """Front-end over K shard executors (see module docstring).

    Parameters
    ----------
    graph / query:
        As for :class:`~repro.core.engine.EAGrEngine`; the query's
        predicate (if any) is folded into the reader partition.
    num_shards:
        Number of shards.
    executor:
        ``"process"`` — one worker process per shard (true multi-core);
        ``"inprocess"`` — shards run synchronously in the caller
        (deterministic; tests/CI).
    transport:
        How requests reach process workers: ``"queue"``, the only value
        (a bounded request pipe per shard, :mod:`repro.serve.transport`;
        in-process shards have no transport and report it too).  Any
        other value raises ``ValueError`` before the log is opened.
    metrics:
        Whether the metrics plane is on (see :mod:`repro.obs` and the
        Observability section of PERFORMANCE.md).  ``"auto"`` (default)
        turns it on, honouring the ``EAGR_METRICS`` environment variable
        (``"0"``/``"false"``/``"no"``/``"off"`` disable); pass
        ``True``/``False`` to override.  When on, the front-end registry
        tracks routing/WAL/latency histograms, each shard keeps its own
        registry (scraped by :meth:`EAGrServer.metrics`, with one
        ``OP_STATS`` round trip per process shard), and every accepted
        binary write batch carries a monotonic ingress timestamp so
        ``server_stats()`` can report true end-to-end write→notify
        latency percentiles.  Designed to stay on in production — the overhead bound is benchmarked in
        ``benchmarks/bench_obs_overhead.py``.
    assign:
        Optional reader→shard assignment.  Defaults to the balanced
        min-cut partition :func:`~repro.core.partition.mincut_assignment`
        (recursive bisection of the writer→reader affinity graph), which
        co-locates neighborhoods and cuts the multicast replication
        factor — the dominant serve-tier write cost — relative to a
        stable hash.  Pass a callable for custom placement.
    queue_depth:
        Request frames in flight per shard — the backpressure window.
    coalesce_max:
        Outbox size that forces a blocking flush on a backed-up shard.
    mp_context:
        Start method for process executors (``spawn`` default).
    reply_timeout:
        Seconds to wait for any single shard reply before raising
        :class:`ServeError`.
    journal_capacity:
        Notifications retained per subscriber — the resume window, and
        how far a live handle may fall behind: an older ``resume_from``,
        or a read further behind, raises
        :class:`~repro.serve.journal.ResumeGapError`.
    journal_dir:
        Directory for disk-backed notification logs (created if missing).
        ``None`` (default) keeps journals in memory only — they survive
        disconnects but not a front-end process restart.
    checkpoint_interval:
        Auto-checkpoint a shard whenever its redo log holds this many
        batches, bounding redo-log memory and restart replay time.
        ``None`` (default) leaves checkpointing to explicit
        :meth:`checkpoint` calls — except with ``wal_dir``, where it
        defaults to 256 so both the front-end redo log and the WAL's
        replay suffix stay bounded across long runs.
    wal_dir:
        Directory for the whole-server :class:`~repro.serve.wal.WriteAheadLog`.
        When set, every accepted write batch, checkpoint and watch change
        is persisted (fsync-disciplined) before being acknowledged, and a
        cold construction over an existing log **recovers**: the reader
        partition, batch counters, checkpoints, redo log, pending writes
        and watch registry are folded back from disk, every shard is
        rebuilt from its checkpoint, and the redo suffix replays
        batch-exact — reads and notification stamps reproduce the dead
        epoch's exactly.  ``journal_dir`` defaults to
        ``wal_dir/journals`` so subscriber journals survive too.  The
        log is single-writer (flock); a second live server on the same
        directory raises :class:`~repro.serve.wal.WalLockedError`.
    wal_options:
        Extra :class:`~repro.serve.wal.WriteAheadLog` keywords
        (``segment_bytes``, ``compact_min_bytes``, ``fsync``, ``faults``).
    value_store / engine_kwargs:
        Forwarded to every shard's engine.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        query: EgoQuery,
        num_shards: int = 2,
        executor: str = "process",
        transport: str = "queue",
        metrics: Any = "auto",
        assign: Optional[Callable[[NodeId], int]] = None,
        queue_depth: int = 8,
        coalesce_max: int = 8192,
        mp_context: str = "spawn",
        reply_timeout: float = 120.0,
        journal_capacity: int = 4096,
        journal_dir: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
        wal_dir: Optional[str] = None,
        wal_options: Optional[Dict[str, Any]] = None,
        value_store: str = "auto",
        **engine_kwargs: Any,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if executor not in ("process", "inprocess"):
            raise ValueError(
                f"executor must be 'process' or 'inprocess', got {executor!r}"
            )
        # Every argument check runs before the log opens: a rejected
        # deployment must never have held the single-writer lock.
        if transport != "queue":
            raise ValueError(f"transport must be 'queue', got {transport!r}")
        self.transport = transport
        self.metrics_enabled = self._resolve_metrics(metrics)
        from repro.obs import MetricsRegistry, SlowOpLog, declare_shard_metrics

        # -- metrics plane: the registry comes up before the log so its
        # append/fsync paths can write straight into the slots -----------
        self._registry = MetricsRegistry(enabled=self.metrics_enabled)
        reg = self._registry
        self._m_route = reg.histogram("srv_route_seconds")
        self._m_batch_rows = reg.histogram("srv_write_batch_rows")
        self._m_latency = reg.histogram("srv_write_notify_seconds")
        self._m_wal_append = reg.histogram("wal_append_seconds")
        self._m_wal_fsync = reg.histogram("wal_fsync_seconds")
        self._m_wal_bytes = reg.gauge("wal_total_bytes")
        self._m_write_calls = reg.counter("srv_write_batches")
        self._m_latency_discarded = reg.counter("srv_latency_discarded")
        self.slow_ops = SlowOpLog(
            threshold=float(_os.environ.get("EAGR_SLOW_OP_THRESHOLD") or 0.050)
        )
        #: layout-compatible decoder registry for shard metric scrapes
        #: (the worker registers the same schema in the same order).
        self._shard_schema = MetricsRegistry(enabled=True)
        declare_shard_metrics(self._shard_schema)
        self._scrape_lock = threading.Lock()

        wal_kwargs = dict(wal_options or {})
        if wal_dir is not None:
            if journal_dir is None:
                journal_dir = _os.path.join(wal_dir, "journals")
            if checkpoint_interval is None:
                checkpoint_interval = 256
            if self.metrics_enabled:
                wal_kwargs.setdefault(
                    "metrics",
                    {
                        "append": self._m_wal_append,
                        "fsync": self._m_wal_fsync,
                        "bytes": self._m_wal_bytes,
                    },
                )

        self.graph = graph
        self.query = query
        self.num_shards = num_shards
        self.executor_kind = executor
        self._coalesce_max = coalesce_max
        self._reply_timeout = reply_timeout
        self._mp_context = mp_context
        self._checkpoint_interval = checkpoint_interval

        # -- live resharding state ---------------------------------------
        #: shards mid-migration: their non-blocking flushes park (the
        #: producer never waits on a lock ``reshard`` holds) and their
        #: auto-checkpoints defer.  Mutated under the route lock.
        self._migrating: set = set()
        #: serializes concurrent ``reshard``/``rebalance`` calls.
        self._reshard_lock = threading.Lock()
        #: test seam: ``{"pre_checkpoint"|"pre_swap"|"post_swap": fn}``
        #: called at the named points inside :meth:`reshard` (the
        #: crash-mid-migration schedules kill the process here).
        self.reshard_faults: Dict[str, Callable[[], None]] = {}
        #: (writes_sent, writes_delivered) at the last partition-epoch
        #: change: the observed replication ratio is measured from here,
        #: so a reshard resets it (satellite of the planned/observed split).
        self._epoch_base = (0, 0)
        self.reshards = 0

        # -- per-request bookkeeping (shared with drainer threads) -------
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._pending: Dict[int, _Call] = {}
        self._pending_lock = threading.Lock()
        self._async_errors: List[str] = []
        self._route_lock = threading.Lock()
        # One flush lock per shard, held across the ``B`` append (outbox
        # pop + numbering) *and* the submit: without it a reader's
        # blocking flush could observe an empty outbox while a preempted
        # producer still holds a numbered-but-not-submitted batch,
        # breaking read-your-writes (and two racing flushes could
        # enqueue batches out of acceptance order).
        self._flush_locks = [threading.Lock() for _ in range(num_shards)]
        self._closed = False
        self._flush_failed: set = set()
        #: Fail-stop marker, mirroring the WAL's fsync poisoning: the
        #: first background-flush failure records its reason here and
        #: every later ``write_batch`` refuses instead of ack'ing writes
        #: that would silently join an undeliverable backlog ("acked ⇒
        #: durable" must hold even without a WAL).  ``restart_shard``
        #: clears it once no shard remains flush-failed.
        self._poisoned: Optional[str] = None

        self.recovered_batches = 0
        self.writes_sent = 0
        self.writes_delivered = 0
        self.coalesced_flushes = 0
        self.restarts = 0
        self.replayed_batches = 0

        #: The durability ledger (see module docstring): the reader
        #: partition, the outboxes (``state.rounds``), batch counters,
        #: redo log, checkpoints, ingest clock and watch registry live in
        #: ``_wal.state`` and nowhere else.  With ``wal_dir`` it opens —
        #: and recovers — the on-disk log; whatever fails from here on
        #: closes it again, so a retry on the same directory finds the
        #: single-writer lock free.
        self._wal = WriteAheadLog(wal_dir, **wal_kwargs)
        self._router = Router(graph, query, self._wal.state)
        try:
            #: The subscription plane (``serve/subscriptions.py``):
            #: subscriber states, journals and delivery over the ledger's
            #: watch registry.  Over a recovered log it comes up holding
            #: every watching subscriber, disconnected, before any worker
            #: boots.
            self._subs = Subscriptions(
                self._wal,
                num_shards,
                journal_capacity,
                journal_dir,
                self._m_latency.observe,
            )
            self._boot(assign, queue_depth, value_store, engine_kwargs)
        except BaseException:
            self._wal.close()
            raise

    def _boot(
        self,
        assign: Optional[Callable[[NodeId], int]],
        queue_depth: int,
        value_store: str,
        engine_kwargs: Dict[str, Any],
    ) -> None:
        """The constructor's second half — everything that runs with the
        log open: partition (persisted or fresh), transports, workers,
        and on a cold restart the replay."""
        graph, query, num_shards = self.graph, self.query, self.num_shards
        state = self._wal.state
        recovered = self._wal.recovered
        if recovered and state.num_shards != num_shards:
            raise ValueError(
                f"WAL at {self._wal.directory!r} belongs to a "
                f"{state.num_shards}-shard deployment, not {num_shards}"
            )
        # Balanced min-cut sharding by default: the writer→reader affinity
        # graph is partitioned on the Section-4 max-flow machinery
        # (``core.partition``), so a write multicasts to fewer shards than
        # under either the stable hash or the BFS community heuristic (see
        # ``replication_factor``).  A WAL recovery reuses the *persisted*
        # partition instead: every replayed (and future) write must route
        # to the shard the dead epoch's batch numbering assumed, whatever
        # the assignment algorithm would compute today.
        if not recovered:
            from repro.core.partition import partition_readers

            if assign is None and num_shards > 1:
                from repro.core.partition import mincut_assignment

                assign = mincut_assignment(graph, query, num_shards)
                assignment = "mincut"
            else:
                assignment = "custom" if assign is not None else "single"
            self._wal.append(
                (
                    "META",
                    {
                        "num_shards": num_shards,
                        # the user predicate already applied: a node it
                        # filters out has no owner.
                        "reader_shard": partition_readers(
                            graph, query, num_shards, assign
                        ),
                        "assignment": assignment,
                    },
                ),
                sync=True,
            )
        self.assignment = state.meta.get("assignment", "recovered")
        owned = readers(self.reader_shard, range(num_shards))

        # -- transports: one per process shard, for the shard's life ------
        # (worker replacement resets and re-uses them; an in-process
        # shard has none — its executor calls the host directly).
        self._transports: List[Any] = []
        if self.executor_kind == "process":
            self._transports = open_transports(
                num_shards, self._mp_context, queue_depth, self._call
            )

        self.specs = [
            ShardSpec(
                graph,
                query,
                shard_id=shard_id,
                num_shards=num_shards,
                readers=owned[shard_id],
                value_store=value_store,
                engine_kwargs=engine_kwargs,
                metrics=self.metrics_enabled,
            )
            for shard_id in range(num_shards)
        ]
        self._executors: List[Any] = [None] * num_shards
        # Every worker boots before any replay starts, so the shards
        # build their overlays in parallel.
        for shard_id in range(num_shards):
            self._replace_worker(shard_id, state.checkpoints.get(shard_id))
        if recovered:
            self._recover_writes()
        # Background flusher: a refused non-blocking flush parks writes in
        # the outbox; without a retry they would sit there until the next
        # caller-driven flush, stalling notifications for an idle
        # producer.  This thread retries non-empty outboxes every
        # ``flush_interval`` seconds, bounding coalescing latency, and
        # runs the fan-out of every ``accept`` as soon as it is woken.
        self._flush_interval = 0.05
        self._stop_flusher = threading.Event()
        self._wake_flusher = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="eagr-server-flusher", daemon=True
        )
        self._flusher.start()

    @staticmethod
    def _resolve_metrics(metrics: Any) -> bool:
        """Resolve the ``metrics`` toggle (see __init__).

        Precedence: explicit ``True``/``False`` > ``EAGR_METRICS`` env
        var > on.
        """
        if metrics is True:
            return True
        if metrics is False:
            return False
        if metrics != "auto":
            raise ValueError(
                f"metrics must be True, False or 'auto', got {metrics!r}"
            )
        env = _os.environ.get("EAGR_METRICS")
        if env is not None and env.strip() != "":
            return env.strip() not in ("0", "false", "no", "off")
        return True

    def _replace_worker(
        self,
        shard_id: int,
        checkpoint: Optional[ShardCheckpoint],
        readers: Optional[frozenset] = None,
    ) -> None:
        """Give ``shard_id`` a fresh worker restored from ``checkpoint``
        — the one path first boot, WAL cold recovery, ``restart_shard``
        and ``reshard`` all take (caller holds the shard's flush lock
        once the server is live).

        A still-running predecessor is killed uncleanly.  A process
        executor resets the shard's transport before spawning, dropping
        the frames the predecessor abandoned.  The worker knows the
        watches its checkpoint carried; :meth:`_replay` brings it the
        rest.
        """
        old = self._executors[shard_id]
        if old is not None and old.alive():
            old.kill()
        if readers is not None:
            self.specs[shard_id].readers = readers
        spec = self.specs[shard_id].with_checkpoint(checkpoint)
        on_reply = self._reply_handler(shard_id)
        if self._transports:
            self._executors[shard_id] = ProcessShardExecutor(
                spec,
                on_reply,
                partial(self._fail_shard, shard_id, "reply delivery failed"),
                self._transports[shard_id],
                self._mp_context,
            )
        else:
            self._executors[shard_id] = InProcessShardExecutor(spec, on_reply)
        self._flush_failed.discard(shard_id)
        if not self._flush_failed:
            # Every failed shard has been rebuilt: acceptance may resume
            # (the un-poison mirror of _fail_shard).
            self._poisoned = None

    def _recover_writes(self) -> None:
        """Cold restart, after the workers boot (each from its
        checkpoint) and before the background flusher starts, so
        nothing races the replay: per shard, watches re-arm and the
        redo suffix replays in order — already-checkpointed batches are
        skipped shard-side, re-derived notifications the dead epoch
        delivered are suppressed front-side.  Accepted-but-never-batched
        rounds (the dead outboxes) are already where the fold left them
        — in the outboxes — and flush as fresh batches behind the
        replay."""
        crash_after = self._wal.faults.get("crash_after_replay_batches")
        replayed = 0
        for shard_id in range(self.num_shards):
            replayed += self._replay(
                shard_id,
                crash_after=None if crash_after is None else crash_after - replayed,
            )
            for _seq, items in self._wal.state.rounds.get(shard_id, ()):
                if items.__class__ is WriteFrame:
                    items.ingress = None  # a dead process's clock, as in _replay
        self.recovered_batches = replayed
        self.replayed_batches += replayed

    def _replay(self, shard_id: int, crash_after: Optional[int] = None) -> int:
        """Bring a worker rebuilt from the shard's last checkpoint up to
        date with what the ledger recorded since (flush lock held, or
        booting).  Watches *first* — ahead, in the FIFO, of any write,
        so diffing baselines sit at checkpoint-time values: the ones
        forgotten since the checkpoint are dropped, the registry's are
        re-armed.  Then the redo log replays in order; returns the
        batches replayed.  Batch numbers the checkpoint already covers
        are skipped shard-side, re-derived notifications subscribers
        already saw are suppressed front-side.  ``crash_after`` is the
        WAL fault plan's remaining replay budget (tests only)."""
        ex = self._executors[shard_id]
        checkpoint = self._wal.state.checkpoints.get(shard_id)
        stale, standing = self._subs.rearm(
            shard_id, checkpoint.watchers if checkpoint is not None else {}
        )
        for op, watches in ((OP_UNSUBSCRIBE, stale), (OP_SUBSCRIBE, standing)):
            for subscriber, egos in watches:
                ex.submit((op, self._next_seq(), subscriber, egos))
        replayed = 0
        for batch_no, items in self._wal.state.redo.get(shard_id, ()):
            if items.__class__ is WriteFrame:
                # A replay is not a fresh write, and after a cold restart
                # its ingress stamp belongs to a dead process's monotonic
                # clock: it must never produce a latency sample.
                items.ingress = None
            ex.submit((OP_WRITE, self._next_seq(), batch_no, items))
            replayed += 1
            if crash_after is not None and replayed >= crash_after:
                self._wal._crash("crash during WAL replay")
        return replayed

    def _flush_loop(self) -> None:
        failed = self._flush_failed  # restart_shard() clears recovered shards
        wake = self._wake_flusher
        while True:
            wake.wait(self._flush_interval)
            # Cleared before the outboxes are read: an accept() that
            # lands after this line is seen below or wakes the next pass.
            wake.clear()
            if self._stop_flusher.is_set():
                return
            rounds = self._wal.state.rounds
            for shard_id in range(self.num_shards):
                if shard_id in failed or not rounds.get(shard_id):
                    continue
                try:
                    self._fan_out((shard_id,))
                except Exception as exc:  # noqa: BLE001 - surfaced via drain/close
                    # One dead shard must not disable retries for the
                    # healthy ones; stop touching it, keep flushing the rest.
                    # But the *server* must stop accepting: an accept or
                    # write_batch that succeed-acks after this point would
                    # pile writes behind a flush that can never happen, so
                    # the first failure poisons acceptance (both raise) the
                    # same way a WAL fsync failure does.  restart_shard()
                    # is the recovery path.
                    self._fail_shard(shard_id, "background flush failed", exc)

    def _fail_shard(self, shard_id: int, what: str, exc: Exception) -> None:
        """The async-error channel: a failure on a thread no caller is
        waiting on (the background flusher, a reply drainer).  The shard
        is marked failed, acceptance is poisoned, and the error surfaces
        at the next :meth:`drain`/:meth:`close`; ``restart_shard`` is
        the recovery path."""
        self._flush_failed.add(shard_id)
        if self._poisoned is None:
            self._poisoned = (
                f"shard {shard_id}: {what} ({type(exc).__name__}: {exc})"
            )
        self._async_errors.append(f"shard {shard_id}: {what}")

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _reply_handler(self, shard_id: int) -> Callable[[Tuple], None]:
        def handle(reply: Tuple) -> None:
            kind = reply[0]
            if kind == R_WRITE:
                self._deliver(shard_id, reply[3])
                return
            if kind == R_STOPPED:
                return
            seq = reply[1]
            with self._pending_lock:
                call = self._pending.pop(seq, None)
            if call is None:
                if kind == R_ERR:
                    # A fire-and-forget write batch failed; surface it on
                    # the next drain()/close() instead of losing it.
                    self._async_errors.append(f"shard {shard_id}: {reply[2]}")
                return
            if kind == R_ERR:
                call.error = f"shard {shard_id}: {reply[2]}"
            else:
                call.result = reply[2]
            call.event.set()

        return handle

    def _deliver(self, shard_id: int, changes: Any) -> None:
        """Hand a shard's change report to the subscription plane
        (:meth:`Subscriptions.deliver` fans it out), timing the
        write→notify loop when the report carries an ingress stamp."""
        if not len(changes):
            return
        latency = None
        ingress = getattr(changes, "ingress", None)  # packed reports only
        if ingress is not None and self.metrics_enabled:
            # T1 is taken here, in the same process whose clock stamped
            # T0 — no cross-process monotonic skew.  A stamp from a dead
            # epoch that slipped past the recovery zeroing would read as
            # an absurd duration; the guard discards it (counted) rather
            # than poisoning the histogram.
            latency = _time.monotonic() - ingress
            if not 0.0 <= latency < 3600.0:
                self._m_latency_discarded.inc()
                latency = None
        reached = self._subs.deliver(shard_id, changes, latency)
        if latency is not None and reached:
            self.slow_ops.note(
                "write_notify", latency, shard=shard_id, egos=len(changes)
            )

    def _submit_call(self, shard_id: int, op: int, *payload: Any) -> _Call:
        seq = self._next_seq()
        call = _Call(shard_id)
        with self._pending_lock:
            self._pending[seq] = call
        ex = self._executors[shard_id]
        try:
            ex.submit((op, seq, *payload))
        except RuntimeError as exc:  # a dead worker, as _await reports one
            with self._pending_lock:
                del self._pending[seq]
            raise ServeError(f"shard {shard_id}: {exc}") from exc
        return call

    def _call(self, shard_id: int, op: int) -> Any:
        """One awaited control request (what a transport uses to ask its
        own shard for ``OP_STATS``)."""
        return self._await([self._submit_call(shard_id, op)])[0]

    def _await(self, calls: Sequence[_Call]) -> List[Any]:
        results = []
        for call in calls:
            deadline = _time.monotonic() + self._reply_timeout
            while not call.event.wait(timeout=0.2):
                if _time.monotonic() >= deadline:
                    raise ServeError("timed out waiting for a shard reply")
                if call.shard is not None and not self._executors[call.shard].alive():
                    # Dead worker: give the drainer one beat to deliver a
                    # reply that was already on the wire, then fail fast
                    # instead of burning the whole reply timeout.
                    if not call.event.wait(timeout=0.5):
                        raise ServeError(
                            f"shard {call.shard}: worker died before replying"
                        )
                    break
            if call.error is not None:
                raise ServeError(call.error)
            results.append(call.result)
        return results

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("EAGrServer is closed")

    # ------------------------------------------------------------------
    # writes (multicast, coalescing, backpressure)
    # ------------------------------------------------------------------

    def write_batch(self, writes: Sequence) -> int:
        """Accept a batch of writes and fan it out; returns the number
        accepted.

        Each write is stamped with a server-monotone timestamp when it
        carries none (so cross-shard time windows stay coherent), then
        multicast into the outboxes of every shard whose readers need its
        writer.  Outboxes flush without blocking; a backed-up shard's
        writes coalesce until :attr:`coalesce_max` forces backpressure.

        ``writes`` is a sequence of ``(node, value, timestamp)`` items or
        a pre-packed :class:`~repro.core.statestore.WriteFrame`.

        This is :meth:`accept` with the fan-out — the outbox flushes and
        the due-checkpoint check, which the background
        flusher runs after an :meth:`accept` — done inline on the
        caller's thread, ahead of the fsync.  With in-process shards the
        shard apply and the notification delivery therefore finish
        before this returns.

        Raises :class:`ServeError` without accepting anything once a
        background flush has failed (see :meth:`restart_shard`): a batch
        acknowledged after that point could never be delivered.
        """
        accepted, count = self._accept(writes)
        self._fan_out(accepted)
        if count:
            # After the fan-out (the shards apply while the disk syncs):
            # a group commit, so one fsync may cover several concurrent
            # writers' batches; when this call returns, the batch is on
            # stable storage.
            self._wal.sync()
        return count

    def accept(self, writes: Sequence) -> int:
        """Accept a batch of writes and return before its fan-out;
        returns the number accepted.

        When this returns the batch is routed, its ``W`` record is in the
        ledger (acceptance order is fixed) and, with ``wal_dir``, it is
        on stable storage.  The background flusher is woken and carries
        the fan-out :meth:`write_batch` would have run inline, so
        notifications follow asynchronously.  Reads still see the batch:
        :meth:`read_batch` flushes the owning shard's outbox under its
        flush lock first, and :meth:`drain` / :meth:`close` flush too.
        A fan-out failure on the flusher takes the async-error path: the
        shard is marked failed, later acceptance raises
        :class:`ServeError`, and :meth:`drain` / :meth:`close` raise it;
        :meth:`restart_shard` replays the accepted batch from the redo
        log.

        Backpressure is :meth:`write_batch`'s: a shard whose outbox holds
        :attr:`coalesce_max` rows is flushed on the caller's thread,
        blocking, before this returns — an ack never runs more than the
        cap ahead of the shard.
        """
        accepted, count = self._accept(writes)
        self._wake_flusher.set()
        for shard_id in accepted:
            self._relieve(shard_id)
        if count:
            # As in write_batch: the flusher's fan-out overlaps the fsync,
            # and the caller's ack waits for it.
            self._wal.sync()
        return count

    def _accept(self, writes: Sequence) -> Tuple[Dict[int, Any], int]:
        """Acceptance up to the fsync, which the callers run once the
        fan-out is under way: door checks, pack, route, the ``W`` append
        under the route lock.  Returns the round (shard -> items) and the
        number of writes accepted."""
        self._check_open()
        if self._poisoned is not None:
            raise ServeError(
                f"server poisoned by a flush failure ({self._poisoned}); "
                "restart_shard() the failed shard to resume accepting"
            )
        metered = self.metrics_enabled
        t0 = _time.monotonic() if metered else 0.0
        router = self._router
        # Partition snapshot: routing below happens against these routes,
        # and the route-lock block re-verifies them (a reshard's ``P``
        # installs a *new* table, hence new routes).
        routes = router.routes()
        log = self._wal
        # One pack attempt at the door: a batch of (int, float, float)
        # triples packs ONCE here and splits through the membership
        # table — no per-item Python below this point.  The per-shard
        # subframes are the round the ``W`` record carries (the ``B``
        # fold merges a shard's rounds back into one submit payload)
        # and ride the transport and the redo log as they are.  Only a
        # batch that fails the gate walks the per-item loop below.
        if writes.__class__ is WriteFrame:
            # Pre-packed (the network gateway hands the decoded wire
            # frame straight through).
            frame = writes if len(writes) else None
        else:
            if writes.__class__ is not list:
                writes = list(writes)
            frame = WriteFrame.from_items(writes)
        if frame is not None:
            if metered:
                # T0 of the write→notify latency measurement: rides the
                # frame through transport, shard and change report back to
                # _deliver (same process, same clock).
                frame.ingress = t0
            #: shard -> this round's items for it: the ``W`` record's
            #: body, which the fold files in the outboxes as it stands.
            accepted = router.split(frame, routes)
        with self._route_lock:
            if router.routes() is not routes:
                # A reshard() swapped the partition between the routing
                # above and this push.  Its step-4 residue re-route has
                # already run, so a batch routed by the old table would
                # be applied (and durably WAL-replayed) on shards a
                # moved reader just left and never reach the shard it
                # now lives on.  Re-route against the live partition
                # before touching any outbox; ``P`` is appended under
                # this lock, so it cannot go stale again here.
                routes = router.routes()
                if frame is not None:
                    accepted = router.split(frame, routes)
            state = log.state
            clock = state.clock
            if frame is None:
                triples: List[Tuple] = []
                normalized = False
                for item in writes:
                    triple = normalize_write(item)
                    timestamp = triple[2]
                    if timestamp is None:
                        clock += 1.0
                        triple = (triple[0], triple[1], clock)
                    elif timestamp > clock:
                        clock = timestamp
                    if triple is not item:
                        normalized = True
                    triples.append(triple)
                if normalized:
                    # The door attempt saw pairs, ``None`` timestamps or
                    # event objects: the stamped triples get theirs now.
                    frame = WriteFrame.from_items(triples)
                    if frame is not None and metered:
                        frame.ingress = t0
                accepted = router.split(
                    triples if frame is None else frame, routes
                )
                count = len(triples)
            else:
                count = len(frame)
                top = float(frame.timestamps.max())
                if top > clock:
                    clock = top
            self.writes_sent += count
            if count:
                # Acceptance, appended under the route lock: log order
                # *is* acceptance order, so batch-number coverage ("B"
                # records) stays a simple seq interval.  The fold files
                # the round in the outboxes and advances the clock.
                log.append(("W", state.wal_seq + 1, accepted, clock))
        if metered:
            self._m_write_calls.inc()
            if count:
                # Row-count histogram: observed in units of 1e-6 so the
                # log2-µs buckets become log2-row buckets (a summary
                # "µs" value of N reads as N rows).
                self._m_batch_rows.observe(count * 1e-6)
            route_cost = _time.monotonic() - t0
            self._m_route.observe(route_cost)
            self.slow_ops.note("write_batch.route", route_cost, rows=count)
        return accepted, count

    def _fan_out(self, shards: Collection[int]) -> None:
        """Fan-out: flush each shard's outbox without blocking, then
        checkpoint the shards whose redo log is due — run by
        :meth:`write_batch` on the caller's thread and by the background
        flusher after an :meth:`accept`."""
        migrating = self._migrating
        for shard_id in shards:
            if shard_id in migrating:
                continue  # parked for the live migration; rerouted at swap
            self._flush_shard(shard_id, block=False)
        if self._checkpoint_interval:
            # A dead shard cannot answer OP_CHECKPOINT — leave its redo
            # log growing (writes keep parking) until restart_shard().
            redo = self._wal.state.redo
            due = [
                shard_id
                for shard_id in shards
                if len(redo.get(shard_id, ())) >= self._checkpoint_interval
                and shard_id not in migrating
                and self._executors[shard_id].alive()
            ]
            if due:
                self.checkpoint(due)

    def _flush_shard(self, shard_id: int, block: bool) -> None:
        lock = self._flush_locks[shard_id]
        if not block:
            # Non-blocking flushes must never wait on this lock: during a
            # live migration ``reshard`` holds it for the whole worker
            # rebuild, and a producer stuck here would violate the
            # availability contract (writes to non-moving writers block
            # at most one batch).  A missed flush is safe — the writes
            # stay parked and the background flusher (or the migration's
            # own final flush) carries them within ``_flush_interval``.
            if shard_id in self._migrating or not lock.acquire(blocking=False):
                return
        else:
            lock.acquire()
        try:
            self._flush_locked(shard_id, block)
        finally:
            lock.release()

    def _relieve(self, shard_id: int) -> None:
        """:meth:`accept`'s backpressure: flush a shard whose outbox
        holds :attr:`coalesce_max` rows, blocking, on the caller's
        thread — waiting for the flush lock too, since the flusher may
        hold it, stuck on the same backed-up shard.  A migrating shard is
        skipped (``reshard`` holds its lock for the whole rebuild and
        drains the outbox itself); the timed wait notices a migration
        that starts while this one waits."""
        lock = self._flush_locks[shard_id]
        while (
            self._parked_rows(shard_id) >= self._coalesce_max
            and shard_id not in self._migrating
        ):
            if lock.acquire(timeout=self._flush_interval):
                try:
                    self._flush_locked(shard_id, block=True)
                finally:
                    lock.release()

    def _flush_locked(self, shard_id: int, block: bool) -> None:
        """Number and submit the shard's outbox (its flush lock held),
        batch by batch (see :meth:`_number_batch`), until it is empty or
        the shard refuses one."""
        while True:
            batch = self._number_batch(shard_id)
            if batch is None:
                return
            if not self._submit_write(shard_id, batch, block):
                break
        # Shard backed up: the batch is back in the outbox (``RB``);
        # later flushes (or the cap) carry it, and every round parked
        # behind it, in one bigger batch.
        self.coalesced_flushes += 1
        if self._parked_rows(shard_id) >= self._coalesce_max:
            self._submit_write(shard_id, self._number_batch(shard_id), block=True)

    def _parked_rows(self, shard_id: int) -> int:
        """Write events parked in a shard's outbox — the ledger's pending
        rounds (a peek: exact only while nothing can append to them)."""
        return sum(
            len(items) for _seq, items in self._wal.state.rounds.get(shard_id, ())
        )

    def _number_batch(
        self, shard_id: int, drain: bool = False
    ) -> Optional[Tuple[int, Any]]:
        """Turn the head of a shard's outbox into its next numbered batch
        (flush lock held): one ``B`` record, whose fold pops every
        accepted round up to the seq named here, merges them once and
        files ``(batch_no, items)`` at the redo tail — returned for
        :meth:`_submit_write`.  ``None`` when the outbox is empty.

        Each accepted round is its own batch, as if it had been flushed
        the moment it was accepted — an outbox that fills because the
        fan-out runs later (after :meth:`accept`, behind a held flush
        lock) does not change what subscribers are told.  Only a shard
        that refused a batch coalesces: a head round at or below the
        shard's ``covered`` seq came back from that refusal (``RB``),
        and then every round up to the ``wal_seq`` read here goes in one
        batch — as with ``drain``, which ``reshard`` numbers by so that
        every affected shard covers the same seq.  A round is in the list
        only once ``wal_seq`` has reached its seq, and only this lock's
        holder pops, so the batch is never empty; a round accepted after
        the read waits for the next ``B``.
        """
        state = self._wal.state
        rounds = state.rounds.get(shard_id)
        if not rounds:
            return None
        head = rounds[0][0]
        if drain or head <= state.covered.get(shard_id, 0):
            covered = state.wal_seq
        else:
            covered = head
        batch_no = state.batch_no.get(shard_id, 0) + 1
        self._wal.append(("B", shard_id, batch_no, covered))
        return state.redo[shard_id][-1]

    def _submit_write(
        self, shard_id: int, batch: Tuple[int, Any], block: bool
    ) -> bool:
        """Enqueue a numbered batch (flush lock held); returns whether
        the shard took it.

        Its ``B`` record — number assigned, batch in the redo log, and
        with a directory on disk — preceded this call, so a batch a
        dying worker swallows is still replayable; a refused
        non-blocking submit appends the compensating ``RB`` (the items
        return to the head of the outbox and renumber when they
        eventually flush).

        The items are whatever ``write_batch`` filed: a
        :class:`~repro.core.statestore.WriteFrame` packed at the door —
        the redo log, the executor submit (hence the request frame) and
        any restart/recovery replay all share that one
        record array — or, for batches that failed the packing gate, a
        triple list that rides the pickle codec.
        """
        batch_no, items = batch
        with self._route_lock:
            self.writes_delivered += len(items)
        request = (OP_WRITE, self._next_seq(), batch_no, items)
        ex = self._executors[shard_id]
        if block:
            ex.submit(request)
            return True
        if ex.try_submit(request):
            return True
        self._wal.append(("RB", shard_id, batch_no))
        with self._route_lock:
            self.writes_delivered -= len(items)
        return False

    def flush(self) -> None:
        """Force every outbox into its shard queue (blocking on full queues)."""
        for shard_id in range(self.num_shards):
            self._flush_shard(shard_id, block=True)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, node: NodeId) -> Any:
        """Evaluate the query at one node."""
        return self.read_batch([node])[0]

    @contextmanager
    def _owners_locked(self, nodes: List[NodeId]):
        """Hold the flush locks of the shards that own ``nodes``, their
        outboxes flushed; yields the ``{shard: positions}`` that is
        current while they are held — what a per-ego request is sent
        by, before they release.

        The locks go in ascending shard id, as ``reshard`` takes them.
        A ``P`` fold installs a new table, so finding the same one once
        they are held proves the owners still stand; after a swap they
        are resolved again, and if an ego moved to a shard not held,
        this starts over holding every flush lock, which freezes the
        partition.  On the way out the held outboxes flush again without
        blocking, so writes that parked behind the hold leave with it.
        """
        table = self.reader_shard
        owners = self._router.owners(nodes)
        for held in (sorted(owners), range(self.num_shards)):
            locks = [self._flush_locks[shard_id] for shard_id in held]
            for lock in locks:
                lock.acquire()
            if self.reader_shard is not table:
                owners = self._router.owners(nodes)
            if owners.keys() <= set(held):
                break
            for lock in reversed(locks):
                lock.release()
        try:
            for shard_id in owners:
                self._flush_locked(shard_id, block=True)
            yield owners
            for shard_id in owners:
                self._flush_locked(shard_id, block=False)
        finally:
            for lock in reversed(locks):
                lock.release()

    def read_batch(self, nodes: Sequence[NodeId]) -> List[Any]:
        """Evaluate the query at each node, preserving input order.

        Flushes the involved shards' outboxes first, so a read observes
        every write this server accepted before the call (per-shard FIFO
        read-your-writes), then sends each owning shard one ``OP_READ``
        for its egos.
        """
        self._check_open()
        nodes = list(nodes)
        aggregate = self.query.aggregate
        identity = aggregate.finalize(aggregate.identity())
        results: List[Any] = [identity] * len(nodes)
        calls = []
        with self._owners_locked(nodes) as owners:
            for shard_id, positions in owners.items():
                egos = [nodes[p] for p in positions]
                calls.append((positions, self._submit_call(shard_id, OP_READ, egos)))
        for positions, call in calls:
            values = self._await([call])[0]
            for position, value in zip(positions, values):
                results[position] = value
        return results

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self,
        subscriber: Hashable,
        nodes: Optional[Sequence[NodeId]] = None,
        resume_from: Optional[int] = None,
    ) -> Subscription:
        """Turn reads on ``nodes`` into a standing query for ``subscriber``.

        Returns the subscriber's :class:`Subscription` (one per subscriber
        id; repeated calls extend it).  Its :attr:`~Subscription.snapshot`
        carries each ego's value at subscribe time — notifications then
        fire exactly for later changes.  Egos that no shard owns (filtered
        out by the query predicate or absent from the graph) appear in the
        snapshot with the identity value and never notify.

        With ``resume_from=N`` this is a **reconnect**: a fresh handle
        whose cursor into the journal is ``N`` replaces (cuts off) the
        previous one; it reads every notification with stamp ``> N``,
        carrying the *original* stamps, then live ones — no gap, no
        duplicate.  Raises :class:`~repro.serve.journal.ResumeGapError`
        (the previous handle cut off all the same) when the journal no
        longer retains stamp ``N+1``; the caller must re-baseline with a
        plain ``subscribe``, which hands out a fresh handle at the newest
        stamp once the current one is cut off or has raised
        ``ResumeGapError`` (a live handle behind the horizon is returned
        as it is, and its next read raises).
        ``nodes`` may be omitted on reconnect (existing watches stand);
        passing nodes as well extends the watch set in the same call.
        """
        self._check_open()
        nodes = list(nodes) if nodes is not None else []
        subscription = self._subs.attach(subscriber, resume_from)  # may raise
        with self._owners_locked(nodes) as owners:
            # Reply and ``S`` under the locks too: no write and no
            # reshard reaches a shard between arming and recording.
            per_shard = {
                shard_id: [nodes[position] for position in positions]
                for shard_id, positions in owners.items()
            }
            calls = [
                self._submit_call(shard_id, OP_SUBSCRIBE, subscriber, shard_nodes)
                for shard_id, shard_nodes in per_shard.items()
            ]
            for (shard_id, shard_nodes), (snapshot, shard_stamp) in zip(
                per_shard.items(), self._await(calls)
            ):
                subscription.snapshot.update(snapshot)
                self._subs.watch(subscriber, shard_id, shard_nodes, shard_stamp)
        aggregate = self.query.aggregate
        identity = aggregate.finalize(aggregate.identity())
        for node in nodes:
            subscription.snapshot.setdefault(node, identity)  # no shard owns it
        return subscription

    def disconnect(self, subscriber: Hashable) -> int:
        """Cut ``subscriber``'s live handle off (a client vanishing): its
        reads return nothing from now on.

        Shard watches stay armed and the journal keeps recording, so a
        later ``subscribe(..., resume_from=N)`` reads everything missed.
        Returns the last stamp delivered-or-journaled for the subscriber
        (what a fully caught-up client would resume from).  Unknown
        subscribers return 0.
        """
        return self._subs.disconnect(subscriber)

    def last_stamp(self, subscriber: Hashable) -> int:
        """The last notification stamp assigned to ``subscriber`` (0 for
        unknown subscribers).  A fully caught-up client holds exactly
        this value as its resume token; the gateway reports it in
        subscribe replies so reconnect cursors start from truth rather
        than from whatever the client last saw."""
        return self._subs.last_stamp(subscriber)

    def resume_horizon(self, subscriber: Hashable) -> int:
        """The oldest stamp a ``resume_from`` may name without raising
        :class:`~repro.serve.journal.ResumeGapError` — the subscriber's
        journal horizon (``evicted_through``).  0 for unknown
        subscribers (everything is resumable)."""
        return self._subs.resume_horizon(subscriber)

    def ack(self, subscriber: Hashable, stamp: int) -> int:
        """Acknowledge delivery through ``stamp``: the journal drops that
        prefix (freeing resume-window space) and a later ``resume_from``
        below ``stamp`` raises
        :class:`~repro.serve.journal.ResumeGapError`.  Returns the number
        of journal entries released.  Acknowledging a stamp that was never
        delivered raises ``ValueError`` — silently accepting it would
        advance the journal's horizon past its own stamp counter and
        poison the next append (killing the reply drainer).
        """
        return self._subs.ack(subscriber, stamp)

    def unsubscribe(
        self, subscriber: Hashable, nodes: Optional[Sequence[NodeId]] = None
    ) -> int:
        """Cancel ``subscriber``'s watches on ``nodes`` (``None``: all).

        Returns the number of (ego, shard) watches removed.  With
        ``nodes=None`` the subscriber's journal is also retired —
        in-flight notifications for it are dropped.
        """
        self._check_open()
        if nodes is None:
            # Every shard, no flush lock: the ``U`` names no shard.
            calls = [
                self._submit_call(shard_id, OP_UNSUBSCRIBE, subscriber, None)
                for shard_id in range(self.num_shards)
            ]
        else:
            nodes = list(nodes)
            with self._owners_locked(nodes) as owners:
                calls = [
                    self._submit_call(
                        shard_id,
                        OP_UNSUBSCRIBE,
                        subscriber,
                        [nodes[position] for position in positions],
                    )
                    for shard_id, positions in owners.items()
                ]
        removed = sum(self._await(calls))
        self._subs.forget(subscriber, nodes)
        return removed

    # ------------------------------------------------------------------
    # lifecycle and introspection
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Barrier: every accepted write is applied on every shard.

        Raises :class:`ServeError` if any fire-and-forget write batch
        failed since the previous barrier.
        """
        self._check_open()
        self.flush()
        calls = [
            self._submit_call(shard_id, OP_DRAIN)
            for shard_id in range(self.num_shards)
        ]
        self._await(calls)
        if self._async_errors:
            errors, self._async_errors = self._async_errors, []
            raise ServeError("; ".join(errors))

    def stats(self) -> List[Dict[str, Any]]:
        """Per-shard operational snapshots (counters, registry sizes)."""
        self._check_open()
        self.flush()
        calls = [
            self._submit_call(shard_id, OP_STATS)
            for shard_id in range(self.num_shards)
        ]
        return self._await(calls)

    def checkpoint(
        self, shards: Optional[Sequence[int]] = None
    ) -> Dict[int, ShardCheckpoint]:
        """Snapshot shard restart state; truncate the redo logs.

        For each target shard (default: all): flush its outbox, ask it for
        a :class:`~repro.serve.messages.ShardCheckpoint` (the request rides
        the FIFO queue, so the checkpoint covers every batch submitted
        before it), remember it as the shard's restart baseline, and drop
        redo-log batches the checkpoint already contains (the ``C``
        record's fold does both, at every checkpoint and not just at
        restart — which is what bounds redo memory over a long run:
        entries a persisted checkpoint covers can never replay again).
        Returns the new checkpoints keyed by shard id.

        Safe to race: the flusher checkpoints due shards after an
        :meth:`accept` while a :meth:`write_batch` caller may do the same.
        A snapshot whose worker was replaced before it could be logged is
        dropped, and the ``C`` fold ignores one older than the installed
        checkpoint, so an out-of-order pair never truncates redo entries
        the surviving checkpoint lacks.

        Checkpoint cost is O(shard state) — the window buffers and watch
        registry are pickled — so production deployments amortize it via
        ``checkpoint_interval`` rather than checkpointing per batch.
        """
        self._check_open()
        targets = list(range(self.num_shards)) if shards is None else list(shards)
        calls = []
        for shard_id in targets:
            self._flush_shard(shard_id, block=True)
            worker = self._executors[shard_id]
            calls.append(
                (shard_id, worker, self._submit_call(shard_id, OP_CHECKPOINT))
            )
        out: Dict[int, ShardCheckpoint] = {}
        for shard_id, worker, call in calls:
            ck = self._await([call])[0]
            with self._flush_locks[shard_id]:
                if self._executors[shard_id] is not worker:
                    # A reshard or restart_shard replaced the worker
                    # meanwhile: this snapshot is of a retired incarnation
                    # (a reshard's synthetic checkpoint supersedes it).
                    continue
                self._wal.append(("C", shard_id, ck), sync=True)
            out[shard_id] = ck
        # Checkpoint-gated: once every shard has one, the log can
        # fold to a snapshot segment and stay size-bounded too.
        self._wal.maybe_compact()
        return out

    def restart_shard(self, shard_id: int) -> int:
        """Rebuild a (dead or live) shard worker and recover its state.

        The replacement is built from the shard's :class:`ShardSpec` plus
        its last checkpoint (blank slate when none was ever taken), then:

        1. every subscriber's watches on this shard are re-armed *first*,
           so their diffing baselines sit at checkpoint-time values;
        2. the redo log — every batch submitted since that checkpoint —
           replays in order.  Batch numbers the checkpoint already covers
           are skipped shard-side; re-derived notifications whose values
           subscribers already saw are suppressed front-side.

        Together that makes recovery exact: reads match a shard that never
        died, and subscribers observe no stamp gap, no duplicate, and no
        lost value-change.  A still-running worker is killed uncleanly
        first (this is crash recovery, not graceful migration — take a
        :meth:`checkpoint` before a planned restart to shrink the replay).
        Returns the number of redo batches replayed.
        """
        self._check_open()
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no such shard: {shard_id}")
        with self._flush_locks[shard_id]:
            self._replace_worker(
                shard_id, self._wal.state.checkpoints.get(shard_id)
            )
            replayed = self._replay(shard_id)
        self.restarts += 1
        self.replayed_batches += replayed
        return replayed

    # ------------------------------------------------------------------
    # live resharding
    # ------------------------------------------------------------------

    def _fault(self, point: str) -> None:
        hook = self.reshard_faults.get(point)
        if hook is not None:
            hook()

    def reshard(self, plan) -> Dict[str, Any]:
        """Migrate reader sets between shards **live** — no lost or
        duplicated notification, no blocked writer.

        ``plan`` is a :class:`~repro.serve.reshard.ReshardPlan` (or a
        plain ``{reader: destination_shard}`` dict).  The protocol, built
        entirely on the existing checkpoint/redo/WAL machinery:

        1. **Quiesce** the affected shards only: their flush locks are
           taken and their non-blocking flushes park (``write_batch``
           never waits — writes to moving writers collect in the
           outboxes as *residue*), then every already-parked write is
           force-flushed into the old workers.
        2. **Checkpoint** each affected shard through its FIFO queue —
           the reply guarantees every earlier notification was delivered,
           so watch moves below cannot strand an in-flight change.
        3. **Splice** (:func:`~repro.serve.reshard.splice`): synthetic
           checkpoints for the new partition, moved watches and baselines
           following their egos.  Old workers are killed, new ones boot
           from the synthetic checkpoints, watches included.
        4. **Swap**, atomically under the route lock: the residue is
           re-routed under the new partition
           (:func:`~repro.serve.reshard.reroute`), and a single WAL ``P``
           record (epoch, moves, synthetic checkpoints, rerouted residue)
           makes the whole migration one atomic recovery event: a crash
           replays entirely before or entirely after it.  Its fold
           installs the new partition and moves the watch registry's
           entries with their egos — here and on recovery.
        5. The flush locks release, residue flushes to the new workers,
           the observed replication window restarts.

        Raises :class:`ServeError` (and leaves the old partition fully
        intact) if an affected worker dies before step 3 hands anything
        over; a failure *during* the splice poisons the server the same
        way a background flush failure does — ``restart_shard`` recovers.
        Returns a summary dict (``moved``, ``affected``, ``epoch``...).
        """
        self._check_open()
        moves: Dict[NodeId, int] = {}
        for node, dst in dict(getattr(plan, "moves", plan)).items():
            dst = int(dst)
            if not 0 <= dst < self.num_shards:
                raise ValueError(f"no such shard: {dst}")
            if self.reader_shard.get(node) not in (None, dst):
                moves[node] = dst
        if not moves:
            return {
                "moved": 0,
                "affected": [],
                "epoch": self.partition_epoch,
                "replication_factor": self.replication_factor,
            }
        with self._reshard_lock:
            old_table = self.reader_shard
            affected = sorted(
                {old_table[node] for node in moves} | set(moves.values())
            )
            with self._route_lock:
                self._migrating.update(affected)
            locks = [self._flush_locks[shard_id] for shard_id in affected]
            for lock in locks:
                lock.acquire()
            handed_over = False
            try:
                # -- 1. drain the already-parked writes into the old epoch.
                # One route-lock critical section across every affected
                # shard, so every ``B`` covers the same ``wal_seq``: a
                # multicast round accepted between per-shard numberings
                # would be drained (applied + checkpointed) on one shard
                # yet remain residue on another — step 3's merged buffers
                # would bake its effect into the synthetic checkpoint AND
                # the residue would replay it after the swap, double-
                # counting the event.  One coverage point makes the
                # drained/residue split identical across affected shards.
                with self._route_lock:
                    drained = {
                        shard_id: self._number_batch(shard_id, drain=True)
                        for shard_id in affected
                    }
                for shard_id in affected:
                    if drained[shard_id] is not None:
                        self._submit_write(
                            shard_id, drained[shard_id], block=True
                        )
                self._fault("pre_checkpoint")

                # -- 2. checkpoint through the FIFO (notices all delivered)
                calls = [
                    self._submit_call(shard_id, OP_CHECKPOINT)
                    for shard_id in affected
                ]
                cks = dict(zip(affected, self._await(calls)))
                for shard_id in affected:
                    self._wal.append(("C", shard_id, cks[shard_id]), sync=True)

                # -- 3. splice state into the new partition ---------------
                owned, synthetic = splice(
                    old_table, moves, cks, self._wal.state.batch_no
                )
                new_routes = self._router.derive({**old_table, **moves})
                self._fault("pre_swap")

                # Past this point a failure leaves shards mid-rebuild:
                # fail-stop (poison) instead of unwinding, like a flush
                # crash.
                handed_over = True
                # The synthetic checkpoints carry the moved watches, so
                # the new workers boot armed.  The front-side registry
                # follows at the swap, by the ``P`` fold: the step-2
                # checkpoint replies trailed every earlier change report
                # and no write reaches a new worker before the flush
                # locks release, so no delivery runs in between.
                for shard_id in affected:
                    self._replace_worker(
                        shard_id, synthetic[shard_id], owned[shard_id]
                    )

                # -- 4. the atomic swap -----------------------------------
                with self._route_lock:
                    rerouted = reroute(
                        self._wal.state.rounds,
                        affected,
                        self.writer_shards,
                        new_routes.writer_shards,
                    )
                    self._epoch_base = (self.writes_sent, self.writes_delivered)
                    # One record, appended in acceptance order: every W
                    # before it replays under the old partition, every W
                    # after it under the new one.  Its fold installs the
                    # new partition and the synthetic checkpoints, aligns
                    # the affected batch counters to theirs and replaces
                    # their outboxes with the re-routed residue.
                    self._wal.append(
                        (
                            "P",
                            self.partition_epoch + 1,
                            moves,
                            synthetic,
                            rerouted,
                        ),
                        sync=True,
                    )
            except BaseException as exc:
                if handed_over:
                    self._flush_failed.update(affected)
                    if self._poisoned is None:
                        self._poisoned = (
                            f"reshard failed mid-splice ({type(exc).__name__}"
                            f": {exc}); restart_shard() the affected shards"
                        )
                raise
            finally:
                with self._route_lock:
                    self._migrating.difference_update(affected)
                for lock in reversed(locks):
                    lock.release()
            self._fault("post_swap")

            # -- 5. release: residue flushes to the new workers ----------
            for shard_id in affected:
                self._flush_shard(shard_id, block=True)
            self._wal.maybe_compact()
            self.reshards += 1
            return {
                "moved": len(moves),
                "affected": affected,
                "epoch": self.partition_epoch,
                "residue": sum(len(v) for v in rerouted.values()),
                "replication_factor": self.replication_factor,
            }

    def rebalance(
        self,
        policy=None,
        write_freq: Optional[Dict[NodeId, float]] = None,
    ) -> Dict[str, Any]:
        """Propose-and-apply: consume per-shard load from the metrics
        plane (``server_stats()["shard_load"]``), and if the skew crosses
        the policy threshold, :meth:`reshard` a migration plan that moves
        a writer-closure of readers off the hottest shard.  Returns the
        reshard summary (``moved == 0`` and ``"plan": None`` when load is
        balanced — calling this on a quiet server is free)."""
        plan = propose_rebalance(self, policy=policy, write_freq=write_freq)
        summary = self.reshard(plan or {})
        summary["plan"] = {"kind": plan.kind, "reason": plan.reason} if plan else None
        return summary

    @property
    def reader_shard(self) -> Dict[NodeId, int]:
        """Reader -> owning shard: the ledger's own table (read-only; a
        reshard's ``P`` fold replaces it with a new dict)."""
        return self._wal.state.reader_shard

    @property
    def partition_epoch(self) -> int:
        """Reshards applied to this deployment's partition, ever."""
        return self._wal.state.meta.get("partition_epoch", 0)

    @property
    def writer_shards(self) -> Dict[NodeId, Tuple[int, ...]]:
        """Writer -> the shards whose readers aggregate it, derived from
        :attr:`reader_shard` (read-only)."""
        return self._router.routes().writer_shards

    @property
    def notifications_delivered(self) -> int:
        """Notifications journalled (and, for connected subscribers,
        queued) so far."""
        return self._subs.delivered

    @property
    def notifications_replayed(self) -> int:
        """Notifications re-queued from journals by ``resume_from``."""
        return self._subs.replayed

    @property
    def notifications_suppressed(self) -> int:
        """Re-derived rows the replay filter withheld."""
        return self._subs.suppressed

    @property
    def replication_factor(self) -> float:
        """**Planned** replication: mean shards per writer in the current
        routing table — what the partitioner promised, independent of
        traffic.  The old single number conflated this with the observed
        delivery ratio (warmup and replayed batches included), which made
        partition quality unmeasurable; see
        :attr:`observed_replication_factor` for the traffic-weighted view.
        """
        total = sum(len(s) for s in self.writer_shards.values())
        return total / max(1, len(self.writer_shards))

    @property
    def observed_replication_factor(self) -> float:
        """**Observed** replication: multicast copies delivered per write
        accepted *since the last partition-epoch change* (a reshard resets
        the window, so the ratio reflects the current partition rather
        than averaging over dead epochs).  Falls back to the planned
        factor before any write lands in the window.
        """
        base_sent, base_delivered = self._epoch_base
        sent = self.writes_sent - base_sent
        if sent <= 0:
            return self.replication_factor
        return (self.writes_delivered - base_delivered) / sent

    def shard_sizes(self) -> List[int]:
        """Number of readers owned per shard."""
        sizes = [0] * self.num_shards
        for shard_id in self.reader_shard.values():
            sizes[shard_id] += 1
        return sizes

    def close(self) -> None:
        """Flush, stop every shard, release resources (idempotent).

        Closing flushes rather than drops: writes accepted before the
        call are applied before the shard workers exit (the stop request
        rides the same FIFO queue).  Raises :class:`ServeError` after the
        shutdown completes if any fire-and-forget write batch failed
        since the last :meth:`drain` — those writes were lost and the
        caller must learn about it.
        """
        if self._closed:
            return
        self._stop_flusher.set()
        self._wake_flusher.set()
        self._flusher.join(timeout=5.0)
        try:
            self.flush()
        finally:
            self._closed = True
            for ex in self._executors:
                ex.stop(self._next_seq())
            self._subs.close()
            # Closing drops the flock: a standby replica can promote.
            self._wal.close()
        if self._async_errors:
            # Fire-and-forget write failures since the last drain():
            # shutdown completed, but the caller must learn about them.
            errors, self._async_errors = self._async_errors, []
            raise ServeError("; ".join(errors))

    def metrics(self, include_buckets: bool = False) -> Dict[str, Any]:
        """Structured metrics snapshot — the metrics plane's API surface.

        Sections: ``server`` (front-end registry: route/WAL/write→notify
        histograms plus delivery counters), ``shard_io``/``codec_mix``
        (per-shard and summed frame-codec counters), ``shards`` (each
        shard's registry, scraped with one ``OP_STATS`` round trip per
        process shard), ``journal`` (notification-log occupancy and
        capacity evictions), ``wal`` (size and append/fsync counts) and ``slow_ops`` (the
        bounded structured event ring).  Shard-keyed sections are dicts
        keyed by the shard id as a string, which the Prometheus exporter
        turns into a ``shard=...`` label.  With ``include_buckets`` each
        histogram summary also carries its raw bucket counts.

        Safe to call concurrently with writes: a shard answers its scrape
        between two requests, so what it reports is consistent.
        """
        server = dict(self._registry.snapshot(include_buckets))
        server.update(
            writes_sent=self.writes_sent,
            writes_delivered=self.writes_delivered,
            notifications_delivered=self._subs.delivered,
            notifications_replayed=self._subs.replayed,
            notifications_suppressed=self._subs.suppressed,
            coalesced_flushes=self.coalesced_flushes,
            restarts=self.restarts,
            replayed_batches=self.replayed_batches,
            recovered_batches=self.recovered_batches,
        )
        shard_io: Dict[str, Dict[str, int]] = {}
        codec_mix: Dict[str, int] = {}
        for shard_id in range(self.num_shards):
            row = {**self._executors[shard_id].io, **self._subs.egress[shard_id]}
            shard_io[str(shard_id)] = row
            for key, value in row.items():
                codec_mix[key] = codec_mix.get(key, 0) + value
        shards: Dict[str, Dict[str, Any]] = {}
        if self.metrics_enabled and not self._closed:
            with self._scrape_lock:
                for shard_id, ex in enumerate(self._executors):
                    try:
                        values = ex.metric_values()
                    except Exception:  # noqa: BLE001 - scrape must never raise
                        continue
                    if values is None:
                        continue  # dead worker, or metrics off shard-side
                    try:
                        self._shard_schema.load_values(values)
                    except ValueError:
                        continue  # schema drift: skip, don't lie
                    shards[str(shard_id)] = self._shard_schema.snapshot(
                        include_buckets
                    )
        wal = self._wal
        wal_section = {
            "enabled": wal.directory is not None,
            "total_bytes": wal.total_bytes(),
            "appends": wal.appends,
            "fsyncs": wal.fsyncs,
        }
        return {
            "enabled": self.metrics_enabled,
            "server": server,
            "shard_io": shard_io,
            "codec_mix": codec_mix,
            "shards": shards,
            "journal": self._subs.journal_stats(),
            "wal": wal_section,
            "slow_ops": self.slow_ops.snapshot(),
        }

    def metrics_http(self, host: str = "127.0.0.1", port: int = 0):
        """Start a stdlib HTTP endpoint serving ``GET /metrics`` as
        Prometheus text exposition of :meth:`metrics`.  Returns the
        endpoint handle (``.port`` — useful with ``port=0`` — and
        ``.shutdown()``).  Entirely optional; nothing is started unless
        this is called."""
        from repro.obs import serve_metrics_http

        return serve_metrics_http(self, host=host, port=port)

    def _shard_load(self, m: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Per-shard load rows from a :meth:`metrics` snapshot: the numbers
        the rebalance policy consumes and operators read — same source
        (the ``obs`` shard gauges), so the two can never disagree.
        ``ring_depth`` is always 0: the transport has no ring, and the
        column stays for readers of the row."""
        sizes = self.shard_sizes()
        pending = [
            self._parked_rows(shard_id) for shard_id in range(self.num_shards)
        ]
        rows: List[Dict[str, Any]] = []
        for shard_id in range(self.num_shards):
            row = {
                "shard": shard_id,
                "readers": sizes[shard_id],
                "busy_fraction": 0.0,
                "applied_eps": 0.0,
                "ring_depth": 0,
                "outbox_pending": pending[shard_id],
            }
            scraped = m["shards"].get(str(shard_id))
            if scraped:
                row["busy_fraction"] = float(
                    scraped.get("shard_busy_fraction", 0.0)
                )
                row["applied_eps"] = float(scraped.get("shard_applied_eps", 0.0))
            rows.append(row)
        return rows

    def server_stats(self) -> Dict[str, Any]:
        """Front-end operational snapshot (complements per-shard
        :meth:`stats`): deployment shape, the reader-assignment strategy
        and its multicast **replication factor** — the average number of
        shards each accepted write fans out to, the serve tier's dominant
        write cost — plus transport counters (coalesced flushes,
        restarts).

        A compatibility view over :meth:`metrics` — every counter here is
        sourced from the same snapshot, so the two never disagree.
        ``shard_io`` reports, per shard, what the frame codec chose on
        each hot path: ingress bytes and binary-vs-pickle write-frame
        counts (from the shard's executor), egress notification bytes
        and binary-vs-pickle notification counts (from the delivery
        threads).  ``codec_mix`` is the same, summed over shards — on a
        workload whose batches all pass the packing gate,
        ``write_frames_pickle`` and ``notes_pickle`` stay at zero.
        ``write_notify_latency`` is the end-to-end write→notify latency
        summary (count/sum/p50/p95/p99 in seconds) measured from
        ``write_batch`` ingress to subscriber-journal delivery through the
        full binary-frame path; with metrics off (or for batches
        on the pickle codec, which carries no ingress stamps) it reports
        zeros — present and finite either way.
        """
        m = self.metrics()
        server = m["server"]
        return {
            "num_shards": self.num_shards,
            "executor": self.executor_kind,
            "transport": self.transport,
            "assignment": self.assignment,
            "replication_factor": self.replication_factor,
            "observed_replication_factor": self.observed_replication_factor,
            "partition_epoch": self.partition_epoch,
            "reshards": self.reshards,
            "shard_load": self._shard_load(m),
            "shard_sizes": self.shard_sizes(),
            "writes_sent": self.writes_sent,
            "writes_delivered": self.writes_delivered,
            "notifications_delivered": self._subs.delivered,
            "coalesced_flushes": self.coalesced_flushes,
            "restarts": self.restarts,
            "replayed_batches": self.replayed_batches,
            "wal": m["wal"]["enabled"],
            "wal_bytes": m["wal"]["total_bytes"],
            "recovered_batches": self.recovered_batches,
            "shard_io": [
                m["shard_io"][str(shard_id)]
                for shard_id in range(self.num_shards)
            ],
            "codec_mix": m["codec_mix"],
            "metrics_enabled": m["enabled"],
            "write_notify_latency": server["srv_write_notify_seconds"],
        }

    def __enter__(self) -> "EAGrServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        """One-line summary of the deployment."""
        return (
            f"EAGrServer(shards={self.num_shards}, executor={self.executor_kind}, "
            f"transport={self.transport}, assign={self.assignment}, "
            f"readers={self.shard_sizes()}, "
            f"replication={self.replication_factor:.2f})"
        )
