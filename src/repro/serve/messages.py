"""Wire protocol between the serving front-end and its shards.

Messages are plain tuples (cheap to pickle across the process boundary, a
few machine words in-process):

Requests — ``(op, seq, *payload)``:

* ``(OP_WRITE, seq, batch_no, items)`` — apply a write batch; ``items`` is a
  list of ``(node, value, timestamp)`` triples in stream order and
  ``batch_no`` is the front-end's per-shard monotone batch number.  A shard
  **skips** any batch whose number it has already applied (``batch_no <=
  applied_through``), which makes the front-end's redo-log replay after a
  worker restart idempotent at batch granularity.
* ``(OP_READ, seq, nodes)`` — evaluate the query at each node.
* ``(OP_SUBSCRIBE, seq, subscriber, nodes)`` — start watching egos;
  the reply carries the baseline snapshot ``{node: value}``.
* ``(OP_UNSUBSCRIBE, seq, subscriber, nodes_or_None)`` — stop watching
  the listed egos (``None``: all of the subscriber's egos on this shard).
* ``(OP_DRAIN, seq)`` — barrier: the reply proves every earlier request on
  this queue has been fully applied (the queue is FIFO and the shard loop
  is single-threaded).
* ``(OP_STATS, seq)`` — operational counters snapshot.
* ``(OP_CHECKPOINT, seq)`` — reply with a :class:`ShardCheckpoint`: the
  picklable restart state of the shard (window buffers, subscriber
  watch/baseline registry, applied batch number, global write stamp).  The
  front-end keeps the latest checkpoint per shard and truncates that
  shard's redo log to batches after it.
* ``(OP_STOP, seq)`` — flush, acknowledge, exit the loop.
* ``(OP_HANDLES, seq)`` — reply with the shard's zero-copy read map:
  ``{reader node: (overlay handle, is_push)}`` plus the shard's shared
  value-segment name (or ``None`` off the shm path).  The front-end uses
  it to answer push-reader reads straight from the shard's shared
  columns; pull readers and unknown nodes stay on the ``OP_READ`` path.

Transports (:mod:`repro.serve.transport`): requests ride either a
bounded pipe or the shard's shared-memory ingress ring.  Both carry the
*same request tuples* in FIFO order — every ordering guarantee
documented here holds on either — and on both a write batch produces an
``R_WRITE`` reply only when it carries a change report (or ``R_ERR``
when it fails).  The one consumer of ``R_WRITE`` is the front-end's
notification fan-out, which has nothing to do for an empty report, and
nothing waits on a write's reply: a barrier is ``OP_DRAIN``, and on the
ring the processed-through watermark in the ring header is what reads
wait for.  An empty acknowledgement would be pure codec traffic.

Wire frames (:mod:`repro.serve.frames`): every ring payload starts with
a one-byte frame kind, and **the batch's own packability picks it** —
there is no deployment-level codec setting.

* ``K_WRITE`` (1) — a pickle-free write batch: a fixed header (kind,
  seq, batch_no, count, ingress stamp) followed by the raw bytes of a
  ``(node, value, timestamp)`` numpy record array
  (:class:`repro.core.statestore.WriteFrame`).  The shard decodes it
  with one ``np.frombuffer`` — zero per-item deserialization before
  the columnar scatter.  Every batch that passes the packing gate
  (``int`` node ids, ``float`` values and timestamps) is packed once,
  at the front-end's door, and travels this way.
* ``K_PICKLE`` (0) — ``pickle.dumps`` of the request tuple.  Control
  ops (read/subscribe/drain/...) always use it; so do write batches
  that fail the gate, item for item, on the same ring with identical
  ordering and replay semantics — mixed workloads need no switches.

Change reports follow the same rule in the other direction: the rows a
shard reports travel as one columnar ``ChangeFrame`` when they pack and
as a plain list otherwise.

Replies:

* ``(R_WRITE, seq, count, changes)`` — write batch applied and some
  watched ego changed (a batch that changes none sends nothing);
  ``changes`` reports every watched ego whose value actually changed,
  one row per ego (subscriber fan-out is the front-end's job): a
  :class:`~repro.serve.frames.ChangeFrame` (ego and value columns plus
  the shard write stamp) when the rows pass the packing gate, else a
  list of ``(ego, value, shard_batch)`` triples.
* ``(R_OK, seq, payload)`` — success for every other op.
* ``(R_ERR, seq, message)`` — the request raised; ``message`` is the
  stringified error (exceptions themselves may not pickle).
* ``(R_STOPPED, seq, None)`` — final reply after ``OP_STOP``; reply
  drainers exit on it.

``seq`` values are allocated by the front-end and unique per server, so
replies can be matched to waiting callers from any shard's drainer thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

NodeId = Hashable

# -- request opcodes --------------------------------------------------------
OP_WRITE = 0
OP_READ = 1
OP_SUBSCRIBE = 2
OP_UNSUBSCRIBE = 3
OP_DRAIN = 4
OP_STATS = 5
OP_STOP = 6
OP_CHECKPOINT = 7
OP_HANDLES = 8

# -- reply kinds ------------------------------------------------------------
R_OK = 0
R_WRITE = 1
R_ERR = 2
R_STOPPED = 3


class ServeError(Exception):
    """Raised when a shard reports an error or a reply times out."""


@dataclass(frozen=True, slots=True)
class Notification:
    """One pushed update of a standing query: ``F(N(ego))`` changed.

    Attributes
    ----------
    subscriber:
        The subscriber this delivery belongs to.
    ego:
        The query node whose aggregate changed.
    value:
        The new (finalized) aggregate value.
    stamp:
        Per-subscriber delivery stamp, strictly monotonically increasing
        and **contiguous** (1, 2, 3, ...) — a consumer that sees stamp
        ``n`` has seen every earlier delivery.  Stamps are assigned once,
        when the notification is journaled: a replay after
        ``resume_from=n`` re-delivers the *original* stamps ``n+1 ...``
        (exactly-once-after-resume), and stamps keep counting up across
        reconnects and shard restarts.
    shard:
        The shard that produced the change.
    batch:
        The shard runtime's global write stamp when the change was
        produced (monotone per shard, stable across overlay rebuilds and
        checkpoint/restart — see
        :meth:`repro.core.execution.Runtime.changed_report`); useful for
        correlating notifications with ingestion.
    """

    subscriber: Hashable
    ego: NodeId
    value: Any
    stamp: int
    shard: int
    batch: int


@dataclass(frozen=True, slots=True)
class ShardCheckpoint:
    """Everything a replacement worker needs to resume a shard's duty.

    Produced by ``OP_CHECKPOINT`` (pickle-snapshotted, so later shard
    mutations never alias into it).  Restoring is exact: the engine's
    value state is fully derivable from the writer window ``buffers``
    (:meth:`repro.core.execution.Runtime.rebuild` re-materializes PAOs
    from them), so a host rebuilt from ``ShardSpec`` + checkpoint answers
    reads identically to the checkpointed instance, and the front-end's
    redo log replays everything after ``applied_through`` idempotently.

    Attributes
    ----------
    shard_id:
        The shard this checkpoint belongs to (sanity-checked on restore).
    applied_through:
        Highest front-end batch number applied; replayed batches at or
        below it are skipped.
    stamp:
        The runtime's global write stamp, re-seeded on restore so
        notification ``batch`` tags stay monotone across the restart.
    clock:
        The runtime's logical clock (time-window coherence).
    buffers:
        ``writer node -> WindowBuffer`` — the full ingestion state.
    watchers:
        ``ego -> tuple(subscribers)`` — the shard's watch registry.
    baseline:
        ``ego -> last notified value`` — the diffing baselines, so a
        restarted shard re-notifies exactly the changes the checkpoint
        has not yet seen (the front-end's per-subscriber value filter
        drops any that were already delivered).
    """

    shard_id: int
    applied_through: int
    stamp: int
    clock: float
    buffers: Any
    watchers: Any
    baseline: Any
