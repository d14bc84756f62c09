"""The shard-execution protocol: one interface for every shard backend.

A *shard* is anything that can stand behind a slice of the reader space and
absorb the serving layer's traffic: the single-process
:class:`~repro.core.engine.EAGrEngine`, the thread-pool
:class:`~repro.core.concurrency.ThreadedEngine`, the in-process multi-shard
:class:`~repro.core.partitioned.PartitionedEngine`, and the serve layer's
in-process and worker-process shard hosts (:mod:`repro.serve.shard`) all
implement this protocol, so routing and subscription code is written once
against it.

The contract:

* ``write_batch(writes) -> int`` — absorb a batch of content updates (the
  usual ``(node, value[, timestamp])`` tuples or WriteEvent-like objects)
  and return how many were accepted.  Asynchronous backends may defer the
  actual application; ``drain()`` is the barrier.
* ``read_batch(nodes) -> list`` — evaluate the standing query at each node,
  observing every write the backend has *accepted* before this call (an
  asynchronous backend drains first).
* ``changed_readers() -> list`` — reader nodes whose aggregate value may
  have changed since the previous call: readers downstream of a writer
  that moved **and** readers whose neighbourhood a structural change
  altered (a superset is allowed — consumers diff values before acting;
  an empty list means "nothing changed").  No node appears twice.  Order
  is ascending overlay handle within one engine (shard by shard for a
  partitioned backend) — an artefact of how the set is deduplicated, not
  a meaning: nothing may rely on closure visit order or on more than
  "each candidate once".  This is the signal continuous subscriptions are
  built on.  Backends over a single overlay compute it in handle space
  (``EAGrEngine.changed_handles()`` / ``Runtime.changed_handles()``) and
  turn handles into node ids last (``Runtime.labels_of``), so a consumer
  that filters first — the serve layer's watch mask — materialises only
  what it keeps; ``changed_readers`` is that call with nothing filtered.
* ``changed_report() -> (stamp, readers)`` — the stamped variant:
  ``readers`` as above plus the backend's **global write stamp**, a
  monotone count of ingestion calls that survives overlay rebuilds and —
  for backends restored from checkpointed window buffers, like the serve
  layer's shard hosts — process restarts.  Consumers use it to version
  change reports durably (the serve layer's notification replay filter
  keys on it).
* ``drain()`` — block until every accepted write is applied.
* ``close()`` — flush pending work, then release resources.  ``close`` on
  an already-closed shard is a no-op.  Closing **flushes rather than
  drops**: writes accepted before ``close`` are visible to a final read.

The contract is deliberately *transport-free*: a backend may absorb
writes from an in-process call or through either of the serve layer's
transports (:mod:`repro.serve.transport` — a bounded request pipe or a
shared-memory ingress ring, behind one worker loop), and may answer
``read_batch`` itself or expose its value columns for the caller to
gather zero-copy — as long as the visibility rules above hold.  The
ring transport meets them with a published *processed-through
watermark* (the highest absorbed batch number plus the global write
stamp) instead of per-request acknowledgements; consumers treat
"watermark covers every batch I routed" as equivalent to a ``drain()``
barrier for reads.

It is also deliberately *durability-free*: ``write_batch`` returning
means accepted, not persisted.  Callers that need "acked ⇒ on stable
storage" layer it outside the protocol — the serve front-end logs every
batch to a write-ahead log (:mod:`repro.serve.wal`) *before* routing it
to shards, which is what lets any conforming backend be rebuilt
batch-exact after a crash: the stamp advances once per applied batch
regardless of coalescing, so replaying the logged batch sequence through
a fresh shard reproduces both the values and the stamps.  Backends
should preserve that batch-lockstep stamp discipline (see
``changed_report``) or recovered streams will renumber across restarts.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Protocol, Sequence, Tuple, runtime_checkable

NodeId = Hashable


@runtime_checkable
class ShardExecution(Protocol):
    """Structural interface every shard backend satisfies (see module doc)."""

    def write_batch(self, writes: Sequence) -> int:
        """Accept a batch of writes; returns the number accepted."""
        ...

    def read_batch(self, nodes: Sequence[NodeId]) -> List[Any]:
        """Evaluate the query at each node (after draining pending writes)."""
        ...

    def changed_readers(self) -> List[NodeId]:
        """Reader nodes possibly changed since the last call (consumed):
        each once, ascending overlay handle, structural candidates in."""
        ...

    def changed_report(self) -> Tuple[int, List[NodeId]]:
        """``(global write stamp, changed readers)`` — stamped variant."""
        ...

    def drain(self) -> None:
        """Block until every accepted write has been applied."""
        ...

    def close(self) -> None:
        """Flush pending writes, then release resources (idempotent)."""
        ...
