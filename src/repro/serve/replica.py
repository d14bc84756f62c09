"""Warm read-replica: a second process tailing the primary's WAL.

StreamWorks-style standing queries want a read-scaling / high-availability
tier; the EAGr front-end's :class:`~repro.serve.wal.WriteAheadLog` is the
natural replication stream, because it already totally orders every
accepted write round and batch assignment.  :class:`ReplicaServer`
follows that log — poll-driven, read-only, never truncating — and keeps
its own in-process shard engines a bounded lag behind the primary.

It interprets nothing itself: every tailed record goes through the same
:meth:`WalState.fold <repro.serve.wal.WalState.fold>` the primary's
live ledger and a cold restart run, into the replica's own
:class:`~repro.serve.wal.WalState`.  What is replica-specific happens
*after* a fold:

* a ``B`` fold just filed the exact batch the primary submitted at the
  redo tail; the replica applies it **batch-exact** through
  :meth:`ShardHost.apply_write_batch`, so its engines advance through
  precisely the primary's stamp trajectory (idempotently —
  re-application after a snapshot reset is skipped by
  ``applied_through``).  The one piece of record state the replica
  keeps is the *rolled-back marker*: an ``RB`` voids a batch this
  replica already applied, so the re-issue under the same number applies
  only its newer rounds;
* ``META`` / ``SNAP`` rebuild every shard host, ``P`` the affected ones,
  from the fold — reader sets, checkpoint, redo suffix — through one
  helper, the same :class:`~repro.serve.shard.ShardSpec` + checkpoint
  restore path a crash recovery uses;
* a compaction racing the tailer is self-healing: when the cursor's
  segment disappears, the tailer re-anchors at the new snapshot base
  and the replica rebuilds from the ``SNAP`` record.

Reads are **pull with an explicit staleness bound**:
:meth:`ReplicaServer.read_batch` first waits (up to ``wait``) for the
replica to consume the log to within ``max_lag_bytes`` of its current
end, then answers under the apply lock together with the watermark the
answer corresponds to — a read is always consistent with the primary's
state *at that watermark*, never a torn mix.  :exc:`StaleReadError`
fires when the bound cannot be met in time.

Promotion: when the primary dies (however uncleanly), the kernel drops
its WAL ``flock``; :meth:`ReplicaServer.promote` drains the log to its
end, shuts the tailer down, and boots a full ``EAGrServer(wal_dir=...)``
over the same log — the standard cold-restart recovery, which loses no
acknowledged batch.  The replica's warm engines make the *observable*
gap small (reads keep being served until the moment of promotion); the
new primary then re-acquires the single-writer lock.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.core.query import EgoQuery
from repro.graph.dynamic_graph import DynamicGraph
from repro.serve.router import Router, readers
from repro.serve.shard import ShardHost, ShardSpec
from repro.serve.wal import WalState, WalTailer, list_segments

NodeId = Hashable


class ReplicaError(RuntimeError):
    """The replica cannot serve the request (not attached, closed, ...)."""


class StaleReadError(ReplicaError):
    """The replica could not catch up to the requested staleness bound
    before the wait deadline."""


class ReplicaServer:
    """Read-only warm standby fed by a primary's WAL directory.

    Parameters
    ----------
    graph / query:
        The same deployment arguments the primary was built with (the
        WAL persists the reader *partition*, not the graph itself).
    wal_dir:
        The primary's log directory.
    poll_interval:
        Tailer sleep between polls when the log is idle.
    engine_kwargs:
        Forwarded to each shard engine (must match the primary's for
        read equivalence — e.g. ``overlay_algorithm``, ``dataflow``).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        query: EgoQuery,
        wal_dir: str,
        poll_interval: float = 0.02,
        attach_timeout: float = 30.0,
        **engine_kwargs: Any,
    ) -> None:
        self.graph = graph
        self.query = query
        self.wal_dir = wal_dir
        self.poll_interval = poll_interval
        self._engine_kwargs = engine_kwargs
        self._tailer = WalTailer(wal_dir)
        self._apply_lock = threading.Lock()
        self._hosts: List[ShardHost] = []
        #: the fold of everything consumed so far (under the apply lock).
        self._state = WalState()
        #: reads resolve their owning hosts the way the primary does.
        self._router = Router(graph, query, self._state)
        #: shard -> batch number voided by an ``RB`` (awaiting re-issue).
        self._rolled_back: Dict[int, int] = {}
        self.reshards_applied = 0
        self.batches_applied = 0
        self.resets = 0
        self._closed = False
        self._stop = threading.Event()
        from repro.obs import MetricsRegistry

        #: Replica-side registry: lag + apply progress, refreshed on
        #: :meth:`metrics` (pull-model — the tail loop stays untimed).
        self._registry = MetricsRegistry(enabled=True)
        self._m_lag = self._registry.gauge("replica_lag_bytes")
        self._m_applied = self._registry.gauge("replica_batches_applied")
        self._m_resets = self._registry.gauge("replica_snapshot_resets")
        # Attach synchronously: fold whatever the log already holds, so a
        # constructed replica is immediately serviceable (further records
        # stream in on the tailer thread).
        deadline = time.monotonic() + attach_timeout
        while True:
            with self._apply_lock:
                self._consume(self._tailer.poll())
            if self._hosts:
                break
            if time.monotonic() >= deadline:
                raise ReplicaError(
                    f"no WAL META record appeared in {wal_dir!r} within "
                    f"{attach_timeout}s"
                )
            time.sleep(self.poll_interval)
        self._thread = threading.Thread(
            target=self._tail_loop, name="eagr-replica-tailer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # record consumption
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._state.num_shards or 0

    @property
    def reader_shard(self) -> Dict[NodeId, int]:
        """The primary's reader partition as of the last consumed record
        (a ``P`` fold replaces it with a new dict; the hosts follow under
        the apply lock, so route under it)."""
        return self._state.reader_shard

    @property
    def partition_epoch(self) -> int:
        return self._state.meta.get("partition_epoch", 0)

    def _build_host(self, shard_id: int) -> ShardHost:
        """One shard host as the fold describes it: the shard's readers,
        restored from its checkpoint, redo suffix replayed."""
        state = self._state
        spec = ShardSpec(
            self.graph,
            self.query,
            shard_id=shard_id,
            num_shards=state.num_shards,
            readers=readers(state.reader_shard, [shard_id])[shard_id],
            engine_kwargs=self._engine_kwargs,
            checkpoint=state.checkpoints.get(shard_id),
        )
        host = spec.build()
        for batch_no, items in state.redo.get(shard_id, ()):
            host.apply_write_batch(batch_no, items)
        return host

    def _consume(self, records: Sequence[Tuple]) -> None:
        """Fold a run of tailed records and bring the hosts up to the
        new state (caller holds the apply lock)."""
        state = self._state
        for record in records:
            kind = record[0]
            already_applied = 0
            if kind == "B" and self._rolled_back.pop(record[1], None) == record[2]:
                # Re-issue of a rolled-back batch.  The replica applies
                # eagerly, so it applied the original under this number
                # (the primary's rollback happened before any worker
                # saw it); the ``RB`` fold put those rows back at the
                # head of the shard's rounds, and this fold will merge
                # them in front of the newer ones.
                already_applied = len(state.rounds[record[1]][0][1])
            state.fold(record)
            if kind == "B":
                _k, shard_id, batch_no, _covered = record
                items = state.redo[shard_id][-1][1]
                host = self._hosts[shard_id]
                if already_applied:
                    # Only the newer rounds are new here.  They apply
                    # unnumbered — value-equivalent, ``applied_through``
                    # already at ``batch_no`` — since a numbered apply
                    # would be skipped as a duplicate.
                    host.apply_write_batch(None, list(items)[already_applied:])
                else:
                    # Batch-exact application: ``applied_through`` makes
                    # a re-application after a SNAP reset a no-op.
                    host.apply_write_batch(batch_no, items)
                self.batches_applied += 1
            elif kind == "RB":
                # A refused non-blocking submit on the primary: the
                # assignment is void there, but the replica already
                # applied it.  Mark the number for the re-issue above.
                self._rolled_back[record[1]] = record[2]
            elif kind == "P":
                # A live reshard on the primary: the fold moved the
                # readers, installed the synthetic post-splice
                # checkpoints and replaced the pending rounds with the
                # re-routed residue; rebuild the affected hosts from it.
                for shard_id in record[3]:
                    self._hosts[shard_id] = self._build_host(shard_id)
                    self._rolled_back.pop(shard_id, None)
                self.reshards_applied += 1
            elif kind in ("META", "SNAP"):
                if kind == "SNAP":
                    self.resets += 1
                self._hosts = [
                    self._build_host(shard_id)
                    for shard_id in range(state.num_shards)
                ]
                self._rolled_back = {}
            # ``C`` / ``S`` / ``U``: the fold is all there is to do — the
            # replica applied those batches as they streamed, and
            # subscriptions are the primary's concern.

    def _tail_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                records = self._tailer.poll()
            except OSError:
                continue  # transient listing race; retry next tick
            if records:
                with self._apply_lock:
                    if self._closed:
                        return
                    self._consume(records)

    # ------------------------------------------------------------------
    # reads with a staleness bound
    # ------------------------------------------------------------------

    def lag_bytes(self) -> int:
        """Bytes of WAL the replica has not consumed yet (0 = caught up).

        Measured against the segment files on disk, so it reflects
        everything the primary has *flushed*, including rounds it has
        not fsynced yet.
        """
        segments = list_segments(self.wal_dir)
        total = 0
        cursor_index, cursor_offset = self._tailer.position()
        for index, path in segments:
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if cursor_index is None or index > cursor_index:
                total += size
            elif index == cursor_index:
                total += max(0, size - cursor_offset)
        return total

    def watermark(self) -> Dict[int, int]:
        """Per-shard highest applied batch number (the replica's position)."""
        with self._apply_lock:
            return {
                shard_id: host.applied_through
                for shard_id, host in enumerate(self._hosts)
            }

    def read(self, node: NodeId, **kwargs: Any) -> Any:
        return self.read_batch([node], **kwargs)[0]

    def read_batch(
        self,
        nodes: Sequence[NodeId],
        max_lag_bytes: int = 0,
        wait: float = 10.0,
    ) -> List[Any]:
        """Evaluate the query at each node against the replica's state.

        First waits (up to ``wait`` seconds) until the unconsumed WAL
        suffix is at most ``max_lag_bytes``; raises
        :class:`StaleReadError` otherwise.  The answer is computed under
        the apply lock, so it is exactly the primary's state at
        :meth:`watermark` — reads never observe a half-applied batch —
        and routed under it too: a tailed ``P`` record moves readers
        between hosts, and an ego resolved against the table from
        before it would be asked of a host that no longer owns it.
        """
        self._check_open()
        deadline = time.monotonic() + wait
        while self.lag_bytes() > max_lag_bytes:
            if time.monotonic() >= deadline:
                raise StaleReadError(
                    f"replica lag {self.lag_bytes()}B exceeds the "
                    f"{max_lag_bytes}B bound after {wait}s"
                )
            time.sleep(self.poll_interval)
        nodes = list(nodes)
        aggregate = self.query.aggregate
        identity = aggregate.finalize(aggregate.identity())
        results: List[Any] = [identity] * len(nodes)
        with self._apply_lock:
            for shard_id, positions in self._router.owners(nodes).items():
                host = self._hosts[shard_id]
                values = host.engine.read_batch(
                    [nodes[p] for p in positions]
                )
                for position, value in zip(positions, values):
                    results[position] = value
        return results

    # ------------------------------------------------------------------
    # promotion and lifecycle
    # ------------------------------------------------------------------

    def promote(self, **server_kwargs: Any):
        """Take over as primary after the old primary's death.

        Drains the WAL to its current end (no acknowledged batch left
        behind), stops tailing, closes this replica, and boots a full
        :class:`~repro.serve.server.EAGrServer` over the same log — the
        standard cold-restart recovery path, including the subscriber
        journals and watch registry the read-only replica never
        materialized.  Raises
        :class:`~repro.serve.wal.WalLockedError` if the old primary is
        in fact still alive (its flock is still held) — split-brain is
        refused, not raced.
        """
        self._check_open()
        with self._apply_lock:
            self._consume(self._tailer.poll())
        self.close()
        from repro.serve.server import EAGrServer

        server_kwargs.setdefault("num_shards", self.num_shards)
        return EAGrServer(
            self.graph,
            self.query,
            wal_dir=self.wal_dir,
            **{**self._engine_kwargs, **server_kwargs},
        )

    def _check_open(self) -> None:
        if self._closed:
            raise ReplicaError("ReplicaServer is closed")

    def stats(self) -> Dict[str, Any]:
        return {
            "num_shards": self.num_shards,
            "batches_applied": self.batches_applied,
            "lag_bytes": self.lag_bytes(),
            "watermark": self.watermark(),
            "snapshot_resets": self.resets,
            "partition_epoch": self.partition_epoch,
            "reshards_applied": self.reshards_applied,
        }

    def metrics(self, include_buckets: bool = False) -> Dict[str, Any]:
        """Registry-shaped snapshot (same contract as the server's):
        ``{"enabled": True, "replica": {metric: value}}``, with the lag
        gauge refreshed at call time."""
        self._m_lag.set(self.lag_bytes())
        self._m_applied.set(self.batches_applied)
        self._m_resets.set(self.resets)
        return {
            "enabled": True,
            "replica": self._registry.snapshot(include_buckets),
        }

    def close(self) -> None:
        """Stop tailing and drop the shard engines (idempotent)."""
        if self._closed:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        with self._apply_lock:
            self._closed = True
            self._hosts = []

    def __enter__(self) -> "ReplicaServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
