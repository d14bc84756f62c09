"""Partitioned (multi-machine style) deployment — the paper's Conclusions.

"Our approach is also naturally parallelizable through use of standard
graph partitioning-based techniques.  The readers can be partitioned in a
disjoint fashion over a set of machines, and for each machine, an overlay
can be constructed for the readers assigned to that machine; the writes for
each writer would be sent to all the machines where they are needed."

:class:`PartitionedEngine` implements exactly that composition over
in-process shards (each shard is a full :class:`EAGrEngine` with its own
overlay): readers are hashed (or custom-assigned) to shards, each shard
compiles an overlay for its readers only, and a write is *multicast* to the
shards whose reader set needs that writer.  Reads route to the owning shard.

This keeps per-shard state fully independent — the single-machine engine's
correctness transfers shard-by-shard — and exposes the deployment's real
cost: the **write replication factor** (average number of shards a write
must reach), which the bench reports.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.core.engine import EAGrEngine
from repro.core.partition import partition_readers
from repro.core.query import EgoQuery
from repro.graph.dynamic_graph import DynamicGraph

NodeId = Hashable


class PartitionedEngine:
    """EAGr sharded over K reader partitions.

    Parameters
    ----------
    graph / query:
        As for :class:`EAGrEngine`.
    num_shards:
        Number of shards (the paper's "machines").
    assign:
        Optional reader→shard assignment function; defaults to a stable
        hash.  Graph-partitioning-aware assignments (communities to the
        same shard) reduce the write replication factor.
    value_store:
        Aggregate-state backend for every shard (``auto`` / ``object`` /
        ``columnar``); shards resolve it independently but identically,
        so the deployment stays homogeneous.
    engine_kwargs:
        Forwarded to every shard's :class:`EAGrEngine` (overlay algorithm,
        dataflow mode, frequencies, ...).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        query: EgoQuery,
        num_shards: int = 4,
        assign: Optional[Callable[[NodeId], int]] = None,
        value_store: str = "auto",
        **engine_kwargs: Any,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.graph = graph
        self.query = query
        self.num_shards = num_shards
        self.value_store = value_store
        self.reader_shard = partition_readers(graph, query, num_shards, assign)

        base_predicate = query.predicate
        self.shards: List[EAGrEngine] = []
        for shard_id in range(num_shards):
            shard_query = EgoQuery(
                aggregate=query.aggregate,
                window=query.window,
                neighborhood=query.neighborhood,
                predicate=_ShardPredicate(self.reader_shard, shard_id, base_predicate),
                mode=query.mode,
            )
            self.shards.append(
                EAGrEngine(graph, shard_query, value_store=value_store, **engine_kwargs)
            )

        # Multicast routing table: writer -> shards that consume it.
        self.writer_shards: Dict[NodeId, List[int]] = {}
        for shard_id, shard in enumerate(self.shards):
            for writer in shard.ag.writers:
                self.writer_shards.setdefault(writer, []).append(shard_id)
        self.writes_sent = 0
        self.writes_delivered = 0

    # ------------------------------------------------------------------

    def write(self, node: NodeId, value: Any, timestamp: Optional[float] = None) -> None:
        """Multicast a write to every shard whose readers observe ``node``."""
        self.writes_sent += 1
        for shard_id in self.writer_shards.get(node, ()):
            self.writes_delivered += 1
            self.shards[shard_id].write(node, value, timestamp)

    def write_batch(self, writes) -> int:
        """Multicast a write batch: one sub-batch per shard.

        Each shard receives its slice in stream order and coalesces it
        through its own compiled plans, so the multicast costs one batched
        ingestion per shard instead of one engine call per (write, shard).
        """
        from repro.core.execution import normalize_write

        per_shard: Dict[int, List] = {}
        count = 0
        for item in writes:
            node, value, timestamp = normalize_write(item)
            count += 1
            self.writes_sent += 1
            for shard_id in self.writer_shards.get(node, ()):
                self.writes_delivered += 1
                per_shard.setdefault(shard_id, []).append((node, value, timestamp))
        for shard_id, items in per_shard.items():
            self.shards[shard_id].write_batch(items)
        return count

    def read(self, node: NodeId) -> Any:
        """Route a read to the shard owning ``node``'s query."""
        shard_id = self.reader_shard.get(node)
        if shard_id is None:
            aggregate = self.query.aggregate
            return aggregate.finalize(aggregate.identity())
        return self.shards[shard_id].read(node)

    def read_batch(self, nodes) -> List[Any]:
        """Route a batch of reads shard-by-shard, preserving input order."""
        nodes = list(nodes)
        results: List[Any] = [None] * len(nodes)
        per_shard: Dict[int, List[int]] = {}
        for position, node in enumerate(nodes):
            shard_id = self.reader_shard.get(node)
            if shard_id is None:
                aggregate = self.query.aggregate
                results[position] = aggregate.finalize(aggregate.identity())
            else:
                per_shard.setdefault(shard_id, []).append(position)
        for shard_id, positions in per_shard.items():
            values = self.shards[shard_id].read_batch([nodes[p] for p in positions])
            for position, value in zip(positions, values):
                results[position] = value
        return results

    # ------------------------------------------------------------------
    # shard-execution protocol (repro.core.shards.ShardExecution)
    # ------------------------------------------------------------------

    def changed_readers(self) -> List[NodeId]:
        """Union of every shard's changed-reader report, shard order.

        Reader partitions are disjoint, so no cross-shard deduplication is
        needed; each shard consumes its own runtime report (ascending
        handle in that shard's overlay — handle spaces are per shard, so
        the union exists only as node ids).
        """
        changed: List[NodeId] = []
        for shard in self.shards:
            changed.extend(shard.changed_readers())
        return changed

    def changed_report(self):
        """``(stamp, readers)`` — the stamped protocol extension.

        The stamp is the maximum of the shard runtimes' global write
        stamps: every shard receives only its slice of each batch, so the
        busiest shard's stamp is the tightest monotone cover of "how much
        ingestion this report reflects".
        """
        readers = self.changed_readers()
        stamp = max((shard.runtime.stamp for shard in self.shards), default=0)
        return stamp, readers

    def drain(self) -> None:
        """In-process shards apply writes synchronously; nothing pends."""
        for shard in self.shards:
            shard.drain()

    def close(self) -> None:
        """Close every shard (synchronous engines: a no-op flush)."""
        for shard in self.shards:
            shard.close()

    # ------------------------------------------------------------------

    @property
    def replication_factor(self) -> float:
        """Average shards per delivered write (the deployment's overhead)."""
        if self.writes_sent == 0:
            total = sum(len(s) for s in self.writer_shards.values())
            return total / max(1, len(self.writer_shards))
        return self.writes_delivered / self.writes_sent

    def shard_sizes(self) -> List[int]:
        """Number of materialized readers per shard."""
        return [len(shard.overlay.reader_of) for shard in self.shards]

    def total_overlay_edges(self) -> int:
        """Sum of all shards' overlay edges (deployment-wide state)."""
        return sum(shard.overlay.num_edges for shard in self.shards)

    def describe(self) -> str:
        """One-line summary: shard sizes, replication factor, edges."""
        sizes = self.shard_sizes()
        return (
            f"PartitionedEngine(shards={self.num_shards}, readers={sizes}, "
            f"replication={self.replication_factor:.2f}, "
            f"edges={self.total_overlay_edges()})"
        )


class _ShardPredicate:
    """Picklable-ish shard membership predicate (composes with user pred)."""

    def __init__(
        self,
        reader_shard: Dict[NodeId, int],
        shard_id: int,
        base: Optional[Callable[[NodeId], bool]],
    ) -> None:
        self._reader_shard = reader_shard
        self._shard_id = shard_id
        self._base = base

    def __call__(self, node: NodeId) -> bool:
        if self._reader_shard.get(node) != self._shard_id:
            return False
        return self._base(node) if self._base is not None else True


def community_assignment(
    graph: DynamicGraph, num_shards: int, seed: int = 0
) -> Callable[[NodeId], int]:
    """A cheap locality-aware assignment: BFS-grown balanced partitions.

    Stands in for the "standard graph partitioning-based techniques" the
    paper alludes to; co-locating neighborhoods cuts the write replication
    factor versus hash assignment (asserted by the partitioning tests).
    """
    import collections

    nodes = sorted(graph.nodes(), key=repr)
    capacity = max(1, (len(nodes) + num_shards - 1) // num_shards)
    assignment: Dict[NodeId, int] = {}
    shard_id = 0
    filled = 0
    for start in nodes:
        if start in assignment:
            continue
        queue = collections.deque([start])
        while queue:
            node = queue.popleft()
            if node in assignment:
                continue
            assignment[node] = shard_id
            filled += 1
            if filled >= capacity:
                shard_id = min(shard_id + 1, num_shards - 1)
                filled = 0
            for neighbor in sorted(graph.neighbors(node), key=repr):
                if neighbor not in assignment:
                    queue.append(neighbor)
    return lambda node: assignment.get(node, 0)
