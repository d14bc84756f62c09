"""Reshard plans and the load-driven rebalance policy.

:meth:`~repro.serve.server.EAGrServer.reshard` executes a
:class:`ReshardPlan` — a pure description of which readers move where.
This module is where plans come from:

* :func:`plan_from_assignment` diffs the server's current partition
  against a full target assignment (e.g. a fresh
  :func:`~repro.core.partition.mincut_partition` computed from updated
  write frequencies) — the "re-run the partitioner offline, apply the
  delta live" workflow.
* :func:`propose_rebalance` is the *online* policy: it consumes the
  per-shard load the metrics plane already exports
  (``server_stats()["shard_load"]``), and when one shard's busy
  fraction has drifted far above the mean — the signature of a Zipf
  hot-set migrating across the graph — it proposes moving a small,
  writer-closed group of readers from the hottest shard to the
  coldest.  Moving *writer closures* (a reader together with every
  hot-shard reader that shares a writer with it) is what keeps the
  migration from widening the multicast fan-out: a writer whose whole
  local readership moves stops being replicated to the source shard.

The policy proposes; it never executes.  ``EAGrServer.rebalance()``
wires the two together (propose, then :meth:`reshard` if non-empty).

What a migration does to shard state is here too, as two pure
functions the coordinator calls under its locks: :func:`splice` (step
3: the synthetic checkpoints the new workers boot from) and
:func:`reroute` (step 4: where the residue — writes accepted before the
swap, flushed after it — goes under the new partition).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.serve.frames import merge_items
from repro.serve.messages import ShardCheckpoint
from repro.serve.router import readers

NodeId = Hashable


@dataclass
class ReshardPlan:
    """A set of reader moves: ``{reader: destination shard}``.

    ``kind`` tags how the plan was produced (``"migrate"``, ``"split"``,
    ``"merge"`` or ``"assignment"``); ``reason`` is a human-readable
    sentence for logs and bench output.  Both are advisory — only
    ``moves`` affects execution.
    """

    moves: Dict[NodeId, int] = field(default_factory=dict)
    kind: str = "migrate"
    reason: str = ""

    def __len__(self) -> int:
        return len(self.moves)

    def __bool__(self) -> bool:
        return bool(self.moves)


@dataclass
class RebalancePolicy:
    """Thresholds for :func:`propose_rebalance`.

    skew_threshold:
        Propose only when the hottest shard's busy fraction exceeds
        this multiple of the mean busy fraction.
    min_busy:
        Absolute floor: below this busy fraction the server is idle
        enough that skew is noise, not load.
    max_move_fraction:
        Never move more than this fraction of the hot shard's readers
        in one plan (small steps; the policy runs repeatedly).
    balance:
        Never grow the destination beyond ``balance`` times the mean
        shard size — the same bound the min-cut partitioner honours.
    """

    skew_threshold: float = 1.5
    min_busy: float = 0.05
    max_move_fraction: float = 0.25
    balance: float = 1.25


def plan_from_assignment(server, assignment) -> ReshardPlan:
    """Diff a full target assignment against the server's partition.

    ``assignment`` maps readers to shard ids: anything with
    ``.get(node, default)`` semantics (a dict, or the
    :class:`~repro.core.partition.TableAssignment` returned by
    :func:`~repro.core.partition.mincut_assignment`) — readers absent
    from the target stay where they are — or, failing that, a plain
    reader->shard callable such as
    :func:`~repro.core.partition.community_assignment`, which is
    asked about every current reader.
    """
    getter = getattr(assignment, "get", None)
    moves: Dict[NodeId, int] = {}
    for node, current in server.reader_shard.items():
        if getter is not None:
            target = getter(node, current)
        else:
            target = assignment(node)
        if target != current and 0 <= target < server.num_shards:
            moves[node] = target
    return ReshardPlan(
        moves=moves,
        kind="assignment",
        reason=f"target assignment differs on {len(moves)} readers",
    )


def _reader_weight(server, reader, write_freq) -> float:
    """A reader's load proxy: summed write frequency of its writers."""
    total = 0.0
    for writer in server.query.neighborhood(server.graph, reader):
        total += write_freq.get(writer, 1.0)
    return total


def propose_rebalance(
    server,
    policy: Optional[RebalancePolicy] = None,
    write_freq: Optional[Dict[NodeId, float]] = None,
    load: Optional[Sequence[Dict[str, Any]]] = None,
) -> Optional[ReshardPlan]:
    """Propose a hot→cold reader migration, or ``None`` when balanced.

    ``load`` defaults to ``server.server_stats()["shard_load"]`` — the
    windowed busy-fraction / apply-rate gauges the shard workers report
    through ``OP_STATS``.  ``write_freq`` (observed or expected
    per-writer write counts) orders the hot shard's readers so the plan
    moves the load, not just the readers; without it every writer
    weighs 1 and the plan falls back to moving the widest closures.
    """
    if policy is None:
        policy = RebalancePolicy()
    if load is None:
        load = server.server_stats()["shard_load"]
    if len(load) < 2:
        return None
    busy = {row["shard"]: float(row["busy_fraction"]) for row in load}
    if max(busy.values()) <= 0.0:
        # Busy gauges need a scrape window; fall back to apply rates.
        busy = {row["shard"]: float(row["applied_eps"]) for row in load}
    sizes = {row["shard"]: int(row["readers"]) for row in load}
    hot = max(busy, key=lambda s: (busy[s], sizes[s]))
    cold = min(busy, key=lambda s: (busy[s], -sizes[s]))
    if hot == cold or sizes[hot] <= 1:
        return None
    mean_busy = sum(busy.values()) / len(busy)
    if busy[hot] < policy.min_busy:
        return None
    if busy[hot] <= policy.skew_threshold * max(mean_busy, 1e-12):
        return None

    freq = write_freq or {}
    hot_readers = sorted(
        (node for node, sid in server.reader_shard.items() if sid == hot),
        key=lambda n: (-_reader_weight(server, n, freq), repr(type(n)), repr(n)),
    )
    total_readers = len(server.reader_shard)
    cap = max(1, int(policy.balance * total_readers / server.num_shards))
    budget = min(
        max(1, int(policy.max_move_fraction * len(hot_readers))),
        cap - sizes[cold],
    )
    if budget <= 0:
        return None

    # Reverse map over the hot shard only (neighborhood is directional).
    writer_readers: Dict[NodeId, List[NodeId]] = {}
    for reader in hot_readers:
        for writer in server.query.neighborhood(server.graph, reader):
            writer_readers.setdefault(writer, []).append(reader)
    moves: Dict[NodeId, int] = {}
    for seed in hot_readers:
        if seed in moves:
            continue
        # Writer closure of the seed within the hot shard: BFS over
        # shared writers so no writer ends up multicast to both sides.
        closure: List[NodeId] = [seed]
        members = {seed}
        frontier = [seed]
        while frontier:
            reader = frontier.pop()
            for writer in server.query.neighborhood(server.graph, reader):
                for other in writer_readers.get(writer, ()):
                    if other not in members:
                        members.add(other)
                        closure.append(other)
                        frontier.append(other)
        if len(moves) + len(closure) > budget:
            if moves:
                break  # plan full: keep each rebalance a small step
            # Even the first closure overflows the budget (which also
            # encodes the destination's balance headroom): moving it
            # anyway could overfill the cold shard past policy.balance.
            # Skip it — a lighter seed may own a closure that fits.
            continue
        if len(closure) >= len(hot_readers):
            continue  # one giant component: splitting it widens the cut
        for node in closure:
            moves[node] = cold
        if len(moves) >= budget:
            break
    if not moves:
        return None
    return ReshardPlan(
        moves=moves,
        kind="split" if sizes[cold] == 0 else "migrate",
        reason=(
            f"shard {hot} busy {busy[hot]:.3f} vs mean {mean_busy:.3f} "
            f"(> {policy.skew_threshold}x); moving {len(moves)} readers "
            f"to shard {cold}"
        ),
    )


def splice(
    reader_shard: Dict[NodeId, int],
    moves: Dict[NodeId, int],
    checkpoints: Dict[int, ShardCheckpoint],
    batch_no: Dict[int, int],
) -> Tuple[Dict[int, frozenset], Dict[int, ShardCheckpoint]]:
    """Step 3 of a reshard: ``(readers, checkpoints)`` for every shard in
    ``checkpoints`` (the affected ones, each checkpointed under the
    partition ``reader_shard``) once ``moves`` apply.

    Each synthetic checkpoint keeps its shard's own watchers and notify
    baselines for the egos it still owns and takes a moved-in ego's from
    the source shard.  Its window buffers are the union of every affected
    shard's — exact for every writer the new overlay compiles (rebuild()
    drops the rest): multicast kept shared buffers identical, and a
    gained reader's writers all lived on its source.  ``stamp``,
    ``clock`` and ``applied_through`` are the group maximum, so a moved
    ego's next change can neither collide with its replay filter nor
    land under a smaller batch number than its last delivered one
    (``batch_no`` is the ledger's per-shard counter).  Each checkpoint
    is pickle-isolated: two in-process hosts must not alias one buffer
    object through the union.
    """
    owned = readers({**reader_shard, **moves}, checkpoints)
    buffers: Dict[NodeId, Any] = {}
    for ck in checkpoints.values():
        buffers.update(ck.buffers)
    stamp = max(ck.stamp for ck in checkpoints.values())
    clock = max(ck.clock for ck in checkpoints.values())
    applied_through = max(batch_no.get(shard_id, 0) for shard_id in checkpoints)
    synthetic: Dict[int, ShardCheckpoint] = {}
    for shard_id, own in checkpoints.items():
        kept = owned[shard_id]
        watchers = {ego: s for ego, s in own.watchers.items() if ego in kept}
        baseline = {ego: v for ego, v in own.baseline.items() if ego in kept}
        for ego, dst in moves.items():
            if dst != shard_id:
                continue
            source = checkpoints[reader_shard[ego]]
            if ego in source.watchers:
                watchers[ego] = source.watchers[ego]
            if ego in source.baseline:
                baseline[ego] = source.baseline[ego]
        ck = ShardCheckpoint(
            shard_id=shard_id,
            applied_through=applied_through,
            stamp=stamp,
            clock=clock,
            buffers=buffers,
            watchers=watchers,
            baseline=baseline,
        )
        synthetic[shard_id] = pickle.loads(pickle.dumps(ck))
    return owned, synthetic


def reroute(
    rounds: Dict[int, List[Tuple[int, Any]]],
    affected: Sequence[int],
    old_routes: Dict[NodeId, Tuple[int, ...]],
    new_routes: Dict[NodeId, Tuple[int, ...]],
) -> Dict[int, List[Tuple]]:
    """Step 4 of a reshard: the affected shards' pending ``rounds`` (the
    ledger's outboxes) filed under the new writer → shards map.

    A write stays where its writer is still read, and is duplicated once
    — from the lowest affected shard that held it — to each shard its
    writer newly reaches.  Every destination of a move is affected, so
    the result has no other key.
    """
    rerouted: Dict[int, List[Tuple]] = {shard_id: [] for shard_id in affected}
    for shard_id in affected:
        residue = merge_items([items for _seq, items in rounds.get(shard_id, ())])
        for triple in residue:
            new_shards = new_routes.get(triple[0], ())
            old_shards = old_routes.get(triple[0], ())
            if shard_id in new_shards:
                rerouted[shard_id].append(triple)
            donor = min((s for s in old_shards if s in rerouted), default=None)
            if shard_id == donor:
                for dst in new_shards:
                    if dst not in old_shards:
                        rerouted[dst].append(triple)
    return rerouted
