"""Balanced min-cut reader partitioning (paper Section 4's cut machinery,
pointed at placement).

The serve tier multicasts every write to all shards whose readers
aggregate that writer, so the *replication factor* — the mean number of
shards per writer — is the write amplification of the hot path.
:func:`community_assignment` reduces it with a BFS-grown locality
heuristic; this module solves the placement problem the way the paper
solves dataflow decisions: as a minimum cut.

The model is the standard hypergraph net cut.  Each writer ``w`` is one
hyperedge spanning its reader set ``R(w)`` (the overlay's compiled reader
closure), weighted by ``w``'s write frequency.  A partition pays ``f(w)``
once for every *extra* shard the hyperedge touches — exactly the
multicast fan-out beyond the first copy.  For a 2-way split this is a
plain s-t cut over a gadget network:

* for each writer: ``w_in -> w_out`` with capacity ``f(w)``,
* for each reader ``r`` of ``w``: ``r -> w_in`` and ``w_out -> r`` with
  infinite capacity,

so a finite s-t cut severs ``w_in -> w_out`` iff ``w``'s readers land on
both sides, and :class:`~repro.dataflow.maxflow.FlowNetwork` (Dinic)
finds the minimum.  K-way partitions come from **recursive bisection**
with seed sets pinned at the bipartite graph's periphery, followed by a
greedy balance repair that moves the cheapest boundary readers until the
split respects the global per-shard capacity.  Everything is seeded and
iteration-order-free, so a given (graph, query, num_shards) always
yields the same partition — the serve tier's WAL recovery depends on
that only loosely (the partition is persisted), but the benchmarks and
regression tests depend on it hard.
"""

from __future__ import annotations

import collections
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dataflow.maxflow import INF, FlowNetwork

NodeId = Hashable

#: Above this many readers, recursive bisection (which re-runs Dinic per
#: level) is not worth the boot-time tax; fall back to the BFS heuristic.
DEFAULT_MAX_NODES = 50_000


def _stable_hash(node: NodeId) -> int:
    """Process-independent hash (``hash()`` is salted for strings)."""
    import zlib

    return zlib.crc32(repr(node).encode())


def partition_readers(
    graph,
    query,
    num_shards: int,
    assign: Optional[Callable[[NodeId], int]] = None,
) -> Dict[NodeId, int]:
    """Reader node → owning shard for every pred-selected graph node.

    The partition a freshly booted ``EAGrServer`` logs and routes by.
    ``assign`` defaults to the process-independent stable hash.
    """
    assign = assign or (lambda node: _stable_hash(node) % num_shards)
    reader_shard: Dict[NodeId, int] = {}
    for node in graph.nodes():
        if query.predicate is None or query.predicate(node):
            reader_shard[node] = assign(node) % num_shards
    return reader_shard


def community_assignment(graph, num_shards: int) -> Callable[[NodeId], int]:
    """A cheap locality-aware assignment: BFS-grown balanced partitions.

    Stands in for the "standard graph partitioning-based techniques" the
    paper alludes to; co-locating neighborhoods cuts the write replication
    factor versus hash assignment (asserted by the partitioning tests).
    """
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


def _reader_closures(
    graph, query, readers: Sequence[NodeId]
) -> Dict[NodeId, Tuple[float, Set[int]]]:
    """writer -> (frequency placeholder 1.0, set of reader *indices*)."""
    closures: Dict[NodeId, Set[int]] = {}
    for index, reader in enumerate(readers):
        for writer in query.neighborhood(graph, reader):
            closures.setdefault(writer, set()).add(index)
    return {w: (1.0, members) for w, members in closures.items()}


def _bfs_far(
    start: int, adjacency: Dict[int, List[int]], allowed: Set[int]
) -> Tuple[int, Dict[int, int]]:
    """Farthest reader from ``start`` within ``allowed`` plus distances."""
    dist = {start: 0}
    queue = collections.deque([start])
    far = start
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor in allowed and neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                if dist[neighbor] > dist[far]:
                    far = neighbor
                queue.append(neighbor)
    return far, dist


def _grow_seed(
    root: int,
    adjacency: Dict[int, List[int]],
    allowed: Set[int],
    forbidden: Set[int],
    size: int,
) -> List[int]:
    """BFS-grow a connected seed set of ``size`` readers around ``root``."""
    seed = [root]
    seen = {root}
    queue = collections.deque([root])
    while queue and len(seed) < size:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if (
                neighbor in allowed
                and neighbor not in seen
                and neighbor not in forbidden
            ):
                seen.add(neighbor)
                seed.append(neighbor)
                if len(seed) >= size:
                    break
                queue.append(neighbor)
    return seed


def _bisect(
    members: List[int],
    writer_freq: List[float],
    writer_readers: List[Set[int]],
    reader_writers: Dict[int, List[int]],
    k_left: int,
    k_right: int,
    cap: int,
) -> Tuple[List[int], List[int]]:
    """Split ``members`` into (left, right) minimizing the writer cut,
    with ``len(left) <= k_left * cap`` and ``len(right) <= k_right * cap``.

    Dinic cuts the gadget network between two peripheral seed sets; then
    :func:`_repair` moves readers off the oversized side.  Each writer's
    member count ``|R(w) ∩ members|`` is taken once here and shared by
    both."""
    member_set = set(members)
    n = len(members)
    if n <= 1 or k_left == 0 or k_right == 0:
        return (list(members), []) if k_right == 0 else ([], list(members))
    inside = [len(readers_of_w & member_set) for readers_of_w in writer_readers]

    # Reader-reader adjacency *through shared writers*, restricted to the
    # subproblem — used only for seeding, so a sampled/truncated view is
    # fine and keeps this O(edges).
    adjacency: Dict[int, List[int]] = collections.defaultdict(list)
    for w_id, readers_of_w in enumerate(writer_readers):
        local = [r for r in readers_of_w if r in member_set]
        for i in range(len(local) - 1):
            adjacency[local[i]].append(local[i + 1])
            adjacency[local[i + 1]].append(local[i])

    # Pseudo-peripheral seed pair: farthest-from-farthest BFS, then grow
    # small connected seed sets so the cut has something to bite on.
    start = members[0]
    far_a, _ = _bfs_far(start, adjacency, member_set)
    far_b, _ = _bfs_far(far_a, adjacency, member_set)
    if far_a == far_b:
        far_b = members[-1] if members[-1] != far_a else members[0]
        if far_a == far_b:
            mid = max(1, n // 2)
            return members[:mid], members[mid:]
    seed_size = max(1, n // 8)
    seed_a = _grow_seed(far_a, adjacency, member_set, {far_b}, seed_size)
    seed_b = _grow_seed(far_b, adjacency, member_set, set(seed_a), seed_size)

    # Gadget network: 0=s, 1=t, then one node per local reader, then
    # (w_in, w_out) per writer active in this subproblem.
    reader_node = {r: 2 + i for i, r in enumerate(members)}
    active = [w_id for w_id, count in enumerate(inside) if count >= 2]
    base = 2 + n
    net = FlowNetwork(base + 2 * len(active))
    for slot, w_id in enumerate(active):
        w_in = base + 2 * slot
        w_out = w_in + 1
        net.add_edge(w_in, w_out, writer_freq[w_id])
        for r in writer_readers[w_id]:
            if r in member_set:
                net.add_edge(reader_node[r], w_in, INF)
                net.add_edge(w_out, reader_node[r], INF)
    for r in seed_a:
        net.add_edge(0, reader_node[r], INF)
    for r in seed_b:
        net.add_edge(reader_node[r], 1, INF)
    net.max_flow(0, 1)
    source_side = net.residual_reachable(0)
    left = [r for r in members if reader_node[r] in source_side]
    right = [r for r in members if reader_node[r] not in source_side]

    _repair(
        left,
        right,
        inside,
        writer_freq,
        writer_readers,
        reader_writers,
        min_left=n - k_right * cap,
        max_left=k_left * cap,
    )
    return left, right


def _cut_term(on: int, total: int) -> int:
    """Change in whether a writer is cut when one of the ``on`` members it
    has on a reader's side (of ``total``) leaves that side: -1, 0 or 1."""
    return (0 < on - 1 < total) - (0 < on < total)


def _repair(
    left: List[int],
    right: List[int],
    inside: List[int],
    writer_freq: List[float],
    writer_readers: List[Set[int]],
    reader_writers: Dict[int, List[int]],
    min_left: int,
    max_left: int,
) -> None:
    """Greedy balance repair, in place: while ``left`` holds more than
    ``max_left`` readers, move its cheapest reader to the end of
    ``right``; then, while it holds fewer than ``min_left``, move the
    cheapest reader of ``right`` to the end of ``left``.

    A reader's cost is its *cut delta*, ``Σ f(w)·_cut_term(on(w), t(w))``
    over its writers in ``reader_writers`` order, where ``t(w)`` is
    ``inside[w]`` and ``on(w)`` counts ``w``'s members on the reader's
    side.  Deltas are cached for the whole pool.  A move changes ``on``
    only for the moved reader's writers, and a writer's term only when
    its count crosses 1, 2 or ``t``; only the pool readers of such
    writers are recomputed, from scratch and in the same order, so every
    cached delta is the float a full rescan would produce.  A hub writer
    whose count stays mid-range costs nothing.  The cheapest reader is
    the first minimum in pool order.
    """
    on_left = [0] * len(inside)
    for r in left:
        for w_id in reader_writers.get(r, ()):
            on_left[w_id] += 1

    def drain(pool: List[int], dest: List[int], moves: int, from_left: bool) -> None:
        if moves <= 0:
            return

        def on(w_id: int) -> int:
            return on_left[w_id] if from_left else inside[w_id] - on_left[w_id]

        def delta(r: int) -> float:
            total = 0.0
            for w_id in reader_writers.get(r, ()):
                total += writer_freq[w_id] * _cut_term(on(w_id), inside[w_id])
            return total

        deltas = {r: delta(r) for r in pool}
        step = -1 if from_left else 1
        for _ in range(moves):
            best = min(pool, key=deltas.__getitem__)
            pool.remove(best)
            dest.append(best)
            del deltas[best]
            stale: Set[int] = set()
            for w_id in reader_writers.get(best, ()):
                before = on(w_id)
                on_left[w_id] += step
                if _cut_term(before - 1, inside[w_id]) != _cut_term(before, inside[w_id]):
                    stale.update(r for r in writer_readers[w_id] if r in deltas)
            for r in stale:
                deltas[r] = delta(r)

    drain(left, right, len(left) - max_left, from_left=True)
    drain(right, left, min_left - len(left), from_left=False)


def mincut_partition(
    graph,
    query,
    num_shards: int,
    *,
    write_freq: Optional[Mapping[NodeId, float]] = None,
    balance: float = 1.25,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Dict[NodeId, int]:
    """Reader -> shard via balanced recursive min-cut bisection.

    ``write_freq`` weights each writer's hyperedge (defaults to uniform);
    ``balance`` bounds every shard at ``balance *`` the mean shard size.
    Falls back to :func:`community_assignment` beyond ``max_nodes``
    readers (Dinic per bisection level stops paying for itself).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    predicate = query.predicate
    readers = [
        node for node in graph.nodes() if predicate is None or predicate(node)
    ]
    readers.sort(key=lambda node: (repr(type(node)), repr(node)))
    if num_shards == 1 or len(readers) <= 1:
        return {node: 0 for node in readers}
    if len(readers) > max_nodes:
        assign = community_assignment(graph, num_shards)
        return {node: assign(node) % num_shards for node in readers}

    closures = _reader_closures(graph, query, readers)
    writer_keys = sorted(closures, key=lambda w: (repr(type(w)), repr(w)))
    writer_readers = [closures[w][1] for w in writer_keys]
    writer_freq = [1.0] * len(writer_keys)
    if write_freq is not None:
        for i, w in enumerate(writer_keys):
            writer_freq[i] = max(0.0, float(write_freq.get(w, 0.0))) or 1e-9
    reader_writers: Dict[int, List[int]] = collections.defaultdict(list)
    for w_id, readers_of_w in enumerate(writer_readers):
        for r in readers_of_w:
            reader_writers[r].append(w_id)

    n = len(readers)
    mean = n / num_shards
    cap = max(-(-n // num_shards), int(balance * mean))

    assignment: Dict[NodeId, int] = {}
    # Work queue of (reader-index subsets, shard-slot ranges).
    stack: List[Tuple[List[int], int, int]] = [(list(range(n)), 0, num_shards)]
    while stack:
        members, first_slot, k = stack.pop()
        if k == 1 or len(members) <= 1:
            for r in members:
                assignment[readers[r]] = first_slot
            continue
        k_left = k // 2
        k_right = k - k_left
        left, right = _bisect(
            members,
            writer_freq,
            writer_readers,
            reader_writers,
            k_left,
            k_right,
            cap,
        )
        stack.append((left, first_slot, k_left))
        stack.append((right, first_slot + k_left, k_right))
    return assignment


class TableAssignment:
    """A reader -> shard table usable both ways the serve tier needs it.

    *Callable* (``EAGrServer(assign=...)``, drop-in for
    :func:`community_assignment`): unknown nodes resolve to
    ``default``.  *Dict-style* ``.get(node, fallback)``
    (:func:`~repro.serve.reshard.plan_from_assignment`): unknown nodes
    resolve to the caller's fallback — i.e. "leave that reader where it
    is", not ``default``.
    """

    __slots__ = ("table", "default")

    def __init__(self, table: Mapping[NodeId, int], default: int = 0):
        self.table = dict(table)
        self.default = default

    def __call__(self, node: NodeId) -> int:
        return self.table.get(node, self.default)

    def get(self, node: NodeId, default: Optional[int] = None) -> Optional[int]:
        return self.table.get(node, default)

    def __len__(self) -> int:
        return len(self.table)


def mincut_assignment(
    graph,
    query,
    num_shards: int,
    *,
    write_freq: Optional[Mapping[NodeId, float]] = None,
    balance: float = 1.25,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> "TableAssignment":
    """Drop-in for :func:`community_assignment`: the reader->shard
    :class:`TableAssignment` computed by :func:`mincut_partition`
    (called with an unknown node it answers shard 0; its ``.get`` also
    feeds :func:`~repro.serve.reshard.plan_from_assignment` directly)."""
    table = mincut_partition(
        graph,
        query,
        num_shards,
        write_freq=write_freq,
        balance=balance,
        max_nodes=max_nodes,
    )
    return TableAssignment(table)


def planned_replication_factor(
    graph,
    query,
    assignment: Mapping[NodeId, int],
    *,
    write_freq: Optional[Mapping[NodeId, float]] = None,
) -> float:
    """Mean shards-per-writer under ``assignment`` — the multicast write
    amplification the routing table implies, optionally weighted by each
    writer's write frequency (amplification *of the actual traffic*)."""
    shards_of: Dict[NodeId, Set[int]] = {}
    for reader, shard_id in assignment.items():
        for writer in query.neighborhood(graph, reader):
            shards_of.setdefault(writer, set()).add(shard_id)
    if not shards_of:
        return 1.0
    if write_freq is None:
        return sum(len(s) for s in shards_of.values()) / len(shards_of)
    total_w = 0.0
    total = 0.0
    for writer, shards in shards_of.items():
        weight = max(0.0, float(write_freq.get(writer, 0.0)))
        total_w += weight
        total += weight * len(shards)
    if total_w <= 0:
        return sum(len(s) for s in shards_of.values()) / len(shards_of)
    return total / total_w


def shard_sizes(assignment: Mapping[NodeId, int], num_shards: int) -> List[int]:
    """Readers per shard under ``assignment`` (imbalance checks)."""
    sizes = [0] * num_shards
    for shard_id in assignment.values():
        sizes[shard_id] += 1
    return sizes
