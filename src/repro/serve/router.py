"""Routes derived from the ledger's reader partition.

Which shard owns a reader is the ledger's fact (``WalState.reader_shard``,
installed by the ``META`` fold and replaced — never edited — by every
``P`` fold).  Everything a front-end routes by follows from that one
table, so :class:`Router` stores none of it: it reads the table at call
time and derives the rest — the writer → shards multicast map and the
packed membership table write frames split through — once per table,
cached by the dict's identity.  A swapped partition is therefore a new
dict, and a stale derivation can never be served for it.

:class:`~repro.serve.server.EAGrServer` routes writes and addresses
per-ego requests through it; :class:`~repro.serve.replica.ReplicaServer`
resolves reads through the same :meth:`Router.owners`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.statestore import WriteFrame

NodeId = Hashable


def readers(
    reader_shard: Dict[NodeId, int], shard_ids: Iterable[int]
) -> Dict[int, frozenset]:
    """``{shard: the readers it owns under reader_shard}`` for each of
    ``shard_ids`` — a shard worker's reader set."""
    owned: Dict[int, set] = {shard_id: set() for shard_id in shard_ids}
    for node, shard_id in reader_shard.items():
        if shard_id in owned:
            owned[shard_id].add(node)
    return {shard_id: frozenset(nodes) for shard_id, nodes in owned.items()}


class Routes(NamedTuple):
    """Everything routing needs for one partition.

    ``writer_shards`` maps a writer to the shards whose readers aggregate
    it.  ``table`` is ``(keys, member)`` — the sorted ``int64`` writer
    ids and a ``num_shards x len(keys)`` boolean membership matrix
    (``member[s, k]``: shard ``s`` aggregates writer ``keys[k]``) — or
    ``None`` when packed frames cannot be routed through it: some writer
    key is not a plain ``int`` in ``int64`` range (``True`` or ``1.0``
    match a written id ``1`` in the dict the per-item path consults; the
    table could not say so).
    """

    reader_shard: Dict[NodeId, int]
    writer_shards: Dict[NodeId, Tuple[int, ...]]
    table: Optional[Tuple[Any, Any]]


class Router:
    """Routing over ``state.reader_shard`` (see the module docstring).

    Not synchronized: two threads racing on a fresh partition may both
    derive its routes; they derive the same thing.
    """

    def __init__(self, graph, query, state) -> None:
        self._graph = graph
        self._query = query
        self._state = state
        self._routes: Optional[Routes] = None

    def routes(self) -> Routes:
        """The routes of the ledger's current partition."""
        table = self._state.reader_shard
        routes = self._routes
        if routes is None or routes.reader_shard is not table:
            routes = self._routes = self.derive(table)
        return routes

    def derive(self, reader_shard: Dict[NodeId, int]) -> Routes:
        """The routes ``reader_shard`` implies (pure; nothing cached)."""
        multicast: Dict[NodeId, Dict[int, None]] = {}
        for reader, shard_id in reader_shard.items():
            for writer in self._query.neighborhood(self._graph, reader):
                multicast.setdefault(writer, {})[shard_id] = None
        writer_shards = {w: tuple(s) for w, s in multicast.items()}
        table = None
        if all(type(node) is int for node in writer_shards):
            try:
                keys = np.array(sorted(writer_shards), dtype=np.int64)
            except OverflowError:
                keys = None
            if keys is not None:
                member = np.zeros((self._state.num_shards, len(keys)), dtype=bool)
                for slot, node in enumerate(keys.tolist()):
                    member[list(writer_shards[node]), slot] = True
                table = (keys, member)
        return Routes(reader_shard, writer_shards, table)

    def owners(self, nodes: List[NodeId]) -> Dict[int, List[int]]:
        """``{shard: positions}`` for the ``nodes`` some shard owns now —
        what every per-ego request is addressed by."""
        shard_of = self._state.reader_shard.get
        per_shard: Dict[int, List[int]] = {}
        for position, node in enumerate(nodes):
            shard_id = shard_of(node)
            if shard_id is not None:
                per_shard.setdefault(shard_id, []).append(position)
        return per_shard

    def split(self, writes: Any, routes: Routes) -> Dict[int, Any]:
        """One round's per-shard parts under ``routes``.

        Every item lands, in order, in the part of each shard that
        aggregates its writer; items whose writer no reader aggregates
        are dropped.  A :class:`~repro.core.statestore.WriteFrame` splits
        through the membership table into subframes (no per-item Python)
        — byte-for-byte the records the per-item loop would file; a frame
        the table cannot route, and a list of stamped triples, go item by
        item into lists.
        """
        parts: Dict[int, Any] = {}
        if writes.__class__ is WriteFrame and routes.table is not None:
            keys, member = routes.table
            if not len(keys):
                return parts
            nodes = writes.nodes
            slot = np.minimum(np.searchsorted(keys, nodes), len(keys) - 1)
            hits = member[:, slot] & (keys[slot] == nodes)
            records = writes.records
            for shard_id in np.flatnonzero(hits.any(axis=1)).tolist():
                mask = hits[shard_id]
                parts[shard_id] = WriteFrame(
                    records if mask.all() else records[mask],
                    ingress=writes.ingress,
                )
            return parts
        if writes.__class__ is WriteFrame:
            writes = writes.tolist()
        shards_of = routes.writer_shards.get
        for triple in writes:
            for shard_id in shards_of(triple[0], ()):
                parts.setdefault(shard_id, []).append(triple)
        return parts
