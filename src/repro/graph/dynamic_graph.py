"""Dynamic data graph: the substrate EAGr queries run against.

The paper (Section 2.1) models the data as a heterogeneous directed graph
``G(V, E)`` whose *structure* changes via a time-stamped structure stream and
whose *content* (attribute values on nodes) changes via per-node content
streams.  This module implements the structure side: an in-memory directed
graph supporting neighbor queries in both directions, node/edge addition
and removal, and a structure clock that every successful edit advances (an
engine reads it to tell its own edits from edits made behind it).  The
structure stream itself is absorbed by the engine
(``EAGrEngine.apply_structure_event``), whose overlay maintainer
(Section 3.3) makes each edit here and refreshes the readers it touches.

The edges are int64 columns, not a set per node: every node has a dense
integer handle, and the edges are a CSR by source and one by target.  A
node whose edges changed since the CSRs were last built keeps its row as
a small set of handles until the edits pass a share of the edges; then
both CSRs are rebuilt in one numpy pass.  Neighbor queries build a fresh
``set`` of node ids per call.

Content streams are deliberately *not* stored here: the execution engine
(:mod:`repro.core.execution`) owns sliding-window state per writer.  The
graph only needs to answer neighborhood queries.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graph.columns import csr_indptr, distinct

NodeId = Hashable


class GraphError(Exception):
    """Raised for invalid structural operations (e.g. removing a missing node)."""


class DynamicGraph:
    """A directed graph with amortized O(1) edits and bidirectional adjacency.

    Nodes are arbitrary hashable identifiers.  Edges are simple (no parallel
    edges); re-adding an existing edge is a no-op that returns ``False``.
    Undirected relationships (e.g. friendship edges in a social network) are
    represented as a pair of directed edges via :meth:`add_undirected_edge`.

    Each node's handle is its position in insertion order; a removed
    node's handle is left empty (and a node added again gets a new one)
    until the next rebuild renumbers the nodes left, in the same order.
    :meth:`in_neighbors`, :meth:`out_neighbors` and :meth:`neighbors`
    return a new set on every call, which the caller may keep or modify.

    Node attributes are supported through a per-node attribute dict, used by
    filtered neighborhood functions (Section 2.1 allows aggregating over
    subsets of neighborhoods selected by a predicate).
    """

    def __init__(self) -> None:
        self._labels: List[NodeId] = []  # handle -> node id
        self._handles: Dict[NodeId, int] = {}  # node id -> handle, in insertion order
        self._attrs: Dict[NodeId, Dict[str, object]] = {}
        self._num_edges = 0
        self._clock = 0
        self._removed = 0  # handles of removed nodes
        self._install(_Rows(_NO_NODES, _NO_EDGES), _Rows(_NO_NODES, _NO_EDGES))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._handles)

    @property
    def clock(self) -> int:
        """The structure clock: advanced by every successful edit."""
        return self._clock

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node: NodeId) -> bool:
        return node in self._handles

    def __len__(self) -> int:
        return len(self._handles)

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._handles)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        labels = self._labels
        for u, handle in self._handles.items():
            for v in self._out.row(handle):
                yield (u, labels[v])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        hu, hv = self._handles.get(u), self._handles.get(v)
        return hu is not None and hv is not None and self._out.has(hu, hv)

    def out_neighbors(self, node: NodeId) -> Set[NodeId]:
        """Nodes ``v`` such that ``node -> v`` exists."""
        return set(map(self._labels.__getitem__, self._out.row(self.handle(node))))

    def in_neighbors(self, node: NodeId) -> Set[NodeId]:
        """Nodes ``u`` such that ``u -> node`` exists."""
        return set(map(self._labels.__getitem__, self._in.row(self.handle(node))))

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Union of in- and out-neighbors (the undirected view)."""
        handle = self.handle(node)
        return set(
            map(self._labels.__getitem__, itertools.chain(self._in.row(handle), self._out.row(handle)))
        )

    def out_degree(self, node: NodeId) -> int:
        return self._out.degree(self.handle(node))

    def in_degree(self, node: NodeId) -> int:
        return self._in.degree(self.handle(node))

    # ------------------------------------------------------------------
    # the columns, for bulk readers
    # ------------------------------------------------------------------

    def handle(self, node: NodeId) -> int:
        """``node``'s handle: its position in :attr:`labels`."""
        try:
            return self._handles[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    @property
    def labels(self) -> List[NodeId]:
        """The node id of every handle (not to be modified).  A removed
        node's handle keeps its id until the next rebuild; no row names
        it."""
        return self._labels

    def csr(self, direction: str) -> Tuple[np.ndarray, np.ndarray]:
        """Every node's ``"in"``-, ``"out"``- or ``"both"``-direction
        neighbours as int64 columns ``(indptr, ends)``: handle ``h``'s are
        ``ends[indptr[h]:indptr[h + 1]]``.  Rebuilds the CSRs first if any
        edit is pending, which renumbers the handles after a removal."""
        if self._pending():
            self._rebuild()
        if direction == "out":
            return self._out.indptr, self._out.ends
        if direction == "in":
            return self._in.indptr, self._in.ends
        if direction != "both":
            raise ValueError(f"unknown direction {direction!r}")
        n = len(self._labels)
        owners = np.concatenate((self._in.owners(), self._out.owners()))
        keys = distinct(owners * n + np.concatenate((self._in.ends, self._out.ends)))
        return csr_indptr(np.bincount(keys // n, minlength=n)), keys % n

    # ------------------------------------------------------------------
    # attributes
    # ------------------------------------------------------------------

    def set_attr(self, node: NodeId, key: str, value: object) -> None:
        if node not in self._handles:
            raise GraphError(f"node {node!r} not in graph")
        self._attrs.setdefault(node, {})[key] = value

    def get_attr(self, node: NodeId, key: str, default: object = None) -> object:
        return self._attrs.get(node, {}).get(key, default)

    # ------------------------------------------------------------------
    # structure updates
    # ------------------------------------------------------------------

    def add_node(self, node: NodeId) -> bool:
        """Add ``node``; returns ``False`` if it already existed."""
        if node in self._handles:
            return False
        self._add(node)
        return True

    def _add(self, node: NodeId) -> int:
        handle = self._handles[node] = len(self._labels)
        self._labels.append(node)
        # a node added since the last rebuild has its rows as sets
        self._out.patched[handle] = set()
        self._in.patched[handle] = set()
        self._clock += 1
        return handle

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        handle = self.handle(node)
        targets, sources = list(self._out.row(handle)), list(self._in.row(handle))
        for v in targets:
            self._unlink(handle, v)
        for u in sources:
            self._unlink(u, handle)
        del self._handles[node]
        self._attrs.pop(node, None)
        self._removed += 1
        self._clock += 1
        self._edited(len(targets) + len(sources) + 1)

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add the directed edge ``u -> v`` (creating endpoints as needed).

        Returns ``False`` (and leaves the clock alone) if the edge already
        existed.
        Self loops are rejected: a node never feeds its own ego network.
        """
        if u == v:
            raise GraphError("self loops are not supported")
        hu = self._handles.get(u)
        if hu is None:
            hu = self._add(u)
        hv = self._handles.get(v)
        if hv is None:
            hv = self._add(v)
        # _Rows.has and the adds, inlined: building a graph edge by edge
        # runs this once per edge.  A row kept as a set answers first (a
        # node added since the last rebuild has its rows as sets).
        out, inn = self._out, self._in
        targets, sources = out.patched.get(hu), inn.patched.get(hv)
        if targets is not None:
            if hv in targets:
                return False
        elif sources is not None:
            if hu in sources:
                return False
        elif out.has(hu, hv):
            return False
        if targets is None:
            targets = out.added.get(hu)
            if targets is None:
                targets = out.added[hu] = set()
        targets.add(hv)
        if sources is None:
            sources = inn.added.get(hv)
            if sources is None:
                sources = inn.added[hv] = set()
        sources.add(hu)
        self._num_edges += 1
        self._clock += 1
        self._budget -= 1
        if self._budget < 0:
            self._rebuild()
        return True

    def add_undirected_edge(self, u: NodeId, v: NodeId) -> None:
        """Add ``u -> v`` and ``v -> u`` (a symmetric friendship-style edge)."""
        self.add_edge(u, v)
        self.add_edge(v, u)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge {u!r}->{v!r} not in graph")
        self._unlink(self._handles[u], self._handles[v])
        self._edited(1)

    def _unlink(self, hu: int, hv: int) -> None:
        """Remove the edge ``hu -> hv``, which exists."""
        self._out.discard(hu, hv)
        self._in.discard(hv, hu)
        self._num_edges -= 1
        self._clock += 1

    def _edited(self, count: int) -> None:
        """Count ``count`` edits; rebuild the CSRs once the edits since the
        last rebuild pass the limit."""
        self._budget -= count
        if self._budget < 0:
            self._rebuild()

    def _pending(self) -> bool:
        """Whether an edit waits for the next rebuild (every edit adds to
        or removes from an out-row, or removes a node)."""
        return bool(self._out.patched or self._out.added or self._removed)

    def _install(self, out: "_Rows", inn: "_Rows") -> None:
        """Take ``out`` / ``inn`` as the CSRs by source and by target."""
        self._out, self._in = out, inn
        # the edits the next rebuild waits for
        self._budget = max(_REBUILD_MIN, self._num_edges >> _REBUILD_SHIFT)

    def _rebuild(self) -> None:
        """Fold every node's edits into new CSRs, and number the nodes left
        densely, in order, if any was removed."""
        n, live = len(self._labels), self._live()
        if live is not None:
            self._labels = list(self._handles)
            self._handles = dict(zip(self._labels, range(len(live))))
            self._removed = 0
        self._install(self._out.rebuilt(n, live), self._in.rebuilt(n, live))

    def _live(self) -> Optional[np.ndarray]:
        """The handles of the nodes in the graph, ascending, if a node was
        removed since the last rebuild; ``None`` otherwise."""
        if not self._removed:
            return None
        return np.fromiter(self._handles.values(), np.int64, len(self._handles))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[NodeId, NodeId]]) -> "DynamicGraph":
        """The graph :meth:`add_edge` would build from the pairs ``edges``
        one by one (same node order, neighbours, edge count and clock),
        with both CSRs built in one pass."""
        graph = cls()
        ends = list(itertools.chain.from_iterable(edges))
        labels = graph._labels = list(dict.fromkeys(ends))
        handles = graph._handles = dict(zip(labels, range(len(labels))))
        pairs = np.fromiter(map(handles.__getitem__, ends), np.int64, len(ends))
        src, dst = pairs[0::2], pairs[1::2]
        if (src == dst).any():
            raise GraphError("self loops are not supported")
        n = len(labels)
        keys = distinct(src * n + dst)
        src, dst = keys // n, keys % n
        graph._num_edges = len(keys)
        graph._install(_Rows(csr_indptr(np.bincount(src, minlength=n)), dst), _by_owner(dst, src, n))
        # add_node and add_edge each tick the clock once per change
        graph._clock = n + len(keys)
        return graph

    def copy(self) -> "DynamicGraph":
        """The graph :meth:`add_node`, :meth:`add_edge` and
        :meth:`set_attr` would build from this one's nodes, edges and
        attributes (so its clock restarts there)."""
        clone = DynamicGraph()
        clone._labels = self._labels[:]
        clone._handles = dict(self._handles)
        clone._attrs = {node: dict(attrs) for node, attrs in self._attrs.items()}
        clone._out, clone._in = self._out.copy(), self._in.copy()
        clone._num_edges = self._num_edges
        clone._clock = len(self._handles) + self._num_edges
        clone._budget, clone._removed = self._budget, self._removed
        return clone

    def __getstate__(self) -> Dict[str, object]:
        """The graph as its columns: the node ids in order, each node's
        out-degree and the targets of its out-edges, both in the smallest
        unsigned dtype that holds a handle, with the edits since the last
        rebuild folded in."""
        labels, live = self._labels, self._live()
        out = self._out.rebuilt(len(labels), live) if self._pending() else self._out
        if live is not None:
            labels = list(self._handles)
        dtype = np.min_scalar_type(max(len(labels) - 1, 0))
        return {
            "labels": labels,
            "degrees": np.diff(out.indptr).astype(dtype),
            "ends": out.ends.astype(dtype),
            "attrs": self._attrs,
            "clock": self._clock,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__()
        labels = self._labels = state["labels"]
        self._handles = dict(zip(labels, range(len(labels))))
        n = len(labels)
        indptr = csr_indptr(state["degrees"].astype(np.int64))
        ends = state["ends"].astype(np.int64)
        out = _Rows(indptr, ends)
        self._num_edges = len(ends)
        self._install(out, _by_owner(ends, out.owners(), n))
        self._attrs = state["attrs"]
        self._clock = state["clock"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(nodes={self.num_nodes}, edges={self.num_edges})"


class _Rows:
    """One direction of the graph's edges.  As of the last rebuild, handle
    ``h``'s row is ``ends[indptr[h]:indptr[h + 1]]`` (a handle added since
    has none).  A node's edits since are kept beside it: ``added[h]`` holds
    the ends added after a CSR row that is otherwise intact, and
    ``patched[h]`` the whole row in its place, once the node lost an end
    or when it was added since."""

    __slots__ = ("indptr", "bounds", "ends", "added", "patched")

    def __init__(self, indptr: np.ndarray, ends: np.ndarray) -> None:
        self.indptr = indptr
        self.bounds: Optional[List[int]] = None  # indptr as a list, on first use
        self.ends = ends
        self.added: Dict[int, Set[int]] = {}
        self.patched: Dict[int, Set[int]] = {}

    def base(self, handle: int) -> List[int]:
        """``handle``'s CSR row."""
        bounds = self.bounds
        if bounds is None:
            bounds = self.bounds = self.indptr.tolist()
        if handle + 1 < len(bounds):
            return self.ends[bounds[handle] : bounds[handle + 1]].tolist()
        return []

    def row(self, handle: int) -> Iterable[int]:
        patch = self.patched.get(handle)
        if patch is not None:
            return patch
        added = self.added.get(handle)
        return self.base(handle) if added is None else [*self.base(handle), *added]

    def has(self, handle: int, end: int) -> bool:
        patch = self.patched.get(handle)
        if patch is not None:
            return end in patch
        added = self.added.get(handle)
        if added is not None and end in added:
            return True
        indptr = self.indptr
        return handle + 1 < len(indptr) and end in self.ends[indptr[handle] : indptr[handle + 1]]

    def discard(self, handle: int, end: int) -> None:
        """Remove ``end``, which is in the row."""
        patch = self.patched.get(handle)
        if patch is None:
            added = self.added.pop(handle, ())
            if end in added:
                added.discard(end)
                self.added[handle] = added
                return
            patch = self.patched[handle] = set(self.base(handle))
            patch.update(added)
        patch.discard(end)

    def degree(self, handle: int) -> int:
        patch = self.patched.get(handle)
        if patch is not None:
            return len(patch)
        indptr = self.indptr
        base = int(indptr[handle + 1] - indptr[handle]) if handle + 1 < len(indptr) else 0
        return base + len(self.added.get(handle, ()))

    def owners(self) -> np.ndarray:
        """The handle each entry of ``ends`` belongs to."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def rebuilt(self, n: int, live: Optional[np.ndarray]) -> "_Rows":
        """These ``n`` handles' rows as a new CSR; only the rows of the
        handles ``live``, numbered densely, when given."""
        counts = np.zeros(n, dtype=np.int64)
        counts[: len(self.indptr) - 1] = np.diff(self.indptr)
        ends = self.ends
        if self.added or self.patched:
            added, patched = _sized(self.added), _sized(self.patched)
            edited = np.zeros(n, dtype=bool)
            edited[patched[0]] = True
            owners = self.owners()
            kept = ~edited[owners]
            # three runs by owner (the CSR rows kept, the ends added after
            # them, the patched rows): a stable sort merges them
            owners = np.concatenate(
                (owners[kept], np.repeat(*added), np.repeat(*patched))
            )
            new = itertools.chain.from_iterable((*self.added.values(), *self.patched.values()))
            ends = np.concatenate(
                (ends[kept], np.fromiter(new, np.int64, len(owners) - int(kept.sum())))
            )[np.argsort(owners, kind="stable")]
            counts[added[0]] += added[1]
            counts[patched[0]] = patched[1]
        if live is not None:
            renumber = np.zeros(n, dtype=np.int64)
            renumber[live] = np.arange(len(live))
            counts, ends = counts[live], renumber[ends]
        return _Rows(csr_indptr(counts), ends)

    def copy(self) -> "_Rows":
        # the CSR is never written in place, so the copy shares it
        clone = _Rows(self.indptr, self.ends)
        clone.added = {handle: set(ends) for handle, ends in self.added.items()}
        clone.patched = {handle: set(row) for handle, row in self.patched.items()}
        return clone


def _sized(rows: Dict[int, Set[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """The handles of ``rows`` and their sizes, as int64 columns."""
    return (
        np.fromiter(rows, np.int64, len(rows)),
        np.fromiter(map(len, rows.values()), np.int64, len(rows)),
    )


def _by_owner(owners: np.ndarray, ends: np.ndarray, n: int) -> _Rows:
    """The rows of ``n`` handles holding the distinct pairs ``owners[i] ->
    ends[i]``."""
    order = np.argsort(owners * n + ends)
    return _Rows(csr_indptr(np.bincount(owners, minlength=n)), ends[order])


_NO_NODES = np.zeros(1, dtype=np.int64)
_NO_EDGES = np.zeros(0, dtype=np.int64)

#: An edit rebuilds the CSRs once more edges were added and removed, and
#: nodes removed, since the last rebuild than ``_REBUILD_MIN`` or the
#: ``2 ** -_REBUILD_SHIFT`` share of the edges, whichever is larger.
_REBUILD_MIN = 256
_REBUILD_SHIFT = 1
