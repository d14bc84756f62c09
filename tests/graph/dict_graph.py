"""The dict-of-sets data graph: the reference :class:`DynamicGraph` is
checked against.

Every node maps to a ``set`` of its out-neighbours and one of its
in-neighbours, so each query and edit is one dictionary or set operation
and nothing is shared with the int64 columns of
:mod:`repro.graph.dynamic_graph`.  Its public methods mean what the
columnar class's mean: the same nodes in the same order, neighbour sets,
edge count, structure clock, attributes, and a :class:`GraphError` for
the same invalid edits.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

from repro.graph.dynamic_graph import GraphError

NodeId = Hashable


class DictGraph:
    """A directed graph with O(1) amortized updates and bidirectional adjacency.

    Nodes are arbitrary hashable identifiers.  Edges are simple (no parallel
    edges); re-adding an existing edge is a no-op that returns ``False``.
    Undirected relationships (e.g. friendship edges in a social network) are
    represented as a pair of directed edges via :meth:`add_undirected_edge`.

    Node attributes are supported through a per-node attribute dict, used by
    filtered neighborhood functions (Section 2.1 allows aggregating over
    subsets of neighborhoods selected by a predicate).
    """

    def __init__(self) -> None:
        self._out: Dict[NodeId, Set[NodeId]] = {}
        self._in: Dict[NodeId, Set[NodeId]] = {}
        self._attrs: Dict[NodeId, Dict[str, object]] = {}
        self._num_edges = 0
        self._clock = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def clock(self) -> int:
        """The structure clock: advanced by every successful edit."""
        return self._clock

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node: NodeId) -> bool:
        return node in self._out

    def __len__(self) -> int:
        return len(self._out)

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._out)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        for u, targets in self._out.items():
            for v in targets:
                yield (u, v)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self._out and v in self._out[u]

    def out_neighbors(self, node: NodeId) -> Set[NodeId]:
        """Nodes ``v`` such that ``node -> v`` exists."""
        try:
            return self._out[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def in_neighbors(self, node: NodeId) -> Set[NodeId]:
        """Nodes ``u`` such that ``u -> node`` exists."""
        try:
            return self._in[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Union of in- and out-neighbors (the undirected view)."""
        return self.in_neighbors(node) | self.out_neighbors(node)

    def out_degree(self, node: NodeId) -> int:
        return len(self.out_neighbors(node))

    def in_degree(self, node: NodeId) -> int:
        return len(self.in_neighbors(node))

    # ------------------------------------------------------------------
    # attributes
    # ------------------------------------------------------------------

    def set_attr(self, node: NodeId, key: str, value: object) -> None:
        if node not in self._out:
            raise GraphError(f"node {node!r} not in graph")
        self._attrs.setdefault(node, {})[key] = value

    def get_attr(self, node: NodeId, key: str, default: object = None) -> object:
        return self._attrs.get(node, {}).get(key, default)

    # ------------------------------------------------------------------
    # structure updates
    # ------------------------------------------------------------------

    def add_node(self, node: NodeId) -> bool:
        """Add ``node``; returns ``False`` if it already existed."""
        if node in self._out:
            return False
        self._out[node] = set()
        self._in[node] = set()
        self._clock += 1
        return True

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._out:
            raise GraphError(f"node {node!r} not in graph")
        for v in list(self._out[node]):
            self.remove_edge(node, v)
        for u in list(self._in[node]):
            self.remove_edge(u, node)
        del self._out[node]
        del self._in[node]
        self._attrs.pop(node, None)
        self._clock += 1

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add the directed edge ``u -> v`` (creating endpoints as needed).

        Returns ``False`` (and leaves the clock alone) if the edge already
        existed.
        Self loops are rejected: a node never feeds its own ego network.
        """
        if u == v:
            raise GraphError("self loops are not supported")
        self.add_node(u)
        self.add_node(v)
        if v in self._out[u]:
            return False
        self._out[u].add(v)
        self._in[v].add(u)
        self._num_edges += 1
        self._clock += 1
        return True

    def add_undirected_edge(self, u: NodeId, v: NodeId) -> None:
        """Add ``u -> v`` and ``v -> u`` (a symmetric friendship-style edge)."""
        self.add_edge(u, v)
        self.add_edge(v, u)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge {u!r}->{v!r} not in graph")
        self._out[u].discard(v)
        self._in[v].discard(u)
        self._num_edges -= 1
        self._clock += 1

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[NodeId, NodeId]]) -> "DictGraph":
        """The graph :meth:`add_edge` would build from ``edges`` one by one
        (same node order, adjacency sets, edge count and clock), filled in
        one loop."""
        graph = cls()
        out, inn = graph._out, graph._in
        added = 0
        for u, v in edges:
            if u == v:
                raise GraphError("self loops are not supported")
            targets = out.get(u)
            if targets is None:
                targets = out[u] = set()
                inn[u] = set()
            if v not in out:
                out[v] = set()
                inn[v] = set()
            if v not in targets:
                targets.add(v)
                inn[v].add(u)
                added += 1
        graph._num_edges = added
        # add_node and add_edge each tick the clock once per change
        graph._clock = len(out) + added
        return graph

    def copy(self) -> "DictGraph":
        clone = DictGraph()
        for node in self.nodes():
            clone.add_node(node)
        for u, v in self.edges():
            clone.add_edge(u, v)
        for node, attrs in self._attrs.items():
            for key, value in attrs.items():
                clone.set_attr(node, key, value)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictGraph(nodes={self.num_nodes}, edges={self.num_edges})"
