"""Neighborhood selection functions ``N(v)``.

An ego-centric aggregate query (paper Section 2.1) is parameterized by a
neighborhood selection function ``N``: for each query node ``v``, ``N(v)`` is
the set of nodes whose content streams feed the aggregate at ``v``.  The
paper's running example uses ``N(x) = {y | y -> x}`` (in-neighbors); the
framework also supports multi-hop neighborhoods (Section 5.4 evaluates 2-hop
aggregates) and *filtered* neighborhoods that aggregate over a predicate-
selected subset (Section 1's spatio-temporal example).

A :class:`Neighborhood` is a small, picklable-ish description object; calling
it with ``(graph, node)`` materializes the input set.  Keeping this as data
(rather than a bare lambda) lets the bipartite compiler and the incremental
maintenance code reason about the hop count when processing edge updates
(Section 3.3 notes that for 2-hop queries a single edge change affects many
readers).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Set, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph

NodeId = Hashable

#: Direction selectors for a hop.
IN = "in"
OUT = "out"
BOTH = "both"

_VALID_DIRECTIONS = (IN, OUT, BOTH)


class Neighborhood:
    """A neighborhood selection function ``N``.

    Parameters
    ----------
    hops:
        Number of hops to expand (``1`` for the classic ego network).
    direction:
        Which edges to follow: ``"in"`` (``{y | y -> x}``, the paper's
        default), ``"out"``, or ``"both"``.
    include_self:
        Whether the ego node itself contributes to its own aggregate.
        The paper's example excludes it; feeds in real social networks often
        include it, so it is a flag.
    node_filter:
        Optional predicate ``f(graph, node) -> bool`` applied to candidate
        members, supporting filtered neighborhoods.
    """

    def __init__(
        self,
        hops: int = 1,
        direction: str = IN,
        include_self: bool = False,
        node_filter: Optional[Callable[[DynamicGraph, NodeId], bool]] = None,
    ) -> None:
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if direction not in _VALID_DIRECTIONS:
            raise ValueError(f"direction must be one of {_VALID_DIRECTIONS}")
        self.hops = hops
        self.direction = direction
        self.include_self = include_self
        self.node_filter = node_filter

    # -- convenient constructors ---------------------------------------

    @classmethod
    def in_neighbors(cls, hops: int = 1, **kwargs) -> "Neighborhood":
        """``N(x) = {y | y ->* x}`` within ``hops`` hops (the paper default)."""
        return cls(hops=hops, direction=IN, **kwargs)

    @classmethod
    def out_neighbors(cls, hops: int = 1, **kwargs) -> "Neighborhood":
        """``N(x) = {y | x ->* y}`` — e.g. "accounts I follow"."""
        return cls(hops=hops, direction=OUT, **kwargs)

    @classmethod
    def undirected(cls, hops: int = 1, **kwargs) -> "Neighborhood":
        """Ignore edge direction (symmetric friendship networks)."""
        return cls(hops=hops, direction=BOTH, **kwargs)

    # -- evaluation ------------------------------------------------------

    def _step(self, graph: DynamicGraph, node: NodeId) -> Set[NodeId]:
        if self.direction == IN:
            return graph.in_neighbors(node)
        if self.direction == OUT:
            return graph.out_neighbors(node)
        return graph.neighbors(node)

    def __call__(self, graph: DynamicGraph, node: NodeId) -> Set[NodeId]:
        """Materialize ``N(node)`` on the current graph."""
        frontier = {node}
        seen = {node}
        members: Set[NodeId] = set()
        for _ in range(self.hops):
            nxt: Set[NodeId] = set()
            for u in frontier:
                nxt |= self._step(graph, u)
            nxt -= seen
            members |= nxt
            seen |= nxt
            frontier = nxt
            if not frontier:
                break
        if self.include_self:
            members.add(node)
        else:
            members.discard(node)
        if self.node_filter is not None:
            members = {m for m in members if self.node_filter(graph, m)}
        return members

    def one_hop(self, graph: DynamicGraph) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``N`` of every node of ``graph`` as int64 columns ``(indptr,
        members)`` over its handles (:meth:`DynamicGraph.csr`), when it is
        one hop with no filter: a node's members are then its in-, out- or
        undirected neighbours (no node is its own neighbour), plus the
        node with ``include_self``.  The columns are the graph's own, or
        new ones with ``include_self``; neither is to be modified.
        ``None`` for any other neighbourhood."""
        if self.hops != 1 or self.node_filter is not None:
            return None
        indptr, members = graph.csr(self.direction)
        if not self.include_self:
            return indptr, members
        nodes = np.arange(len(indptr) - 1)
        owners = np.concatenate((np.repeat(nodes, np.diff(indptr)), nodes))
        order = np.argsort(owners, kind="stable")
        return indptr + np.arange(len(indptr)), np.concatenate((members, nodes))[order]

    def affected_readers(self, graph: DynamicGraph, node: NodeId) -> Set[NodeId]:
        """Readers whose ``N(r)`` may include ``node`` (reverse expansion).

        The hop-reversed traversal of :meth:`__call__`, without the node
        filter.  Incremental overlay maintenance takes it at both endpoints
        of an edit, before and after it: those readers' input lists are
        re-derived, and they are the readers the engine reports as
        restructured.  Taken before an edit, it holds every reader that
        loses an input to it.
        """
        reverse = {IN: OUT, OUT: IN, BOTH: BOTH}[self.direction]
        probe = Neighborhood(
            hops=self.hops, direction=reverse, include_self=self.include_self
        )
        return probe(graph, node) | ({node} if self.include_self else set())

    def __repr__(self) -> str:
        flt = ", filtered" if self.node_filter else ""
        self_part = ", include_self" if self.include_self else ""
        return f"Neighborhood({self.hops}-hop, {self.direction}{self_part}{flt})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Neighborhood):
            return NotImplemented
        return (
            self.hops == other.hops
            and self.direction == other.direction
            and self.include_self == other.include_self
            and self.node_filter is other.node_filter
        )

    def __hash__(self) -> int:
        return hash((self.hops, self.direction, self.include_self, id(self.node_filter)))
