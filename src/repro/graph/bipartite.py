"""The bipartite writer/reader graph ``AG`` (paper Section 3.1).

Given the data graph ``G(V, E)`` and a query ``⟨F, w, N, pred⟩``, EAGr's
first compilation step duplicates every node into a *writer* role and a
*reader* role and materializes the directed bipartite graph ``AG(V', E')``:
an edge ``u_w -> v_r`` exists iff ``u ∈ N(v)`` and ``pred(v)`` holds.  A node
appears as a reader only if it has a query, and as a writer only if it feeds
at least one reader (node ``g`` in the paper's Figure 1(c) is a reader but
not a writer input).

All overlay construction algorithms (Section 3.2) consume this structure, so
it is optimized for what they need: stable integer indexing of writers, fast
access to each reader's input list, and per-writer out-degree counts (the
FP-tree item ordering).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood

NodeId = Hashable


class BipartiteGraph:
    """``AG``: readers with their writer input lists.

    Attributes
    ----------
    reader_inputs:
        Mapping from reader node id to the *sorted tuple* of writer node ids
        in its input list.  Sorting makes construction deterministic.
    writer_out_degree:
        For each writer, the number of readers whose input list contains it
        (its out-degree in ``AG``) — the frequency used to order FP-tree
        items.
    """

    def __init__(self, reader_inputs: Dict[NodeId, Tuple[NodeId, ...]]) -> None:
        members = {reader: set(inputs) for reader, inputs in reader_inputs.items()}
        # one _sort_key per distinct writer: each input list is then sorted
        # by integer rank (equal keys share a rank, so ties keep the order
        # a sort by key would leave them in)
        writers = set().union(*members.values())
        rank: Dict[NodeId, int] = {}
        previous = None
        for writer, key in sorted(
            zip(writers, map(_sort_key, writers)), key=operator.itemgetter(1)
        ):
            if key != previous:
                current, previous = len(rank), key
            rank[writer] = current
        by_rank = rank.__getitem__
        self.reader_inputs: Dict[NodeId, Tuple[NodeId, ...]] = {
            reader: tuple(sorted(inputs, key=by_rank))
            for reader, inputs in members.items()
        }
        self.writer_out_degree: Dict[NodeId, int] = dict(
            collections.Counter(itertools.chain.from_iterable(self.reader_inputs.values()))
        )

    # ------------------------------------------------------------------

    @property
    def readers(self) -> List[NodeId]:
        return list(self.reader_inputs)

    @property
    def writers(self) -> Set[NodeId]:
        return set(self.writer_out_degree)

    @property
    def num_edges(self) -> int:
        """|E'| — the denominator of the sharing index (Section 3.1)."""
        return sum(map(len, self.reader_inputs.values()))

    def inputs(self, reader: NodeId) -> Tuple[NodeId, ...]:
        return self.reader_inputs[reader]

    def __contains__(self, reader: NodeId) -> bool:
        return reader in self.reader_inputs

    def __len__(self) -> int:
        return len(self.reader_inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(readers={len(self.reader_inputs)}, "
            f"writers={len(self.writer_out_degree)}, edges={self.num_edges})"
        )


def _sort_key(node: NodeId) -> Tuple[str, str]:
    # Node ids may mix ints and strings; sort by (type name, repr) so the
    # ordering is total and deterministic without requiring comparability.
    return (type(node).__name__, repr(node))


def build_bipartite(
    graph: DynamicGraph,
    neighborhood: Neighborhood,
    predicate: Optional[Callable[[NodeId], bool]] = None,
    readers: Optional[Iterable[NodeId]] = None,
) -> BipartiteGraph:
    """Compile ``AG`` from the data graph and the query's ``N``/``pred``.

    Parameters
    ----------
    graph:
        The data graph ``G``.
    neighborhood:
        The query's neighborhood selection function ``N``.
    predicate:
        ``pred`` — selects the subset of nodes whose query is materialized;
        ``None`` means all nodes (the paper's main experiments use
        ``v ∈ V``).  Readers with empty input lists are dropped: their
        aggregate is identically the aggregate of nothing and needs no
        overlay machinery.
    readers:
        Optional explicit reader universe; defaults to all graph nodes.

    Returns
    -------
    BipartiteGraph
    """
    reader_inputs: Dict[NodeId, Tuple[NodeId, ...]] = {}
    universe = graph.nodes() if readers is None else readers
    # one plain hop reads each reader's members straight off the graph
    members_of = neighborhood.one_hop(graph) or functools.partial(neighborhood, graph)
    for node in universe:
        if node not in graph:
            continue
        if predicate is not None and not predicate(node):
            continue
        members = members_of(node)
        if members:
            reader_inputs[node] = tuple(members)
    return BipartiteGraph(reader_inputs)
