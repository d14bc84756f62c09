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
import itertools
import operator
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.columns import csr_indptr, ragged_index
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

    An engine's ``AG`` is kept current under structure events: its overlay
    maintainer rewrites the rows of the readers an edit changes, and their
    writers' out-degrees, in place.
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

    @classmethod
    def from_rows(
        cls,
        reader_inputs: Dict[NodeId, Tuple[NodeId, ...]],
        writer_out_degree: Dict[NodeId, int],
    ) -> "BipartiteGraph":
        """The ``AG`` whose rows are already what the constructor leaves:
        distinct writers in ``_sort_key`` order, with their out-degrees in
        the order the rows first name them."""
        ag = cls.__new__(cls)
        ag.reader_inputs = reader_inputs
        ag.writer_out_degree = writer_out_degree
        return ag

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
    universe = graph.nodes() if readers is None else readers
    chosen = [
        node
        for node in dict.fromkeys(universe)
        if node in graph and (predicate is None or predicate(node))
    ]
    # one plain hop reads every reader's members off the graph's columns
    columns = neighborhood.one_hop(graph)
    if columns is not None:
        ag = _from_columns(graph, *columns, chosen)
        if ag is not None:
            return ag
    reader_inputs: Dict[NodeId, Tuple[NodeId, ...]] = {}
    for node in chosen:
        members = neighborhood(graph, node)
        if members:
            reader_inputs[node] = tuple(members)
    return BipartiteGraph(reader_inputs)


def _from_columns(
    graph: DynamicGraph, indptr: np.ndarray, members: np.ndarray, readers: List[NodeId]
) -> Optional[BipartiteGraph]:
    """``AG`` of ``readers`` (distinct nodes of ``graph``) when each one's
    members are its row of the CSR ``(indptr, members)`` over the graph's
    handles: what :class:`BipartiteGraph` makes of those rows, ranked and
    counted in columns.  ``None`` if two writers tie on :func:`_sort_key`,
    whose order the constructor takes from its sets."""
    labels = graph.labels
    handles = np.fromiter(map(graph.handle, readers), np.int64, len(readers))
    starts, sizes = indptr[handles], indptr[handles + 1] - indptr[handles]
    nonempty = sizes > 0
    readers = list(itertools.compress(readers, nonempty.tolist()))
    sizes = sizes[nonempty]
    flat = members[ragged_index(starts[nonempty], sizes)[0]]
    bounds = csr_indptr(sizes)
    total = len(flat)
    # rank the distinct writers by _sort_key
    by_writer = np.argsort(flat, kind="stable")
    grouped = flat[by_writer]
    firsts = np.flatnonzero(np.diff(grouped, prepend=-1))
    writers = grouped[firsts]
    keys = list(map(_sort_key, map(labels.__getitem__, writers.tolist())))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(order, order[1:])):
        return None
    rank = np.zeros(len(labels), dtype=np.int64)
    rank[writers[order]] = np.arange(len(order))
    row_of = np.repeat(np.arange(len(sizes)), sizes)
    names = list(map(labels.__getitem__, flat[np.argsort(row_of * len(order) + rank[flat])].tolist()))
    cuts = bounds.tolist()
    reader_inputs = {
        reader: tuple(names[start:stop]) for reader, start, stop in zip(readers, cuts, cuts[1:])
    }
    # out-degrees in the order the ranked rows first name each writer: by
    # the first row naming it, then by rank
    degrees = np.diff(np.append(firsts, total))
    seen = np.argsort(row_of[by_writer[firsts]] * len(order) + rank[writers])
    return BipartiteGraph.from_rows(
        reader_inputs,
        dict(zip(map(labels.__getitem__, writers[seen].tolist()), degrees[seen].tolist())),
    )
