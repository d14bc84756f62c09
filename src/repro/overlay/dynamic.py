"""Incremental overlay maintenance under data-graph changes (Section 3.3).

The paper's design splits responsibilities: the overlay is rebuilt rarely
and expensively, but individual structure-stream events (edge/node
additions and deletions) are absorbed *incrementally* with local overlay
surgery, falling back to IOB-style re-covering of a reader when the change
is too large for a local fix.  Concretely:

* **Edge addition** — for each reader whose input list gained writers
  ``Δ(I(r))``: if ``|Δ|`` exceeds a threshold, cover ``Δ`` with the IOB
  greedy machinery (reusing an existing partial aggregate when one matches)
  and connect the pieces to ``r``; otherwise add direct writer→reader edges.
  A per-reader count of accumulated direct edges triggers a full re-cover of
  that reader when it crosses a second threshold.
* **Edge deletion** — for each reader that lost writers: direct edges are
  simply removed; inputs through partial aggregates are handled by detaching
  the reader from the affected aggregate and re-covering the remainder of
  that aggregate's contribution.  If too many aggregates are affected
  (paper's cutoff: > 5), the reader is rebuilt outright.
* **Node addition/deletion** — composed from the above plus writer/reader
  bookkeeping.

The maintainer owns the edit: :meth:`OverlayMaintainer.apply` makes it on
the graph, re-derives the inputs of every reader near the edit's endpoints
(before and after it), and refreshes a reader by diffing those inputs
against its row of the engine's ``AG``, which it then rewrites in place.
The ``AG`` is thus the one record of each reader's inputs, and stays
current for everything that reads it (the sharing index, ``validate``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

from repro.core.overlay import NodeKind, Overlay
from repro.graph.bipartite import BipartiteGraph, _sort_key
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.overlay.iob import IOBState

NodeId = Hashable

#: ``|Δ(I(r))|`` above which additions are covered with a partial aggregate
#: instead of direct edges.
DELTA_THRESHOLD = 3
#: Accumulated direct edges per reader that trigger a full re-cover.
DIRECT_EDGE_THRESHOLD = 5
#: Number of affected partial aggregates above which a deletion rebuilds
#: the reader outright (the paper uses 5).
AFFECTED_THRESHOLD = 5


class OverlayMaintainer:
    """Keeps an overlay consistent with a changing data graph.

    Parameters
    ----------
    graph:
        The data graph; :meth:`apply` makes each event's edit on it.
    neighborhood / predicate:
        The query parameters defining reader input lists.
    overlay:
        The overlay to maintain (from any construction algorithm).
    ag:
        The ``AG`` the overlay was built from, kept current in place: a
        reader is refreshed by diffing its re-derived inputs against its
        row here (not against the graph as it stood, which a node filter
        over attributes may since read differently).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        neighborhood: Neighborhood,
        overlay: Overlay,
        ag: BipartiteGraph,
        predicate=None,
    ) -> None:
        self.graph = graph
        self.neighborhood = neighborhood
        self.predicate = predicate
        self.ag = ag
        self.state = IOBState(overlay)
        self._direct_counts: Dict[NodeId, int] = {}

    @property
    def overlay(self) -> Overlay:
        """The maintained overlay (shared with the engine's runtime)."""
        return self.state.overlay

    def _query_inputs(self, node: NodeId) -> Set[NodeId]:
        if node not in self.graph:
            return set()
        if self.predicate is not None and not self.predicate(node):
            return set()
        return self.neighborhood(self.graph, node)

    # ------------------------------------------------------------------
    # event entry point
    # ------------------------------------------------------------------

    def apply(self, event: StructureEvent) -> Set[NodeId]:
        """Make one structure-stream event's edit on the graph and absorb
        it into the overlay.

        Returns the nodes whose ``N`` the event may alter, before or after
        it: their aggregates can move although no writer did.  An edit
        that changes nothing (an edge or node already there) refreshes no
        reader.
        """
        graph, node = self.graph, event.u
        if event.op is StructureOp.REMOVE_NODE and node in graph:
            # Edge by edge first, as DynamicGraph.remove_node does.
            near = self._readers_near((node,))
            for v in list(graph.out_neighbors(node)):
                self._edit(graph.remove_edge, (node, v))
            for u in list(graph.in_neighbors(node)):
                self._edit(graph.remove_edge, (u, node))
            graph.remove_node(node)
            self._remove_node(node)
            return near
        ends = (node,) if event.v is None else (node, event.v)
        return self._edit(getattr(graph, event.op.name.lower()), ends)

    def _edit(self, edit, ends) -> Set[NodeId]:
        """``edit(*ends)`` on the graph, then refresh every reader near
        ``ends`` before or after it; returns those readers."""
        clock = self.graph.clock
        near = self._readers_near(ends)
        edit(*ends)
        if self.graph.clock != clock:
            near |= self._readers_near(ends)
            for reader in sorted(near, key=_sort_key):
                self._refresh_reader(reader)
        return near

    def _readers_near(self, ends: Iterable[NodeId]) -> Set[NodeId]:
        """Nodes whose ``N(r)`` may involve one of ``ends`` in the graph as
        it stands.  Taken before an edit, it holds every reader whose row
        names an endpoint: a row never names a writer its reader cannot
        reach."""
        graph = self.graph
        affected_readers = self.neighborhood.affected_readers
        near: Set[NodeId] = set()
        for node in ends:
            if node in graph:
                near.add(node)
                near |= affected_readers(graph, node)
        return near

    # ------------------------------------------------------------------
    # diff-based refresh
    # ------------------------------------------------------------------

    def _refresh_reader(self, reader: NodeId) -> None:
        new_inputs = self._query_inputs(reader)
        row = self.ag.reader_inputs.get(reader, ())
        if len(new_inputs) == len(row) and new_inputs.issuperset(row):
            return
        old_inputs = set(row)
        added = new_inputs - old_inputs
        removed = old_inputs - new_inputs
        if not old_inputs and new_inputs:
            self._add_reader(reader, new_inputs)
        elif old_inputs and not new_inputs:
            self._drop_reader(reader)
        else:
            if removed:
                self._process_removals(reader, removed)
            if added:
                self._process_additions(reader, added)
            handle = self.overlay.reader_of.get(reader)
            if handle is not None:
                self.state.reset_reader_cover(
                    handle,
                    (
                        self.overlay.writer_of[w]
                        for w in new_inputs
                        if w in self.overlay.writer_of
                    ),
                )
        self._rewrite_row(reader, new_inputs)

    def _rewrite_row(self, reader: NodeId, inputs: Set[NodeId]) -> None:
        """Make ``reader``'s ``AG`` row ``inputs``, keeping the writers'
        out-degrees in step."""
        ag = self.ag
        row = ag.reader_inputs.get(reader, ())
        degree = ag.writer_out_degree
        for writer in row:
            if writer not in inputs:
                if degree[writer] == 1:
                    del degree[writer]
                else:
                    degree[writer] -= 1
        for writer in inputs.difference(row):
            degree[writer] = degree.get(writer, 0) + 1
        if inputs:
            ag.reader_inputs[reader] = tuple(sorted(inputs, key=_sort_key))
        else:
            ag.reader_inputs.pop(reader, None)

    # ------------------------------------------------------------------
    # reader-level operations
    # ------------------------------------------------------------------

    def _add_reader(self, reader: NodeId, inputs: Set[NodeId]) -> None:
        self.state.add_reader(reader, sorted(inputs, key=repr))
        self._direct_counts[reader] = 0

    def _drop_reader(self, reader: NodeId) -> None:
        handle = self.overlay.reader_of.pop(reader, None)
        if handle is None:
            return
        self.overlay.mark_dirty(handle)  # the pop bypasses edge bookkeeping
        self.state.remove_reader_inputs(handle)
        self._direct_counts.pop(reader, None)

    def _rebuild_reader(self, reader: NodeId, inputs: Set[NodeId]) -> None:
        handle = self.overlay.reader_of.get(reader)
        if handle is not None:
            self.state.remove_reader_inputs(handle)
            writer_handles = {self.state.ensure_writer(w) for w in inputs}
            for piece in self.state.cover(writer_handles):
                self.overlay.add_edge(piece, handle, 1)
            self.state.reset_reader_cover(handle, writer_handles)
        else:
            self.state.add_reader(reader, sorted(inputs, key=repr))
        self._direct_counts[reader] = 0

    def _contribute(self, piece: int, handle: int) -> None:
        """Make ``piece`` count once, positively, at reader ``handle``.

        A negative edge already there (``vnm_n``: the piece is subtracted
        out of a shared partial the reader also consumes) is *removed* —
        that is the +1 — where adding nothing would leave the net at 0.
        """
        sources, signs = self.overlay.in_rows(handle)
        if piece not in sources:
            self.overlay.add_edge(piece, handle, 1)
        elif signs[sources.index(piece)] < 0:
            self.overlay.remove_edge(piece, handle)

    def _process_additions(self, reader: NodeId, added: Set[NodeId]) -> None:
        handle = self.overlay.reader_of.get(reader)
        if handle is None:
            self._add_reader(reader, self._query_inputs(reader))
            return
        added_handles = {self.state.ensure_writer(w) for w in added}
        if len(added) > DELTA_THRESHOLD:
            # Large delta: aggregate it behind (possibly reused) partials.
            for piece in self.state.cover(added_handles):
                self._contribute(piece, handle)
        else:
            for writer_handle in sorted(added_handles):
                self._contribute(writer_handle, handle)
            count = self._direct_counts.get(reader, 0) + len(added_handles)
            self._direct_counts[reader] = count
            if count > DIRECT_EDGE_THRESHOLD:
                self._rebuild_reader(reader, self._query_inputs(reader))

    def _process_removals(self, reader: NodeId, removed: Set[NodeId]) -> None:
        overlay = self.overlay
        handle = overlay.reader_of.get(reader)
        if handle is None:
            return
        removed_handles = {
            overlay.writer_of[w] for w in removed if w in overlay.writer_of
        }
        # Classify the reader's inputs by whether they are touched.
        touched_partials: List[int] = []
        for src in overlay.in_rows(handle)[0]:
            if src in removed_handles:
                overlay.remove_edge(src, handle)  # direct edge: trivial fix
            elif overlay.kinds[src] is NodeKind.PARTIAL:
                cover = self.state.coverage.get(src, frozenset())
                if cover & removed_handles:
                    touched_partials.append(src)
        if not touched_partials:
            return
        if len(touched_partials) > AFFECTED_THRESHOLD or any(
            src not in self.state.pure for src in touched_partials
        ):
            self._rebuild_reader(reader, self._query_inputs(reader))
            return
        # Local fix: detach the reader from each touched aggregate and
        # re-cover the aggregate's surviving contribution.
        for src in touched_partials:
            overlay.remove_edge(src, handle)
            survivors = self.state.coverage[src] - removed_handles
            if survivors:
                for piece in self.state.cover(set(survivors)):
                    self._contribute(piece, handle)
        self.state.prune_orphans(touched_partials)

    # ------------------------------------------------------------------
    # node removal
    # ------------------------------------------------------------------

    def _remove_node(self, node: NodeId) -> None:
        """The node is out of the graph and its edges were removed one by
        one: no other reader can reach it, so no other row names it."""
        # The reader side: drop its query.
        self._drop_reader(node)
        self._rewrite_row(node, set())
        # Any residual consumers (stale aggregates) force a rebuild of the
        # readers downstream of them.
        writer_handle = self.overlay.writer_of.get(node)
        if writer_handle is not None:
            residual = self.overlay.out_rows(writer_handle)[0]
            if residual:
                downstream_readers = {
                    self.overlay.labels[h]
                    for h in self.overlay.downstream(writer_handle)
                    if self.overlay.kinds[h] is NodeKind.READER
                }
                for reader in sorted(downstream_readers, key=repr):
                    inputs = self._query_inputs(reader)
                    if inputs:
                        self._rebuild_reader(reader, inputs)
                    else:
                        self._drop_reader(reader)
                    self._rewrite_row(reader, inputs)
                self.state.prune_orphans(residual)
            self.overlay.writer_of.pop(node, None)
            self.overlay.mark_dirty(writer_handle)  # ditto: direct pop
            self.state._unregister(writer_handle)
