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

The maintainer keeps a mirror of every reader's current input set (the
live ``AG``, :meth:`OverlayMaintainer.live_bipartite`), and refreshes a
reader by diffing its re-derived inputs against the mirror.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set

from repro.core.overlay import NodeKind, Overlay
from repro.graph.bipartite import BipartiteGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp
from repro.overlay.iob import IOBState

NodeId = Hashable


class OverlayMaintainer:
    """Keeps an overlay consistent with a changing data graph.

    Parameters
    ----------
    graph:
        The data graph; must already reflect the events passed to
        :meth:`apply` (subscribe the maintainer *after* the graph mutates,
        or use :meth:`attach` which wires this up).
    neighborhood / predicate:
        The query parameters defining reader input lists.
    overlay:
        The overlay to maintain (from any construction algorithm).
    ag:
        The ``AG`` the overlay was built from: the mirror of the readers'
        inputs starts from it rather than from the graph as it stands
        (which a node filter over attributes may since read differently).
    delta_threshold:
        ``|Δ(I(r))|`` above which additions are covered with a partial
        aggregate instead of direct edges.
    direct_edge_threshold:
        Accumulated direct edges per reader that trigger a full re-cover.
    affected_threshold:
        Number of affected partial aggregates above which a deletion
        rebuilds the reader outright (paper uses 5).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        neighborhood: Neighborhood,
        overlay: Overlay,
        ag: BipartiteGraph,
        predicate=None,
        delta_threshold: int = 3,
        direct_edge_threshold: int = 5,
        affected_threshold: int = 5,
    ) -> None:
        self.graph = graph
        self.neighborhood = neighborhood
        self.predicate = predicate
        self.state = IOBState(overlay)
        self.delta_threshold = delta_threshold
        self.direct_edge_threshold = direct_edge_threshold
        self.affected_threshold = affected_threshold
        self._direct_counts: Dict[NodeId, int] = {}
        # Live AG mirror: reader -> current input writer set, plus inverse.
        self.current_inputs: Dict[NodeId, Set[NodeId]] = {}
        self._feeds: Dict[NodeId, Set[NodeId]] = {}
        self._bootstrap_mirror(ag)

    @property
    def overlay(self) -> Overlay:
        """The maintained overlay (shared with the engine's runtime)."""
        return self.state.overlay

    # ------------------------------------------------------------------

    def _bootstrap_mirror(self, ag: BipartiteGraph) -> None:
        for reader in list(self.overlay.reader_of):
            members = set(ag.reader_inputs.get(reader, ()))
            self.current_inputs[reader] = members
            for writer in members:
                self._feeds.setdefault(writer, set()).add(reader)

    def _query_inputs(self, node: NodeId) -> Set[NodeId]:
        if node not in self.graph:
            return set()
        if self.predicate is not None and not self.predicate(node):
            return set()
        return self.neighborhood(self.graph, node)

    def attach(self) -> "OverlayMaintainer":
        """Subscribe to the graph's structure stream (events arrive after
        the graph has already mutated, which is what :meth:`apply` expects)."""
        self.graph.subscribe(self.apply)
        return self

    # ------------------------------------------------------------------
    # event entry point
    # ------------------------------------------------------------------

    def apply(self, event: StructureEvent) -> None:
        """Absorb one structure-stream event into the overlay."""
        if event.op is StructureOp.ADD_EDGE:
            self._refresh_affected({event.u, event.v})
        elif event.op is StructureOp.REMOVE_EDGE:
            self._refresh_affected({event.u, event.v})
        elif event.op is StructureOp.ADD_NODE:
            self._refresh_affected({event.u})
        elif event.op is StructureOp.REMOVE_NODE:
            self._remove_node(event.u)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown structure op {event.op}")

    # ------------------------------------------------------------------
    # diff-based refresh
    # ------------------------------------------------------------------

    def _affected_readers(self, endpoints: Set[NodeId]) -> Set[NodeId]:
        affected: Set[NodeId] = set()
        for node in endpoints:
            if node in self.graph:
                affected.add(node)
                affected |= self.neighborhood.affected_readers(self.graph, node)
        # Readers that previously depended on the endpoints must also be
        # re-checked (reverse reachability may have shrunk).
        for node in endpoints:
            affected |= self._feeds.get(node, set())
        return affected

    def _refresh_affected(self, endpoints: Set[NodeId]) -> None:
        for reader in sorted(
            self._affected_readers(endpoints), key=lambda n: (type(n).__name__, repr(n))
        ):
            self._refresh_reader(reader)

    def _refresh_reader(self, reader: NodeId) -> None:
        new_inputs = self._query_inputs(reader)
        old_inputs = self.current_inputs.get(reader, set())
        if new_inputs == old_inputs:
            return
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
        # Update mirrors.
        for writer in removed:
            bucket = self._feeds.get(writer)
            if bucket is not None:
                bucket.discard(reader)
                if not bucket:
                    del self._feeds[writer]
        for writer in added:
            self._feeds.setdefault(writer, set()).add(reader)
        if new_inputs:
            self.current_inputs[reader] = new_inputs
        else:
            self.current_inputs.pop(reader, None)

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
        if len(added) > self.delta_threshold:
            # Large delta: aggregate it behind (possibly reused) partials.
            for piece in self.state.cover(added_handles):
                self._contribute(piece, handle)
        else:
            for writer_handle in sorted(added_handles):
                self._contribute(writer_handle, handle)
            count = self._direct_counts.get(reader, 0) + len(added_handles)
            self._direct_counts[reader] = count
            if count > self.direct_edge_threshold:
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
        if len(touched_partials) > self.affected_threshold or any(
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
        # The reader side: drop its query.
        if node in self.overlay.reader_of:
            self._drop_reader(node)
            old = self.current_inputs.pop(node, set())
            for writer in old:
                bucket = self._feeds.get(writer)
                if bucket is not None:
                    bucket.discard(node)
        # The writer side: every reader that consumed it must shed it.
        for reader in sorted(self._feeds.pop(node, set()), key=repr):
            self._refresh_reader(reader)
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
                self.state.prune_orphans(residual)
            self.overlay.writer_of.pop(node, None)
            self.overlay.mark_dirty(writer_handle)  # ditto: direct pop
            self.state._unregister(writer_handle)

    # ------------------------------------------------------------------

    def live_bipartite(self) -> BipartiteGraph:
        """The current ``AG`` implied by the mirror (for validation)."""
        return BipartiteGraph(
            {reader: tuple(inputs) for reader, inputs in self.current_inputs.items()}
        )
