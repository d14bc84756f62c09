"""IOB: Incremental Overlay Building (paper Section 3.2.5).

IOB builds the overlay one reader at a time.  For the next reader ``r`` it
solves a minimum exact set cover: find the fewest existing overlay nodes
whose (pairwise-disjoint) writer-coverage sets exactly tile ``N(r)``, using
the standard greedy heuristic — repeatedly take the node with maximum
overlap with the uncovered remainder.  When the best node ``v`` covers a
*superset* (``B ⊄ A``), the overlay is restructured exactly as the paper
describes: a new node ``v'`` takes over the inputs of ``v`` lying inside the
overlap, ``v'`` becomes an input of ``v`` (so ``I(v)`` is preserved for
``v``'s other consumers), and ``v'`` serves the new reader.  This rerouting
is what makes IOB overlays compact but *deep* (Figure 11(a)).

Two indexes make the greedy step a single scan of the input list:

* the **reverse index** maps a writer to every overlay node whose coverage
  contains it (the paper's example: ``a_w``'s entry contains ``v2`` even
  though the edge is indirect),
* the **forward index** is the overlay's input rows themselves.

:class:`IOBState` packages the overlay with both indexes and the cover /
split / prune operations; it is reused by incremental maintenance
(:mod:`repro.overlay.dynamic`, Section 3.3) on overlays built by *any*
algorithm.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.overlay import NodeKind, Overlay
from repro.graph.bipartite import BipartiteGraph
from repro.overlay.shingles import shingle_order
from repro.overlay.vnm import ConstructionResult, IterationStats, VNMConfig

NodeId = Hashable


class IOBState:
    """An overlay plus the coverage / reverse indexes IOB needs.

    ``coverage[h]`` is the frozen set of *writer handles* aggregated by
    overlay node ``h`` (``I(ovl)`` in the paper); ``reverse[w]`` is the set
    of reusable nodes (writers and pure partials — never readers) whose
    coverage contains writer ``w``.
    """

    def __init__(self, overlay: Overlay) -> None:
        self.overlay = overlay
        self.coverage: Dict[int, FrozenSet[int]] = {}
        self.reverse: Dict[int, Set[int]] = {}
        self.dead: Set[int] = set()
        #: Handles whose subtree is a clean exact-cover tree (single positive
        #: path per writer).  Only pure nodes are reusable / splittable.
        self.pure: Set[int] = set()
        self._index_existing()

    # ------------------------------------------------------------------
    # index construction
    # ------------------------------------------------------------------

    def _index_existing(self) -> None:
        """Compute coverage bottom-up for a pre-existing overlay.

        Nodes whose net coverage is not a pure set (multiplicities other
        than one, e.g. under negative edges or duplicate paths) are marked
        *impure* and never reused as cover pieces — reusing them could break
        the exact-cover invariant.
        """
        overlay = self.overlay
        signed: Dict[int, Dict[int, int]] = {}
        for handle in overlay.topological_order():
            kind = overlay.kinds[handle]
            if kind is NodeKind.WRITER:
                signed[handle] = {handle: 1}
                self.coverage[handle] = frozenset((handle,))
                self.reverse.setdefault(handle, set()).add(handle)
                self.pure.add(handle)
                continue
            merged: Dict[int, int] = {}
            clean = True
            size_sum = 0
            for src, sign in zip(*overlay.in_rows(handle)):
                if sign < 0 or src not in self.pure:
                    clean = False
                size_sum += len(signed[src])
                for writer, mult in signed[src].items():
                    total = merged.get(writer, 0) + sign * mult
                    if total:
                        merged[writer] = total
                    else:
                        merged.pop(writer, None)
            signed[handle] = merged
            if kind in (NodeKind.PARTIAL, NodeKind.READER):
                # Pure: all inputs pure, positive, and pairwise disjoint —
                # i.e. the node is a clean exact-cover aggregate.  Readers
                # participate too: their input sets are the prime sharing
                # targets (paper Figure 4 splits aggregators out of e_r's
                # inputs), though a reader itself never feeds anything —
                # reuse always goes through a split-out partial node.
                pure = clean and len(merged) == size_sum
                cover = frozenset(merged)
                self.coverage[handle] = cover
                if pure:
                    self.pure.add(handle)
                    for writer in cover:
                        self.reverse.setdefault(writer, set()).add(handle)

    # ------------------------------------------------------------------
    # node/edge helpers
    # ------------------------------------------------------------------

    def ensure_writer(self, node: NodeId) -> int:
        """Fetch-or-create the writer handle for ``node``, kept indexed."""
        handle = self.overlay.writer_of.get(node)
        if handle is not None:
            return handle
        handle = self.overlay.add_writer(node)
        self.coverage[handle] = frozenset((handle,))
        self.reverse.setdefault(handle, set()).add(handle)
        self.pure.add(handle)
        return handle

    def _register_partial(self, handle: int, cover: FrozenSet[int]) -> None:
        self.coverage[handle] = cover
        self.pure.add(handle)
        for writer in cover:
            self.reverse.setdefault(writer, set()).add(handle)

    def _unregister(self, handle: int) -> None:
        cover = self.coverage.pop(handle, frozenset())
        self.pure.discard(handle)
        for writer in cover:
            bucket = self.reverse.get(writer)
            if bucket is not None:
                bucket.discard(handle)

    # ------------------------------------------------------------------
    # greedy exact set cover (the heart of IOB)
    # ------------------------------------------------------------------

    def _best_candidate(
        self, needed: Set[int], banned: Set[int]
    ) -> Tuple[Optional[int], int]:
        """Overlay node with maximum ``|I(v) ∩ needed|`` via the reverse index."""
        counts: Dict[int, int] = {}
        for writer in needed:
            for node in self.reverse.get(writer, ()):
                if node not in banned:
                    counts[node] = counts.get(node, 0) + 1
        best = None
        best_key: Tuple[int, int, int] = (0, 0, 0)
        for node, count in counts.items():
            if count < 2:
                continue
            # Prefer bigger overlap, then tighter fit, then older nodes.
            key = (count, -len(self.coverage[node]), -node)
            if key > best_key:
                best, best_key = node, key
        return best, best_key[0]

    def cover(
        self,
        targets: Iterable[int],
        forbid: Optional[Set[int]] = None,
        strict_subsets: bool = False,
        allow_split: bool = True,
    ) -> List[int]:
        """Greedy exact cover of ``targets`` (writer handles).

        Returns node handles with pairwise-disjoint coverages whose union is
        exactly ``targets``; may create new partial nodes by splitting.  With
        ``strict_subsets`` only candidates whose coverage is a proper subset
        of ``targets`` are considered (used when re-covering an existing
        node, where equal-coverage candidates risk cycles).
        """
        needed = set(targets)
        banned: Set[int] = set(forbid or ())
        if strict_subsets:
            full = frozenset(targets)
            banned |= {
                node
                for writer in needed
                for node in self.reverse.get(writer, ())
                if self.coverage[node] >= full
            }
        pieces: List[int] = []
        while needed:
            best, _ = self._best_candidate(needed, banned)
            if best is None:
                pieces.extend(sorted(needed))  # remaining singleton writers
                break
            cover = self.coverage[best]
            is_reader = self.overlay.kinds[best] is NodeKind.READER
            if cover <= needed and not is_reader:
                pieces.append(best)
                needed -= cover
                continue
            if not allow_split:
                banned.add(best)
                continue
            # Readers never feed other nodes: their overlap is extracted by
            # splitting a fresh aggregator out of their inputs (Figure 4).
            piece = self._split(best, needed)
            if piece is None:
                banned.add(best)
                continue
            pieces.append(piece)
            needed -= self.coverage[piece]
        return pieces

    def _split(self, node: int, needed: Set[int]) -> Optional[int]:
        """Reroute part of ``node``'s inputs into a new node (paper's ``v'``).

        The inputs of ``node`` whose coverage lies inside ``I(node) ∩ needed``
        are moved to a fresh partial node ``v'``, and ``v'`` becomes an input
        of ``node`` — preserving ``I(node)`` for its existing consumers while
        exposing the overlap as a reusable aggregate.  Returns ``None`` when
        no input lies cleanly inside the overlap (the caller then bans the
        node and tries the next candidate).
        """
        overlay = self.overlay
        if node not in self.pure:
            return None
        target = self.coverage[node] & needed
        movable: List[int] = []
        for src in overlay.in_rows(node)[0]:
            if src in self.pure and self.coverage[src] <= target:
                movable.append(src)
        if not movable:
            return None
        if len(movable) == 1:
            return movable[0]  # already a node computing a usable piece
        fresh = overlay.add_partial()
        for src in movable:
            overlay.remove_edge(src, node)
            overlay.add_edge(src, fresh, 1)
        overlay.add_edge(fresh, node, 1)
        cover = frozenset().union(*(self.coverage[src] for src in movable))
        self._register_partial(fresh, cover)
        return fresh

    # ------------------------------------------------------------------
    # reader management
    # ------------------------------------------------------------------

    def add_reader(self, reader: NodeId, writers: Sequence[NodeId]) -> int:
        """Add reader ``reader`` aggregating ``writers`` via greedy cover."""
        handles = {self.ensure_writer(w) for w in writers}
        r = self.overlay.add_reader(reader)
        for piece in self.cover(handles):
            self.overlay.add_edge(piece, r, 1)
        self._register_partial(r, frozenset(handles))  # readers index like partials
        return r

    def reset_reader_cover(self, reader_handle: int, writer_handles: Iterable[int]) -> None:
        """Refresh a reader's indexed coverage after incremental maintenance."""
        self._unregister(reader_handle)
        self._register_partial(reader_handle, frozenset(writer_handles))

    def remove_reader_inputs(self, reader_handle: int) -> None:
        """Detach a reader from all its inputs, pruning orphaned partials."""
        overlay = self.overlay
        self._unregister(reader_handle)
        sources = overlay.in_rows(reader_handle)[0]
        for src in sources:
            overlay.remove_edge(src, reader_handle)
        self.prune_orphans(sources)

    def prune_orphans(self, candidates: Iterable[int]) -> int:
        """Remove partial nodes left with no consumers, cascading upstream.

        Handles are tombstoned (the overlay keeps dense indices); dead nodes
        have no edges and are excluded from the indexes, so they are inert.
        Returns the number of nodes pruned.
        """
        overlay = self.overlay
        stack = [
            h
            for h in candidates
            if overlay.kinds[h] is NodeKind.PARTIAL and not overlay.out_rows(h)[0]
        ]
        pruned = 0
        while stack:
            handle = stack.pop()
            if handle in self.dead or overlay.out_rows(handle)[0]:
                continue
            sources = overlay.in_rows(handle)[0]
            for src in sources:
                overlay.remove_edge(src, handle)
            self._unregister(handle)
            self.dead.add(handle)
            pruned += 1
            for src in sources:
                if overlay.kinds[src] is NodeKind.PARTIAL and not overlay.out_rows(src)[0]:
                    stack.append(src)
        return pruned

    # ------------------------------------------------------------------
    # improvement iterations (paper: "revisit the decisions ... and do
    # local restructuring of the overlay if better decisions are found")
    # ------------------------------------------------------------------

    def improve_partials(self) -> int:
        """One improvement sweep over all partial nodes; returns #rewired.

        Splitting is disabled here so the edge delta is exactly
        ``len(pieces) − fan_in``: a rewiring is applied only when it strictly
        shrinks the overlay (splits could hide +2 edges per new node behind
        a smaller-looking piece count).
        """
        overlay = self.overlay
        rewired = 0
        for handle in list(overlay.partial_handles()):
            if handle in self.dead or not overlay.out_rows(handle)[0]:
                continue
            current_inputs = overlay.in_rows(handle)[0]
            target = self.coverage[handle]
            pieces = self.cover(
                set(target), forbid={handle}, strict_subsets=True, allow_split=False
            )
            if len(pieces) >= len(current_inputs):
                continue
            if set(pieces) == set(current_inputs):
                continue
            for src in current_inputs:
                overlay.remove_edge(src, handle)
            for piece in pieces:
                if not overlay.has_edge(piece, handle):
                    overlay.add_edge(piece, handle, 1)
            self.prune_orphans(current_inputs)
            rewired += 1
        return rewired


def build_iob(
    ag: BipartiteGraph,
    iterations: int = 3,
    num_shingles: int = 2,
    seed: int = 2014,
) -> ConstructionResult:
    """Construct an overlay with IOB (Section 3.2.5).

    The first iteration inserts readers in shingle order (similar readers
    adjacent, maximizing immediate reuse); subsequent iterations re-cover
    each partial aggregator and keep improvements.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    overlay = Overlay()
    state = IOBState(overlay)
    stats: List[IterationStats] = []

    started = time.perf_counter()
    order = shingle_order(
        dict(ag.reader_inputs), num_hashes=num_shingles, seed=seed
    )
    for writer in sorted(ag.writers, key=lambda n: (type(n).__name__, repr(n))):
        state.ensure_writer(writer)
    for reader in order:
        state.add_reader(reader, ag.reader_inputs[reader])
    stats.append(
        IterationStats(
            iteration=1,
            chunk_size=0,
            bicliques=overlay.num_partials,
            edges_saved=max(0, ag.num_edges - overlay.num_edges),
            negative_edges_added=0,
            sharing_index=overlay.sharing_index(ag),
            elapsed_seconds=time.perf_counter() - started,
            memory_estimate=overlay.memory_estimate() + 64 * len(state.coverage),
        )
    )

    for iteration in range(2, iterations + 1):
        started = time.perf_counter()
        rewired = state.improve_partials()
        stats.append(
            IterationStats(
                iteration=iteration,
                chunk_size=0,
                bicliques=rewired,
                edges_saved=max(0, ag.num_edges - overlay.num_edges),
                negative_edges_added=0,
                sharing_index=overlay.sharing_index(ag),
                elapsed_seconds=time.perf_counter() - started,
                memory_estimate=overlay.memory_estimate() + 64 * len(state.coverage),
            )
        )
        if rewired == 0:
            break

    config = VNMConfig(variant="vnm", iterations=iterations)  # placeholder config
    result = ConstructionResult(overlay=overlay, stats=stats, config=config)
    result.iob_state = state  # type: ignore[attr-defined]
    return result
