"""VNM-family overlay construction (paper Sections 3.2.1–3.2.4).

Four variants share one driver:

* ``vnm`` — the baseline Virtual Node Mining adaptation of Buehrer &
  Chellapilla: shingle-sort the readers, chunk them into fixed-size groups,
  mine each group's FP-tree, and replace mined bicliques with partial
  aggregation (virtual) nodes.  Iterating re-mines the rewritten graph,
  producing multi-level overlays.
* ``vnm_a`` — *adaptive* chunk sizing: start large (default 100) and shrink
  the chunk between iterations to the smallest ``c`` that would have kept
  90% of the iteration's benefit (Section 3.2.2), so early iterations catch
  big bicliques and later ones catch the small leftovers.
* ``vnm_n`` — quasi-bicliques via *negative edges* (Section 3.2.3): readers
  are inserted along up to ``k1`` tree paths allowing at most ``k2`` items
  they do not actually contain; such items are subtracted through negative
  overlay edges.  Only valid for subtractable aggregates.
* ``vnm_d`` — duplicate-insensitive mining (Section 3.2.4): reader groups
  overlap by ``p%`` and mined edges stay available (tracked in the tree's
  mined sets, charged by the benefit function), so bicliques may reuse
  edges, which is safe for MAX-like aggregates.

The driver operates directly on an :class:`~repro.core.overlay.Overlay`
seeded with the identity (direct writer→reader) edges; transactions for
mining are the readers' *current* positive input lists, so virtual nodes
from earlier iterations participate as items (and, for the duplicate-
sensitive variants, as transactions too — this is what creates
virtual→virtual edges and hence multi-level overlays).

The transactions are a CSR kept across iterations: a rewiring marks the
readers it touched and only their rows, and the new virtual nodes', are
re-read.  ``vnm`` and ``vnm_a`` build every group's FP-tree at once as
columns (:mod:`repro.overlay.tries`).  ``vnm_n`` and ``vnm_d`` need the
negative and mined registrations of :class:`~repro.overlay.fptree.FPTree`
and mine one object tree per group.  Both produce the same
:class:`~repro.overlay.fptree.Biclique` records.
"""

from __future__ import annotations

import collections
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.overlay import NodeKind, Overlay
from repro.graph.bipartite import BipartiteGraph
from repro.overlay.fptree import Biclique, FPTree
from repro.overlay.shingles import HashTable, chunk, int_repr_key, order_rows
from repro.overlay.tries import GroupTries

_VARIANTS = ("vnm", "vnm_a", "vnm_n", "vnm_d")


@dataclass
class VNMConfig:
    """Tunable parameters for the VNM family."""

    variant: str = "vnm_a"
    chunk_size: int = 100
    iterations: int = 10
    #: VNM_A: keep the smallest chunk preserving this benefit fraction.
    adapt_keep_fraction: float = 0.9
    #: Lower clamp for adaptive chunk shrinking.  Small is good here:
    #: tiny groups make the in-group frequency order put the readers'
    #: intersection first, aligning prefixes perfectly (pairwise merging,
    #: stacked into multi-level overlays across iterations).
    min_chunk_size: int = 3
    #: VNM_N: number of tree paths a reader may be inserted along.
    k1: int = 2
    #: VNM_N: maximum negative edges per quasi-biclique path.  The paper
    #: uses 5 on graphs three orders of magnitude larger; at our reader-group
    #: sizes quasi-bicliques stay profitable only when nearly complete, so
    #: the default is tighter (Figure 11(b)'s sweep covers 0..5).
    k2: int = 3
    #: VNM_D: fraction of readers shared by consecutive groups.
    overlap: float = 0.2
    #: Items must appear in at least this many of a group's transactions.
    min_item_frequency: int = 2
    num_shingles: int = 2
    seed: int = 2014
    #: Mine virtual nodes' own input lists as transactions (multi-level).
    virtual_transactions: bool = True

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if self.chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.adapt_keep_fraction <= 1.0:
            raise ValueError("adapt_keep_fraction must be in (0, 1]")


@dataclass
class IterationStats:
    """Per-iteration telemetry (drives Figures 8, 9, 10)."""

    iteration: int
    chunk_size: int
    bicliques: int
    edges_saved: int
    negative_edges_added: int
    sharing_index: float
    elapsed_seconds: float
    memory_estimate: int
    benefit_by_width: Dict[int, int] = field(default_factory=dict)


@dataclass
class ConstructionResult:
    """An overlay plus the per-iteration statistics of its construction."""

    overlay: Overlay
    stats: List[IterationStats]
    config: VNMConfig

    @property
    def sharing_index_trace(self) -> List[float]:
        """Sharing index after each iteration (Figure 8's series)."""
        return [s.sharing_index for s in self.stats]

    @property
    def total_seconds(self) -> float:
        """Total construction wall time across iterations."""
        return sum(s.elapsed_seconds for s in self.stats)


def build_vnm(ag: BipartiteGraph, config: Optional[VNMConfig] = None, **overrides) -> ConstructionResult:
    """Construct an overlay for ``ag`` with the configured VNM variant."""
    if config is None:
        config = VNMConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    builder = _VNMBuilder(ag, config)
    return builder.run()


class _VNMBuilder:
    """Stateful driver running VNM iterations over a working overlay."""

    def __init__(self, ag: BipartiteGraph, config: VNMConfig) -> None:
        self.ag = ag
        self.config = config
        self.overlay = Overlay.identity(ag)
        self.duplicate_insensitive = config.variant == "vnm_d"
        self._peak_tree_nodes = 0
        self._rows = _Rows(self.overlay)
        #: handles whose inputs this iteration rewired
        self._touched: Set[int] = set()
        #: handles from here on are partial (virtual) nodes
        self._first_partial = self.overlay.num_nodes
        #: The overlay's own int object of each handle.  Mined ids come out
        #: of numpy as fresh ints; edges are added with these instead, so
        #: the overlay's dicts hold one object per node, not one per edge.
        overlay = self.overlay
        self._handles = sorted(
            itertools.chain(overlay.writer_of.values(), overlay.reader_of.values())
        )
        self._hashes = HashTable(config.num_shingles, config.seed)

    # ------------------------------------------------------------------

    def run(self) -> ConstructionResult:
        """Execute all configured iterations and collect statistics."""
        stats: List[IterationStats] = []
        chunk_size = self.config.chunk_size
        for iteration in range(1, self.config.iterations + 1):
            started = time.perf_counter()
            outcome = self._run_iteration(chunk_size)
            elapsed = time.perf_counter() - started
            stats.append(
                IterationStats(
                    iteration=iteration,
                    chunk_size=chunk_size,
                    bicliques=outcome["bicliques"],
                    edges_saved=outcome["edges_saved"],
                    negative_edges_added=outcome["negative_edges"],
                    sharing_index=self.overlay.sharing_index(self.ag),
                    elapsed_seconds=elapsed,
                    memory_estimate=self.overlay.memory_estimate()
                    + self._peak_tree_nodes * 200,
                    benefit_by_width=outcome["benefit_by_width"],
                )
            )
            if outcome["bicliques"] == 0:
                break
            # VNM_N and VNM_D "employ the same basic structure as the VNM_A
            # algorithm" (Sections 3.2.3/3.2.4): all variants except the
            # fixed-chunk baseline adapt their chunk size between iterations.
            if self.config.variant != "vnm":
                chunk_size = max(
                    self.config.min_chunk_size,
                    _adapt_chunk_size(
                        chunk_size,
                        outcome["benefit_by_width"],
                        self.config.adapt_keep_fraction,
                    ),
                )
        return ConstructionResult(overlay=self.overlay, stats=stats, config=self.config)

    # ------------------------------------------------------------------

    def _transactions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current positive input lists of readers (and virtual nodes):
        their handles, in handle order, and their rows as a CSR.

        Virtual nodes participate as transactions in every variant — this is
        what creates virtual→virtual edges and hence multi-level overlays.
        They are always inserted *plainly* (never along quasi-biclique
        paths), which keeps every item they can be covered by strictly
        upstream of them, so rewiring can never create a cycle.
        """
        self._rows.update(self.overlay, self._touched)
        self._touched.clear()
        active = np.diff(self._rows.indptr) >= 2
        if not self.config.virtual_transactions:
            active[self._first_partial :] = False
        handles = np.flatnonzero(active)
        return (handles,) + self._rows.take(handles)

    def _run_iteration(self, chunk_size: int) -> Dict[str, object]:
        config = self.config
        handles, indptr, items = self._transactions()
        outcome: Dict[str, object] = {
            "bicliques": 0,
            "edges_saved": 0,
            "negative_edges": 0,
            "benefit_by_width": {},
        }
        if not len(handles):
            return outcome
        order = order_rows(indptr, items, int_repr_key(handles), self._hashes)

        # VNM_D defers rewiring to the end of the iteration so overlapping
        # groups can reuse edges; track consumed edges and vn assignments.
        mined_edges: Dict[int, Set[int]] = {}
        vn_assignments: Dict[int, List[int]] = {}

        if config.variant in ("vnm", "vnm_a"):
            handles = handles[order]
            tries = GroupTries(
                *self._rows.take(handles),
                handles,
                np.append(np.arange(0, len(handles), chunk_size), len(handles)),
                config.min_item_frequency,
            )
            self._peak_tree_nodes = max(self._peak_tree_nodes, tries.peak_nodes)
            found: Iterable[Biclique] = tries.bicliques()
        else:
            rows = items.tolist()
            bounds = indptr.tolist()
            transactions = {
                handle: rows[bounds[i] : bounds[i + 1]]
                for i, handle in enumerate(handles.tolist())
            }
            overlap = config.overlap if config.variant == "vnm_d" else 0.0
            groups = chunk(handles[order].tolist(), chunk_size, overlap=overlap)
            found = itertools.chain.from_iterable(
                self._mine_group(group, transactions, mined_edges, vn_assignments)
                for group in groups
            )

        benefit_by_width: Dict[int, int] = {}
        for biclique in found:
            if not self.duplicate_insensitive:
                self._apply_biclique(biclique)
            outcome["bicliques"] += 1  # type: ignore[operator]
            outcome["edges_saved"] += biclique.benefit  # type: ignore[operator]
            outcome["negative_edges"] += sum(  # type: ignore[operator]
                len(v) for v in biclique.negatives.values()
            )
            width = biclique.width
            benefit_by_width[width] = benefit_by_width.get(width, 0) + biclique.benefit
        outcome["benefit_by_width"] = benefit_by_width

        if self.duplicate_insensitive:
            self._apply_deferred_rewiring(mined_edges, vn_assignments)
        return outcome

    def _mine_group(
        self,
        group: List[int],
        transactions: Dict[int, List[int]],
        mined_edges: Dict[int, Set[int]],
        vn_assignments: Dict[int, List[int]],
    ) -> List[Biclique]:
        config = self.config
        # Per-group item frequencies; rare items cannot join a biclique of
        # width >= 2 within this group, so they are filtered out (they keep
        # their direct overlay edges).
        frequency = collections.Counter(
            itertools.chain.from_iterable(transactions[reader] for reader in group)
        )
        eligible = {
            item for item, f in frequency.items() if f >= config.min_item_frequency
        }
        filtered: Dict[int, List[int]] = {}
        for reader in group:
            items = [i for i in transactions[reader] if i in eligible]
            if len(items) >= 2:
                filtered[reader] = items
        if not filtered:
            return []

        rank = {
            item: position
            for position, item in enumerate(
                sorted(eligible, key=lambda i: (-frequency[i], i))
            )
        }
        tree = FPTree(rank)  # vnm_n / vnm_d only
        for reader in group:
            items = filtered.get(reader)
            if items is None:
                continue
            is_partial = self.overlay.kinds[reader] is NodeKind.PARTIAL
            if config.variant == "vnm_n" and not is_partial:
                forbidden = {
                    src
                    for src, sign in self.overlay.inputs[reader].items()
                    if sign < 0
                }
                self._insert_with_negatives(tree, reader, items, forbidden)
            elif config.variant == "vnm_d":
                tree.insert(reader, items, mined_items=mined_edges.get(reader, ()))
            else:
                tree.insert(reader, items)
        self._peak_tree_nodes = max(self._peak_tree_nodes, tree.num_nodes)

        # Mine the tree repeatedly.  Extraction removes the consumed readers
        # from the tree (duplicate-sensitive modes); re-inserting them with
        # their *remaining* items keeps mining "the same FP-tree ... with
        # lower benefit" as the paper describes, instead of forfeiting the
        # rest of their sharing potential for this group.
        live_items: Dict[int, Set[int]] = {r: set(items) for r, items in filtered.items()}
        found: List[Biclique] = []
        skip: Set[int] = set()
        while True:
            candidate = tree.mine_best(skip)
            if candidate is None:
                break
            biclique = tree.extract(
                candidate, duplicate_insensitive=self.duplicate_insensitive
            )
            if biclique is None:
                skip.add(id(candidate.node))
                continue
            if self.duplicate_insensitive:
                self._record_deferred(biclique, mined_edges, vn_assignments)
            else:
                for reader in biclique.readers:
                    remaining = live_items.get(reader)
                    if remaining is None:
                        continue
                    remaining -= set(biclique.covered[reader])
                    if len(remaining) >= 2:
                        tree.insert(reader, remaining)
                # Re-insertions can raise supports at previously-skipped
                # nodes, so give them another chance.
                skip.clear()
            found.append(biclique)
        return found

    def _insert_with_negatives(
        self,
        tree: FPTree,
        reader: int,
        items: List[int],
        forbidden_negatives: Set[int],
    ) -> None:
        """VNM_N insertion with an overlay-consistency guard.

        A candidate path is unusable if one of its negative items already has
        a (negative) direct edge to the reader — the overlay permits one edge
        per node pair.  We enforce this by filtering candidates post-hoc via
        a wrapped insert; in practice collisions are rare, so the simple
        approach of delegating and cleaning up is sufficient.
        """
        if not forbidden_negatives:
            tree.insert_with_negatives(
                reader, items, k1=self.config.k1, k2=self.config.k2
            )
            return
        # Conservative fallback: readers that already carry negative edges
        # are inserted plainly; they remain minable through ordinary paths.
        tree.insert(reader, items)

    # ------------------------------------------------------------------
    # overlay rewiring
    # ------------------------------------------------------------------

    def _apply_biclique(self, biclique: Biclique) -> bool:
        """Materialize a duplicate-sensitive biclique in the overlay."""
        overlay, handle = self.overlay, self._handles
        virtual = self._add_partial()
        for item in biclique.items:
            overlay.add_edge(handle[item], virtual, 1)
        for reader in biclique.readers:
            if overlay.kinds[reader] is NodeKind.PARTIAL:
                # Guard against cycles when rewiring a virtual node that was
                # itself inserted along a quasi-biclique path: every biclique
                # item must stay strictly upstream of the rewired node.
                if any(item == reader for item in biclique.items):
                    continue
            for item in biclique.covered[reader]:
                overlay.remove_edge(item, reader)
            overlay.add_edge(virtual, handle[reader], 1)
            self._touched.add(reader)
            for item in biclique.negatives[reader]:
                overlay.add_edge(handle[item], handle[reader], -1)
        return True

    def _add_partial(self) -> int:
        virtual = self.overlay.add_partial()
        self._handles.append(virtual)
        return virtual

    def _record_deferred(
        self,
        biclique: Biclique,
        mined_edges: Dict[int, Set[int]],
        vn_assignments: Dict[int, List[int]],
    ) -> bool:
        """VNM_D: create the virtual node now, rewire readers at iteration end."""
        virtual = self._add_partial()
        for item in biclique.items:
            self.overlay.add_edge(self._handles[item], virtual, 1)
        for reader in biclique.readers:
            mined_edges.setdefault(reader, set()).update(biclique.covered[reader])
            vn_assignments.setdefault(reader, []).append(virtual)
        return True

    def _apply_deferred_rewiring(
        self,
        mined_edges: Dict[int, Set[int]],
        vn_assignments: Dict[int, List[int]],
    ) -> None:
        overlay = self.overlay
        self._touched.update(mined_edges)
        for reader, consumed in mined_edges.items():
            for item in consumed:
                if overlay.has_edge(item, reader):
                    overlay.remove_edge(item, reader)
            for virtual in vn_assignments.get(reader, ()):
                if not overlay.has_edge(virtual, reader):
                    overlay.add_edge(virtual, self._handles[reader], 1)


class _Rows:
    """Every overlay handle's positive inputs, in the order of its inputs
    dict, as a CSR kept across iterations.

    It is read from the overlay once; after that :meth:`update` re-reads
    only the rows of handles the builder rewired and of new nodes.
    """

    def __init__(self, overlay: Overlay) -> None:
        rows = [_positive(inputs) for inputs in overlay.inputs]
        self.indptr = _indptr(np.fromiter(map(len, rows), np.int64, len(rows)))
        self.items = np.fromiter(
            itertools.chain.from_iterable(rows), np.int64, int(self.indptr[-1])
        )

    def take(self, handles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR of the rows of ``handles``, in that order."""
        starts = self.indptr[handles]
        lengths = self.indptr[handles + 1] - starts
        return _indptr(lengths), self.items[_ranges(starts, lengths)]

    def update(self, overlay: Overlay, touched: Set[int]) -> None:
        """Re-read the rows of ``touched`` handles and add new handles' rows."""
        known = len(self.indptr) - 1
        changed = np.array(
            sorted(touched.union(range(known, overlay.num_nodes))), dtype=np.int64
        )
        if not len(changed):
            return
        rows = [_positive(overlay.inputs[handle]) for handle in changed.tolist()]
        lengths = np.zeros(overlay.num_nodes, dtype=np.int64)
        lengths[:known] = np.diff(self.indptr)
        stays = np.ones(known, dtype=bool)
        stays[changed[changed < known]] = False
        stays = np.flatnonzero(stays)
        lengths[changed] = np.fromiter(map(len, rows), np.int64, len(rows))
        indptr = _indptr(lengths)
        items = np.empty(int(indptr[-1]), dtype=np.int64)
        kept = lengths[stays]
        items[_ranges(indptr[stays], kept)] = self.items[_ranges(self.indptr[stays], kept)]
        items[_ranges(indptr[changed], lengths[changed])] = np.fromiter(
            itertools.chain.from_iterable(rows), np.int64
        )
        self.indptr, self.items = indptr, items


def _positive(inputs: Dict[int, int]) -> List[int]:
    return [src for src, sign in inputs.items() if sign > 0]


def _indptr(lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``starts[i]:starts[i] + lengths[i]``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _adapt_chunk_size(
    current: int, benefit_by_width: Dict[int, int], keep_fraction: float
) -> int:
    """VNM_A chunk adaptation (Section 3.2.2).

    Choose the smallest ``c <= current`` such that bicliques of width ``<= c``
    delivered more than ``keep_fraction`` of this iteration's total benefit.
    """
    if not benefit_by_width:
        return current
    total = sum(benefit_by_width.values())
    if total <= 0:
        return current
    threshold = keep_fraction * total
    running = 0
    for width in sorted(benefit_by_width):
        running += benefit_by_width[width]
        if running > threshold:
            return max(2, min(current, width))
    return current
