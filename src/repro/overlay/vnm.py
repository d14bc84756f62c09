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

The iterations work on the identity (direct writer→reader) overlay's
edge table (:class:`~repro.core.overlay.Overlay` stores its edges as ``src`` /
``dst`` / ``sign`` columns with an alive mask): a rewiring appends rows
and tombstones the rows it removes, in bulk, and the overlay it leaves is
the result, ``version`` and dirty set included, as edge-by-edge edits
would leave them.  Transactions for mining are the readers' *current*
positive input lists, so virtual nodes from earlier iterations
participate as items (and, for the duplicate-sensitive variants, as
transactions too — this is what creates virtual→virtual edges and hence
multi-level overlays).  They are read once per iteration from the
overlay's CSR of every handle's inputs.

``vnm`` and ``vnm_a`` mine every group's FP-tree at once as columns
(:mod:`repro.overlay.tries`).  ``vnm_n`` and ``vnm_d`` need the negative
and mined registrations of :class:`~repro.overlay.fptree.FPTree` and mine
one object tree per group.  Either way an iteration's bicliques are
applied to the overlay in one pass, in the order they were found.
"""

from __future__ import annotations

import collections
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.overlay import Overlay, memory_estimate, sharing_index
from repro.core.pullrows import csr_indptr, ragged_index
from repro.graph.bipartite import BipartiteGraph
from repro.overlay.fptree import Biclique, FPTree
from repro.overlay.shingles import HashTable, chunk, int_repr_key, order_rows
from repro.overlay.tries import GroupTries, Mined

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
    """Runs the VNM iterations over the overlay's edge table, keeping
    their state."""

    def __init__(self, ag: BipartiteGraph, config: VNMConfig) -> None:
        self.ag = ag
        self.config = config
        self.overlay = Overlay.identity(ag)
        #: handles at or above this are the partial (virtual) nodes
        self.first_partial = self.overlay.num_nodes
        #: every handle's positive inputs as a CSR ``(indptr, items)``, and
        #: whether it has a negative input, taken at each iteration's start
        self._positive: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._negative: Optional[np.ndarray] = None
        self.duplicate_insensitive = config.variant == "vnm_d"
        self._peak_tree_nodes = 0
        self._hashes = HashTable(config.num_shingles, config.seed)

    # ------------------------------------------------------------------

    def run(self) -> ConstructionResult:
        """Execute all configured iterations and collect statistics."""
        stats: List[IterationStats] = []
        chunk_size = self.config.chunk_size
        overlay, ag_edges = self.overlay, self.ag.num_edges
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
                    sharing_index=sharing_index(overlay.num_edges, ag_edges),
                    elapsed_seconds=elapsed,
                    memory_estimate=memory_estimate(overlay.num_nodes, overlay.num_edges)
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
        return ConstructionResult(overlay=overlay, stats=stats, config=self.config)

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
        indptr, src, sign = self.overlay.in_csr()
        n = len(indptr) - 1
        owner = np.repeat(np.arange(n), np.diff(indptr))
        positive = sign > 0
        counts = np.bincount(owner[positive], minlength=n)
        self._positive = csr_indptr(counts), src[positive]
        self._negative = np.bincount(owner[~positive], minlength=n) > 0
        active = counts >= 2
        if not self.config.virtual_transactions:
            active[self.first_partial :] = False
        handles = np.flatnonzero(active)
        return (handles,) + self._take(handles)

    def _take(self, handles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR of the positive inputs of ``handles``, in that order."""
        indptr, items = self._positive
        starts = indptr[handles]
        lengths = indptr[handles + 1] - starts
        return csr_indptr(lengths), items[ragged_index(starts, lengths)[0]]

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
        # groups can reuse edges; track consumed edges and, per reader, the
        # bicliques whose virtual nodes it is assigned.
        mined_edges: Dict[int, Set[int]] = {}
        vn_assignments: Dict[int, List[int]] = {}

        if config.variant in ("vnm", "vnm_a"):
            handles = handles[order]
            tries = GroupTries(
                *self._take(handles),
                handles,
                np.append(np.arange(0, len(handles), chunk_size), len(handles)),
                config.min_item_frequency,
            )
            self._peak_tree_nodes = max(self._peak_tree_nodes, tries.peak_nodes)
            found = _Found.from_mined(tries.mine())
        else:
            rows = items.tolist()
            bounds = indptr.tolist()
            transactions = {
                handle: rows[bounds[i] : bounds[i + 1]]
                for i, handle in enumerate(handles.tolist())
            }
            overlap = config.overlap if config.variant == "vnm_d" else 0.0
            negative = self._negative if config.variant == "vnm_n" else None
            bicliques: List[Biclique] = []
            for group in chunk(handles[order].tolist(), chunk_size, overlap=overlap):
                self._mine_group(
                    group, transactions, negative, bicliques, mined_edges, vn_assignments
                )
            found = _Found.from_bicliques(bicliques)

        benefit_by_width: Dict[int, int] = {}
        widths = np.diff(found.reader_indptr).tolist()
        for width, benefit in zip(widths, found.benefit.tolist()):
            benefit_by_width[width] = benefit_by_width.get(width, 0) + benefit
        outcome["bicliques"] = len(widths)
        outcome["edges_saved"] = int(found.benefit.sum())
        outcome["negative_edges"] = len(found.negatives)
        outcome["benefit_by_width"] = benefit_by_width

        if self.duplicate_insensitive:
            self._rewire_deferred(found, mined_edges, vn_assignments)
        else:
            self._rewire(found)
        return outcome

    def _mine_group(
        self,
        group: List[int],
        transactions: Dict[int, List[int]],
        negative: Optional[np.ndarray],
        found: List[Biclique],
        mined_edges: Dict[int, Set[int]],
        vn_assignments: Dict[int, List[int]],
    ) -> None:
        """Mine one group's object FP-tree (``vnm_n`` / ``vnm_d``) and
        append its bicliques to ``found``.  ``negative`` marks the handles
        that already have a negative input (``vnm_n``)."""
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
            return

        rank = {
            item: position
            for position, item in enumerate(
                sorted(eligible, key=lambda i: (-frequency[i], i))
            )
        }
        tree = FPTree(rank)
        first_partial = self.first_partial
        for reader in group:
            items = filtered.get(reader)
            if items is None:
                continue
            if config.variant == "vnm_n" and reader < first_partial and not negative[reader]:
                # A path's negative item must not already have an edge to
                # the reader (one edge per node pair): readers that carry
                # negative edges are inserted plainly, and stay minable
                # through ordinary paths.
                tree.insert_with_negatives(reader, items, k1=config.k1, k2=config.k2)
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
                for reader in biclique.readers:
                    mined_edges.setdefault(reader, set()).update(biclique.covered[reader])
                    vn_assignments.setdefault(reader, []).append(len(found))
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

    def _rewire_deferred(
        self,
        found: "_Found",
        mined_edges: Dict[int, Set[int]],
        vn_assignments: Dict[int, List[int]],
    ) -> None:
        """VNM_D: every biclique's virtual node and its item edges, then
        each reader's consumed edges replaced by edges from its virtual
        nodes."""
        count = len(found.benefit)
        first = self.overlay.num_nodes
        for _ in range(count):
            self.overlay.add_partial()
        consumed_src: List[int] = []
        consumed_dst: List[int] = []
        added_src: List[int] = []
        added_dst: List[int] = []
        for reader, consumed in mined_edges.items():
            consumed_src.extend(consumed)
            consumed_dst.extend([reader] * len(consumed))
            for index in dict.fromkeys(vn_assignments.get(reader, ())):
                added_src.append(first + index)
                added_dst.append(reader)
        src = np.concatenate((found.items, np.array(added_src, dtype=np.int64)))
        dst = np.concatenate(
            (
                np.repeat(first + np.arange(count), np.diff(found.item_indptr)),
                np.array(added_dst, dtype=np.int64),
            )
        )
        self.overlay.rewire(
            (src, dst, np.ones(len(src), dtype=np.int64)),
            (np.array(consumed_src, dtype=np.int64), np.array(consumed_dst, dtype=np.int64)),
        )

    def _rewire(self, found: "_Found") -> None:
        """Materialize duplicate-sensitive bicliques, in order: each gets a
        virtual node fed by its items, and each of its readers trades its
        covered edges for one edge from the virtual node, plus a negative
        edge from each of its negative items."""
        overlay = self.overlay
        count = len(found.benefit)
        if not count:
            return
        virtual = np.array([overlay.add_partial() for _ in range(count)], dtype=np.int64)
        item_counts = np.diff(found.item_indptr)
        owner = np.repeat(np.arange(count), np.diff(found.reader_indptr))
        readers = found.readers
        # Guard against cycles when rewiring a virtual node that was itself
        # inserted along a quasi-biclique path: every biclique item must stay
        # strictly upstream of the rewired node.
        kept = np.ones(len(readers), dtype=bool)
        partial = np.flatnonzero(readers >= self.first_partial)
        if len(partial):
            entries = ragged_index(
                found.item_indptr[owner[partial]], item_counts[owner[partial]]
            )[0]
            pair = np.repeat(partial, item_counts[owner[partial]])
            kept[pair[found.items[entries] == readers[pair]]] = False
        covered_pair = np.repeat(np.arange(len(readers)), np.diff(found.covered_indptr))
        removed = kept[covered_pair]

        # new rows, biclique by biclique: its item edges, then per kept
        # reader the virtual node's edge and the reader's negative edges
        negative_counts = np.diff(found.negative_indptr) * kept
        pair_rows = kept + negative_counts
        block = item_counts + np.bincount(owner, weights=pair_rows, minlength=count).astype(np.int64)
        block_start = np.cumsum(block) - block
        pair_offset = np.cumsum(pair_rows) - pair_rows
        pair_start = (
            block_start[owner]
            + item_counts[owner]
            + pair_offset
            - pair_offset[found.reader_indptr[:-1]][owner]
        )
        total = int(block.sum())
        src = np.empty(total, dtype=np.int64)
        dst = np.empty(total, dtype=np.int64)
        sign = np.ones(total, dtype=np.int64)
        at = ragged_index(block_start, item_counts)[0]
        src[at] = found.items
        dst[at] = np.repeat(virtual, item_counts)
        at = pair_start[kept]
        src[at] = virtual[owner[kept]]
        dst[at] = readers[kept]
        negative_pair = np.repeat(np.arange(len(readers)), np.diff(found.negative_indptr))
        negative_kept = kept[negative_pair]
        if negative_kept.any():
            negative_pair = negative_pair[negative_kept]
            at = ragged_index(pair_start[kept] + 1, negative_counts[kept])[0]
            src[at] = found.negatives[negative_kept]
            dst[at] = readers[negative_pair]
            sign[at] = -1
        overlay.rewire((src, dst, sign), (found.covered[removed], readers[covered_pair[removed]]))


class _Found(NamedTuple):
    """An iteration's bicliques as columns, in the order they are applied.

    Biclique ``b`` has items ``items[item_indptr[b]:item_indptr[b + 1]]``
    and readers ``readers[reader_indptr[b]:reader_indptr[b + 1]]``.  The
    ``p``-th (biclique, reader) pair in that order replaces the edges from
    ``covered[covered_indptr[p]:covered_indptr[p + 1]]`` and needs negative
    edges from ``negatives[negative_indptr[p]:negative_indptr[p + 1]]``.
    """

    item_indptr: np.ndarray
    items: np.ndarray
    reader_indptr: np.ndarray
    readers: np.ndarray
    covered_indptr: np.ndarray
    covered: np.ndarray
    negative_indptr: np.ndarray
    negatives: np.ndarray
    benefit: np.ndarray

    @classmethod
    def from_mined(cls, mined: Mined) -> "_Found":
        """The column miner's bicliques: every reader covers the items."""
        item_counts = np.diff(mined.item_indptr)
        owner = np.repeat(np.arange(len(item_counts)), np.diff(mined.reader_indptr))
        covered = mined.items[ragged_index(mined.item_indptr[owner], item_counts[owner])[0]]
        return cls(
            mined.item_indptr,
            mined.items,
            mined.reader_indptr,
            mined.readers,
            csr_indptr(item_counts[owner]),
            covered,
            np.zeros(len(owner) + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            mined.benefit,
        )

    @classmethod
    def from_bicliques(cls, bicliques: List[Biclique]) -> "_Found":
        """The object tree's bicliques."""
        pairs = [(b, reader) for b in bicliques for reader in b.readers]

        def column(rows):
            rows = list(rows)
            counts = np.fromiter(map(len, rows), np.int64, len(rows))
            flat = np.fromiter(itertools.chain.from_iterable(rows), np.int64, int(counts.sum()))
            return csr_indptr(counts), flat

        return cls(
            *column(b.items for b in bicliques),
            *column(b.readers for b in bicliques),
            *column(b.covered[reader] for b, reader in pairs),
            *column(b.negatives[reader] for b, reader in pairs),
            np.fromiter((b.benefit for b in bicliques), np.int64, len(bicliques)),
        )


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
