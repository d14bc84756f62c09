"""FP-tree construction and biclique mining (paper Sections 3.2.1–3.2.4).

The VNM family of overlay-construction algorithms finds bicliques in the
bipartite graph ``AG`` by building an FP-tree over a *group* of readers
(transactions) whose items are their input writers, then repeatedly
extracting the root-path with the highest *benefit*

    ``benefit(P) = L(P)·|S(P)| − L(P) − |S(P)| − penalties``

where ``L`` is the path length, ``S`` the support at the path's last node,
and penalties account for negative edges (``VNM_N``) or reused/mined edges
(``VNM_D``).  The benefit is exactly the number of overlay edges saved by
replacing the biclique with one partial-aggregation node.

This module implements one object tree supporting all three modes.
``VNM_N`` and ``VNM_D`` mine with it; ``VNM`` / ``VNM_A`` build their trees
as columns (:mod:`repro.overlay.tries`), and their tests check those
against this tree's plain mode, pick for pick:

* plain insertion,
* insertion along up to ``k1`` additional quasi-biclique paths with at most
  ``k2`` negative edges each (``VNM_N``, Section 3.2.3) — tree nodes carry a
  second support set ``S'`` of readers that do *not* contain the node's item,
* mined-edge tracking (``VNM_D``, Section 3.2.4) — tree nodes carry a third
  set ``S_mined`` of readers whose edge to the item was already consumed by
  an earlier biclique, which the benefit function charges for.

Mining follows the paper's note that re-mining the same tree finds
progressively lower-benefit bicliques: after each extraction the consumed
readers are removed from the whole tree (duplicate-sensitive modes) or their
edges moved to the mined sets (duplicate-insensitive mode), and mining
continues until no positive-benefit path remains.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Item = Hashable
Reader = Hashable


class FPNode:
    """One tree node: an item plus the readers supporting it at this path."""

    __slots__ = (
        "item", "parent", "depth", "children", "support", "neg_support", "mined_support"
    )

    def __init__(self, item: Optional[Item], parent: Optional["FPNode"]) -> None:
        self.item = item
        self.parent = parent
        #: path length from the root (the root is 0)
        self.depth: int = 0 if parent is None else parent.depth + 1
        self.children: Dict[Item, FPNode] = {}
        self.support: Set[Reader] = set()
        self.neg_support: Set[Reader] = set()
        self.mined_support: Set[Reader] = set()

    def total_support(self) -> int:
        return len(self.support) + len(self.neg_support) + len(self.mined_support)

    def path_items(self) -> List[Item]:
        """Items from the root (exclusive) down to this node, in order."""
        items: List[Item] = []
        node: Optional[FPNode] = self
        while node is not None and node.item is not None:
            items.append(node.item)
            node = node.parent
        items.reverse()
        return items


@dataclass
class MineCandidate:
    """A candidate biclique located by :meth:`FPTree.mine_best`."""

    node: FPNode
    approx_benefit: float


@dataclass
class Biclique:
    """An extracted biclique, ready to become a partial-aggregation node.

    ``items`` are the path items (the new node's inputs); for each reader,
    ``covered`` lists the items whose direct edges this biclique replaces,
    ``negatives`` the items requiring a negative edge (``VNM_N``), and
    ``reused`` the items that were already covered earlier (``VNM_D``; they
    are inside the new node's aggregate but replaced no edge).
    """

    items: List[Item]
    readers: List[Reader]
    covered: Dict[Reader, List[Item]] = field(default_factory=dict)
    negatives: Dict[Reader, List[Item]] = field(default_factory=dict)
    reused: Dict[Reader, List[Item]] = field(default_factory=dict)
    benefit: int = 0

    @property
    def width(self) -> int:
        return len(self.readers)

    @property
    def length(self) -> int:
        return len(self.items)


class FPTree:
    """An FP-tree over one reader group.

    Parameters
    ----------
    item_rank:
        Total order on items; transactions are inserted with their items
        sorted by ascending rank so shared prefixes align.  Following
        standard FP-tree practice, callers assign low ranks to
        high-frequency items.
    """

    def __init__(self, item_rank: Dict[Item, int]) -> None:
        self._rank = item_rank
        self.root = FPNode(None, None)
        self._registry: Dict[Reader, Set[FPNode]] = collections.defaultdict(set)
        self._num_nodes = 0
        #: whether any node ever held a negative or mined registration;
        #: until then every support set contains its children's.
        self._penalised = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _sorted(self, items: Iterable[Item]) -> List[Item]:
        return sorted(items, key=self._rank.__getitem__)

    def _register(self, reader: Reader, node: FPNode, kind: str) -> None:
        if kind != "support":
            self._penalised = True
        getattr(node, kind).add(reader)
        self._registry[reader].add(node)

    def _extend_branch(
        self,
        start: FPNode,
        reader: Reader,
        items: Sequence[Item],
        mined: Optional[Set[Item]] = None,
    ) -> None:
        """Register ``reader`` along ``items`` below ``start``, following
        existing children and creating missing ones; items in ``mined``
        go to ``mined_support``, the rest to ``support``."""
        if not items:
            return
        registered = self._registry[reader]
        node = start
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, node)
                node.children[item] = child
                self._num_nodes += 1
            if mined and item in mined:
                child.mined_support.add(reader)
                self._penalised = True
            else:
                child.support.add(reader)
            registered.add(child)
            node = child

    def insert(
        self,
        reader: Reader,
        items: Iterable[Item],
        mined_items: Iterable[Item] = (),
    ) -> None:
        """Standard insertion: walk the longest matching prefix, then branch.

        ``mined_items`` (``VNM_D``) is the subset of ``items`` whose edges
        were consumed by an earlier biclique this iteration; the reader is
        registered in ``mined_support`` at those nodes instead.
        """
        self._extend_branch(self.root, reader, self._sorted(items), set(mined_items))

    def insert_with_negatives(
        self,
        reader: Reader,
        items: Iterable[Item],
        k1: int = 2,
        k2: int = 5,
        min_gain: int = 2,
    ) -> None:
        """``VNM_N`` insertion: the standard path plus up to ``k1 − 1``
        quasi-biclique paths using at most ``k2`` negative edges each.

        A candidate path's *gain* is ``|P ∩ items| − |P \\ items|`` — edges it
        could save minus negative edges it would introduce.  Exploration is
        breadth-first and abandons a subtree once it exceeds ``k2`` negatives
        (the paper's efficiency cutoff).
        """
        item_set = set(items)
        # Collect candidates before the standard insert so the reader's own
        # fresh branch does not pollute the search.
        candidates: List[Tuple[int, int, FPNode]] = []
        queue: collections.deque = collections.deque(
            (child, 0, 0) for child in self.root.children.values()
        )
        while queue:
            node, gain, negatives = queue.popleft()
            if node.item in item_set:
                gain += 1
            else:
                negatives += 1
                gain -= 1
            if negatives > k2:
                continue
            if negatives >= 1 and gain >= min_gain and node.total_support() >= 1:
                candidates.append((gain, negatives, node))
            for child in node.children.values():
                queue.append((child, gain, negatives))

        self.insert(reader, items)

        candidates.sort(key=lambda entry: (-entry[0], entry[1]))
        for gain, _, node in candidates[: max(0, k1 - 1)]:
            path_nodes: List[FPNode] = []
            cursor: Optional[FPNode] = node
            while cursor is not None and cursor.item is not None:
                path_nodes.append(cursor)
                cursor = cursor.parent
            path_nodes.reverse()
            for path_node in path_nodes:
                if path_node.item in item_set:
                    self._register(reader, path_node, "support")
                else:
                    self._register(reader, path_node, "neg_support")
            path_items = {n.item for n in path_nodes}
            remaining = [item for item in self._sorted(item_set) if item not in path_items]
            self._extend_branch(node, reader, remaining)

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------

    def mine_best(self, skip: Optional[Set[int]] = None) -> Optional[MineCandidate]:
        """Locate the root-path with the best benefit.

        The paper scores a path as ``L·|S| − L − |S| − Σ_P |S'(x)|`` —
        charging *every* negative/mined registration on the path, including
        readers that do not survive to the path's end.  On small reader
        groups that approximation drowns long clean paths in unrelated
        penalties, so we compute the exact quantity extraction will use:
        per surviving reader, ``saving(r) = pos(r) − 1 − neg(r)`` (readers
        with non-positive saving are left out), and the path's benefit is
        ``Σ_r max(saving, 0) − L``.  A reader present at a node is present
        at every ancestor, so ``pos(r) = L − neg(r) − mined(r)`` and
        ``saving(r) = L − 1 − (2·neg(r) + mined(r))``.

        The bracket is each reader's *penalty*, kept along the DFS for
        the readers whose path has a negative or mined registration and
        unwound on backtrack.  Every other reader at the node is a
        support reader saving ``L − 1``, so a node starts from
        ``|S|·(L − 1) − L`` — its exact benefit on a clean path, at O(1)
        — and only the penalised readers are walked to correct it.  A
        reader counts once for ``S`` and once more if it is also in ``S'``
        or ``S_mined`` at the node.

        In a tree that never held a negative or mined registration
        (``vnm``, ``vnm_a``) a reader at a node is in the support of every
        ancestor, so support only shrinks down a path: a node with fewer
        than two readers scores at most ``−1``, and so does its whole
        subtree, which the walk skips.
        """
        best: Optional[MineCandidate] = None
        prune = not self._penalised
        penalty: Dict[Reader, int] = {}

        def charge(node: FPNode, sign: int) -> None:
            for weight, readers in ((2, node.neg_support), (1, node.mined_support)):
                for reader in readers:
                    total = penalty.get(reader, 0) + sign * weight
                    if total:
                        penalty[reader] = total
                    else:
                        del penalty[reader]

        # Iterative DFS.  A node with penalised registrations charges them
        # on entry and marks the stack height below its subtree; they are
        # refunded once the stack is back at that height.
        stack: List[FPNode] = list(self.root.children.values())
        marks: List[Tuple[int, FPNode]] = []
        while stack:
            while marks and len(stack) <= marks[-1][0]:
                charge(marks.pop()[1], -1)
            node = stack.pop()
            support = node.support
            if prune and len(support) < 2:
                continue
            depth = node.depth
            negs, mined = node.neg_support, node.mined_support
            if negs or mined:
                charge(node, 1)
                marks.append((len(stack), node))
            benefit = len(support) * (depth - 1) - depth
            if penalty:
                for reader, cost in penalty.items():
                    saving = max(depth - 1 - cost, 0)
                    if reader in support:
                        benefit += saving - (depth - 1)
                    if reader in negs or reader in mined:
                        benefit += saving
            if (
                benefit >= 1
                and (skip is None or id(node) not in skip)
                and (best is None or benefit > best.approx_benefit)
            ):
                best = MineCandidate(node=node, approx_benefit=benefit)
            stack.extend(node.children.values())
        return best

    def extract(
        self,
        candidate: MineCandidate,
        duplicate_insensitive: bool = False,
        min_benefit: int = 1,
    ) -> Optional[Biclique]:
        """Materialize ``candidate`` with exact per-reader accounting.

        Readers whose individual saving is non-positive are left out.  If the
        resulting exact benefit falls below ``min_benefit`` the extraction is
        abandoned and ``None`` is returned (the caller should skip the node).
        On success the tree is updated: consumed readers are removed entirely
        (duplicate-sensitive) or their path edges moved to the mined sets
        (duplicate-insensitive).
        """
        node = candidate.node
        path_nodes: List[FPNode] = []
        cursor: Optional[FPNode] = node
        while cursor is not None and cursor.item is not None:
            path_nodes.append(cursor)
            cursor = cursor.parent
        path_nodes.reverse()
        items = [n.item for n in path_nodes]

        at_end = node.support | node.neg_support | node.mined_support
        kept: List[Reader] = []
        covered: Dict[Reader, List[Item]] = {}
        negatives: Dict[Reader, List[Item]] = {}
        reused: Dict[Reader, List[Item]] = {}
        total_saving = 0
        for reader in sorted(at_end, key=lambda r: (type(r).__name__, repr(r))):
            pos: List[Item] = []
            neg: List[Item] = []
            old: List[Item] = []
            for path_node in path_nodes:
                if reader in path_node.support:
                    pos.append(path_node.item)
                elif reader in path_node.neg_support:
                    neg.append(path_node.item)
                elif reader in path_node.mined_support:
                    old.append(path_node.item)
            saving = len(pos) - 1 - len(neg)
            if saving <= 0:
                continue
            kept.append(reader)
            covered[reader] = pos
            negatives[reader] = neg
            reused[reader] = old
            total_saving += saving

        benefit = total_saving - len(items)
        if benefit < min_benefit or not kept:
            return None

        if duplicate_insensitive:
            self._penalised = True
            for reader in kept:
                for path_node in path_nodes:
                    if reader in path_node.support:
                        path_node.support.discard(reader)
                        path_node.mined_support.add(reader)
        else:
            for reader in kept:
                self.remove_reader(reader)

        return Biclique(
            items=items,
            readers=kept,
            covered=covered,
            negatives=negatives,
            reused=reused,
            benefit=benefit,
        )

    def remove_reader(self, reader: Reader) -> None:
        """Erase every registration of ``reader`` from the tree."""
        for node in self._registry.pop(reader, ()):
            node.support.discard(reader)
            node.neg_support.discard(reader)
            node.mined_support.discard(reader)

    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FPTree(nodes={self._num_nodes}, readers={len(self._registry)})"


def mine_all(
    tree: FPTree,
    duplicate_insensitive: bool = False,
    min_benefit: int = 1,
) -> Iterable[Biclique]:
    """Repeatedly extract the best biclique until none remains profitable."""
    skip: Set[int] = set()
    while True:
        candidate = tree.mine_best(skip)
        if candidate is None:
            return
        biclique = tree.extract(
            candidate,
            duplicate_insensitive=duplicate_insensitive,
            min_benefit=min_benefit,
        )
        if biclique is None:
            skip.add(id(candidate.node))
            continue
        yield biclique
