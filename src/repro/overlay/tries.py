"""FP-trees of every reader group as flat columns (``vnm`` / ``vnm_a``).

One VNM iteration mines an FP-tree per reader group (paper Section
3.2.1).  For the plain variants every group's tree is built at once, as
columns over all groups: node ``parent``, ``item``, ``depth`` and
``support``, numbered per group in creation order.  Depth by depth, the
nodes are the distinct (parent, item) pairs of the transactions' sorted
items.

The greedy extract / re-insert loop then runs only in groups whose
initial tree has a node of positive benefit ``s·(d − 1) − d``, over that
group's columns.  It reproduces :class:`~repro.overlay.fptree.FPTree`'s
``mine_best`` / ``extract`` / ``insert`` loop pick for pick.  That tree
remains the reference, and the variants with negative or mined edges
still use it.  Its tie-break rules are:

* the walk is pre-order with the newest child first, so among nodes of
  equal benefit the one whose root path, read as creation numbers
  newest-first, is lexicographically first wins (an ancestor before its
  descendants);
* extraction removes every reader at the node from its whole root path
  but keeps the emptied nodes in place;
* the extracted readers are re-inserted in ``repr`` order with their
  items below the node.  A re-insertion follows existing children, empty
  ones included, and appends new ones.

In these variants a reader at a node is at every ancestor, so each
reader's registrations are one root path (its *chain*) and a node's
support is a count.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.overlay.fptree import Biclique


class GroupTries:
    """The initial FP-tree of every reader group of one iteration.

    ``indptr`` / ``items`` are the CSR of the transactions (items are
    non-negative ints), ``readers`` their reader ids, in group order, and
    group ``g`` holds rows ``bounds[g]:bounds[g + 1]``.  An item is kept
    in a group if at least ``min_frequency`` of its transactions contain
    it; a transaction is inserted if it keeps two items.  Within a group
    items are ranked by (−frequency, item), the tree's insertion order.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        items: np.ndarray,
        readers: np.ndarray,
        bounds: np.ndarray,
        min_frequency: int,
    ) -> None:
        self._readers = readers
        num_groups = len(bounds) - 1
        txn_group = np.repeat(np.arange(num_groups), np.diff(bounds))
        txn = np.repeat(np.arange(len(readers)), np.diff(indptr))
        width = int(items.max()) + 1 if len(items) else 1

        # Per-group item frequencies; rare items cannot join a biclique of
        # width >= 2 within the group, so they keep their direct edges.
        _, inverse, counts = np.unique(
            txn_group[txn] * width + items, return_inverse=True, return_counts=True
        )
        frequency = counts[inverse]
        keep = frequency >= min_frequency
        keep &= np.bincount(txn[keep], minlength=len(readers))[txn] >= 2
        txn, items, frequency = txn[keep], items[keep], frequency[keep]
        # Each transaction's items in rank order: one sort of (txn,
        # −frequency, item) packed into an int64, unique per entry.
        rarity = int(frequency.max(initial=0)) - frequency
        levels = int(rarity.max(initial=0)) + 1
        by_rank = np.argsort((txn * levels + rarity) * width + items)
        txn, items = txn[by_rank], items[by_rank]

        # A transaction's sorted items are entries starts[t]:starts[t] +
        # lengths[t]; the one at position j sits at depth j + 1.
        lengths = np.bincount(txn, minlength=len(readers))
        starts = np.cumsum(lengths) - lengths
        position = np.arange(len(txn)) - starts[txn]
        by_depth = np.argsort(position, kind="stable")
        depth_bounds = np.searchsorted(
            position[by_depth], np.arange(int(lengths.max(initial=0)) + 1)
        )

        # Depth by depth, a node is a distinct (parent, item); the roots
        # are ids 0..num_groups - 1 and tree nodes follow.
        node_of = np.empty(len(txn), dtype=np.int64)
        parents, node_items, supports, firsts, depths = [], [], [], [], []
        next_id = num_groups
        for depth in range(1, len(depth_bounds)):
            entries = by_depth[depth_bounds[depth - 1] : depth_bounds[depth]]
            parent = txn_group[txn[entries]] if depth == 1 else node_of[entries - 1]
            _, first, inverse, support = np.unique(
                parent * width + items[entries],
                return_index=True,
                return_inverse=True,
                return_counts=True,
            )
            node_of[entries] = next_id + inverse
            parents.append(parent[first])
            node_items.append(items[entries[first]])
            supports.append(support)
            firsts.append(txn[entries[first]])
            depths.append(np.full(len(first), depth, dtype=np.int64))
            next_id += len(first)

        # Renumber the nodes in creation order, per group from 0: a node is
        # created by the first transaction that reaches it, top down.
        first_txn = _concat(firsts)
        depth = _concat(depths)
        created = np.lexsort((depth, first_txn))
        group = txn_group[first_txn[created]]
        node_bounds = np.searchsorted(group, np.arange(num_groups + 1))
        local = np.empty(len(created), dtype=np.int64)
        local[created] = np.arange(len(created)) - node_bounds[group]
        parent = _concat(parents)[created] - num_groups
        self._parent = np.where(parent < 0, -1, local[np.maximum(parent, 0)])
        self._item = _concat(node_items)[created]
        self._depth = depth[created]
        self._support = _concat(supports)[created]
        self._node_bounds = node_bounds
        self._chain_nodes = local[node_of - num_groups]
        self._lengths = lengths
        self._entry_bounds = np.concatenate(([0], np.cumsum(lengths)))[bounds]
        self._bounds = bounds

        sizes = np.diff(node_bounds)
        #: nodes in the largest group's tree
        self.peak_nodes = int(sizes.max(initial=0))
        benefit = self._support * (self._depth - 1) - self._depth
        #: groups whose initial tree has a node of positive benefit (a
        #: bincount: a plain ``np.unique`` imports ``numpy.ma`` on first use)
        self.yielding = np.flatnonzero(
            np.bincount(group[benefit >= 1], minlength=num_groups)
        )

    def bicliques(self) -> Iterator[Biclique]:
        """Every group's bicliques, group by group, in extraction order."""
        for g in self.yielding.tolist():
            yield from self._mine(g)

    def _mine(self, g: int) -> Iterator[Biclique]:
        """The greedy loop over group ``g``'s columns."""
        lo, hi = self._node_bounds[g], self._node_bounds[g + 1]
        parent = self._parent[lo:hi].tolist()
        item = self._item[lo:hi].tolist()
        depth = self._depth[lo:hi].tolist()
        support = self._support[lo:hi].tolist()
        child: Dict[Tuple[int, int], int] = {
            key: node for node, key in enumerate(zip(parent, item))
        }
        t0, t1 = self._bounds[g], self._bounds[g + 1]
        flat = self._chain_nodes[self._entry_bounds[g] : self._entry_bounds[g + 1]].tolist()
        chains: Dict[int, List[int]] = {}
        at = 0
        for reader, length in zip(
            self._readers[t0:t1].tolist(), self._lengths[t0:t1].tolist()
        ):
            if length:
                chains[reader] = flat[at : at + length]
                at += length
        # the readers by the first node of their chain
        under: Dict[int, Set[int]] = {}
        for reader, chain in chains.items():
            under.setdefault(chain[0], set()).add(reader)
        # The benefit of every node of support >= 2; no other node has a
        # positive one.
        gain = {
            node: s * (depth[node] - 1) - depth[node]
            for node, s in enumerate(support)
            if s > 1
        }

        while True:
            best = max(gain.values(), default=0)
            if best < 1:
                return
            ties = [node for node, benefit in gain.items() if benefit == best]
            top = ties[0] if len(ties) == 1 else min(ties, key=_preorder_key(parent))
            d = depth[top]
            head = top
            while parent[head] >= 0:
                head = parent[head]
            readers = sorted(
                (r for r in under[head] if len(chains[r]) >= d and chains[r][d - 1] == top),
                key=repr,
            )
            path = chains[readers[0]][:d]
            rests = []
            for reader in readers:
                under[head].discard(reader)
                rests.append(chains.pop(reader)[d:])
            for nodes, count in [(path, len(readers))] + [(rest, 1) for rest in rests]:
                for node in nodes:
                    s = support[node] = support[node] - count
                    if s > 1:
                        gain[node] = s * (depth[node] - 1) - depth[node]
                    elif node in gain:
                        del gain[node]
            items = [item[node] for node in path]
            yield Biclique(
                items=items,
                readers=readers,
                covered=dict.fromkeys(readers, items),
                negatives={reader: [] for reader in readers},
                reused={reader: [] for reader in readers},
                benefit=best,
            )
            for reader, rest in zip(readers, rests):
                if len(rest) < 2:
                    continue
                node, chain = -1, []
                for x in rest:
                    below = child.get((node, item[x]))
                    if below is None:
                        break
                    node = below
                    s = support[node] = support[node] + 1
                    if s > 1:
                        gain[node] = s * (depth[node] - 1) - depth[node]
                    chain.append(node)
                # The first missing child starts a new branch: the rest of
                # the items hang below it as fresh nodes of support 1.
                new = len(rest) - len(chain)
                if new:
                    first = len(parent)
                    parent.append(node)
                    parent.extend(range(first, first + new - 1))
                    item.extend([item[x] for x in rest[len(chain) :]])
                    depth.extend(range(len(chain) + 1, len(rest) + 1))
                    support.extend([1] * new)
                    created = range(first, first + new)
                    child.update(zip(zip(parent[first:], item[first:]), created))
                    chain.extend(created)
                chains[reader] = chain
                under.setdefault(chain[0], set()).add(reader)


def _preorder_key(parent: List[int]):
    """Key putting nodes in the tree walk's pre-order, newest child first:
    the root path's creation numbers, negated."""

    def key(node: int) -> List[int]:
        path = []
        while node >= 0:
            path.append(-node)
            node = parent[node]
        path.reverse()
        return path

    return key


def _concat(columns: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(columns) if columns else np.zeros(0, dtype=np.int64)
