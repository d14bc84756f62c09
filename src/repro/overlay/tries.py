"""FP-trees of every reader group as flat columns (``vnm`` / ``vnm_a``).

One VNM iteration mines an FP-tree per reader group (paper Section
3.2.1).  For the plain variants every group's tree is built at once, as
columns over all groups: node ``parent``, ``item``, ``depth`` and
``support``.  Depth by depth, the nodes are the distinct (parent, item)
pairs of the transactions' sorted items.  Nodes are numbered in creation
order, group after group, and nodes created later are appended, so within
a group a higher number is a newer node.

The greedy extract / re-insert loop then runs for every group at once,
one step per round.  A round

1. takes every live group's best node: the largest benefit
   ``s·(d − 1) − d`` over its nodes of support ``s >= 2`` (a segmented
   maximum), ties broken by one sort over the tied nodes' root paths;
2. extracts, in every group that has a node of benefit >= 1, the readers
   whose chain passes through it, and emits one biclique per group;
3. re-inserts all their rests of two or more items in one pass, depth by
   depth over every group: a reader follows existing children while it
   can, and the readers that run out of them create the missing nodes,
   shared where their (parent, item) pairs agree.

A group with no node of benefit >= 1 leaves the loop.  A round costs a
few hundred numpy calls however few groups are live, so when fewer than
:data:`ALL_GROUPS_FROM` groups yield, the same loop runs group by group
over Python lists of each group's columns instead.  Either way the
bicliques come out in (group, round) order, which is the order the
group-by-group loop of :class:`~repro.overlay.fptree.FPTree` finds them
in.  That tree remains
the reference, pick for pick, and the variants with negative or mined
edges still use it.  Its tie-break rules are:

* the walk is pre-order with the newest child first, so among nodes of
  equal benefit the one whose root path, read as creation numbers
  newest-first, is lexicographically first wins (an ancestor before its
  descendants);
* extraction removes every reader at the node from its whole root path
  but keeps the emptied nodes in place;
* the extracted readers are re-inserted in ``repr`` order with their
  items below the node.  A re-insertion follows existing children, empty
  ones included, and appends new ones, which a later reader of the same
  group follows.

In these variants a reader at a node is at every ancestor, so each
reader's registrations are one root path (its *chain*) and a node's
support is a count.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set, Tuple

import numpy as np

from repro.core.pullrows import csr_indptr, ragged_index
from repro.overlay.shingles import int_repr_key

#: pads a root path in the tie-break sort: below every ``-node``, so a
#: path sorts before the paths it is a prefix of
_PAD = np.iinfo(np.int64).min


#: the fewest yielding groups the all-groups step runs for.  Measured per
#: iteration: the 12 000-node engine graph (120-358 yielding groups) mines
#: 2-4x faster all at once, a shard of the 1 000-node serve graph (0-19)
#: 1.2-5x faster group by group.
ALL_GROUPS_FROM = 32


class Mined(NamedTuple):
    """Bicliques as columns, in (group, round) order: biclique ``b`` has
    items ``items[item_indptr[b]:item_indptr[b + 1]]`` (root to node),
    readers ``readers[reader_indptr[b]:reader_indptr[b + 1]]`` (``repr``
    order) and benefit ``benefit[b]``; every reader's covered items are
    the biclique's items."""

    item_indptr: np.ndarray
    items: np.ndarray
    reader_indptr: np.ndarray
    readers: np.ndarray
    benefit: np.ndarray


class GroupTries:
    """The initial FP-tree of every reader group of one iteration.

    ``indptr`` / ``items`` are the CSR of the transactions (items are
    non-negative ints), ``readers`` their reader ids (non-negative ints),
    in group order, and group ``g`` holds rows ``bounds[g]:bounds[g + 1]``.
    An item is kept in a group if at least ``min_frequency`` of its
    transactions contain it; a transaction is inserted if it keeps two
    items.  Within a group items are ranked by (−frequency, item), the
    tree's insertion order.
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

        # Number the nodes in creation order: a node is created by the
        # first transaction that reaches it, top down.
        first_txn = _concat(firsts)
        depth = _concat(depths)
        created = np.lexsort((depth, first_txn))
        number = np.empty(len(created), dtype=np.int64)
        number[created] = np.arange(len(created))
        parent = _concat(parents)[created] - num_groups
        self._parent = np.where(parent < 0, -1, number[np.maximum(parent, 0)])
        self._item = _concat(node_items)[created]
        self._depth = depth[created]
        self._support = _concat(supports)[created]
        self._group = group = txn_group[first_txn[created]]
        self._chains = number[node_of - num_groups]
        self._starts = starts
        self._lengths = lengths
        self._txn_group = txn_group
        self._num_groups = num_groups
        self._width = width

        sizes = np.bincount(group, minlength=num_groups)
        #: nodes in the largest group's tree
        self.peak_nodes = int(sizes.max(initial=0))
        benefit = self._support * (self._depth - 1) - self._depth
        #: groups whose initial tree has a node of positive benefit (a
        #: bincount: a plain ``np.unique`` imports ``numpy.ma`` on first use)
        self.yielding = np.flatnonzero(
            np.bincount(group[benefit >= 1], minlength=num_groups)
        )

    def mine(self) -> Mined:
        """Run the greedy loop of every yielding group: all at once, or
        group by group when fewer than :data:`ALL_GROUPS_FROM` groups
        yield."""
        if len(self.yielding) < ALL_GROUPS_FROM:
            return _group_by_group(self)
        return _Greedy(self).run()


class _Greedy:
    """The state of the all-groups greedy loop: the trees' node columns
    (grown as re-insertions append nodes), a sorted (parent, item) → node
    map, and every transaction's chain in an append-only arena."""

    def __init__(self, tries: GroupTries) -> None:
        n = len(tries._item)
        self.n = n
        self.parent = tries._parent.copy()
        self.item = tries._item.copy()
        self.depth = tries._depth.copy()
        self.support = tries._support.copy()
        self.group = tries._group.copy()
        self.width = tries._width
        # the child map: (parent, item) keys, a root-level node's parent
        # being -1 - group
        keys = self._key(self.parent[:n], self.group[:n], self.item[:n])
        by_key = np.argsort(keys)
        self.keys, self.nodes = keys[by_key], by_key
        # chains: transaction t's nodes are arena[start[t]:start[t] + length[t]]
        self.arena = tries._chains.copy()
        self.used = len(tries._chains)
        self.start = tries._starts.copy()
        self.length = tries._lengths.copy()
        self.txn_group = tries._txn_group
        self.readers = tries._readers
        self.live = np.zeros(tries._num_groups, dtype=bool)
        self.live[tries.yielding] = True
        # the transactions with a chain in a live group, by (group, repr)
        active = np.flatnonzero(self.live[self.txn_group] & (self.length > 0))
        self.active = active[
            np.lexsort((int_repr_key(self.readers[active]), self.txn_group[active]))
        ]
        cand = np.flatnonzero((self.support[:n] > 1) & self.live[self.group[:n]])
        self.cand = cand
        self.in_cand = np.zeros(len(self.parent), dtype=bool)
        self.in_cand[cand] = True

    def _key(self, parent, group, item):
        return np.where(parent < 0, -1 - group, parent) * self.width + item

    def run(self) -> Mined:
        support, depth, group = self.support, self.depth, self.group
        num_groups = len(self.live)
        best = np.zeros(num_groups, dtype=np.int64)
        top = np.zeros(num_groups, dtype=np.int64)
        top_depth = np.zeros(num_groups, dtype=np.int64)
        found_groups: List[np.ndarray] = []
        found_benefit: List[np.ndarray] = []
        found_items: List[np.ndarray] = []
        found_item_counts: List[np.ndarray] = []
        found_readers: List[np.ndarray] = []
        found_reader_counts: List[np.ndarray] = []
        while True:
            # 1. every live group's best node
            cand = self.cand
            stays = (support[cand] > 1) & self.live[group[cand]]
            self.in_cand[cand[~stays]] = False
            cand = self.cand = cand[stays]
            d, g = depth[cand], group[cand]
            gain = support[cand] * (d - 1) - d
            best[:] = 0
            np.maximum.at(best, g, gain)
            self.live &= best >= 1
            if not self.live.any():
                break
            at_best = (gain == best[g]) & self.live[g]
            tops, tops_group = _preorder_first(cand[at_best], g[at_best], self.parent, depth)
            top[tops_group] = tops
            top_depth[tops_group] = depth[tops]

            # 2. the readers whose chain passes through their group's top
            active = self.active = self.active[self.live[self.txn_group[self.active]]]
            ag = self.txn_group[active]
            need = top_depth[ag]
            length = self.length[active]
            probe = self.start[active] + np.minimum(need, length) - 1
            taken = active[(length >= need) & (self.arena[probe] == top[ag])]
            taken_group = self.txn_group[taken]
            heads = np.flatnonzero(np.diff(taken_group, prepend=-1))
            found_groups.append(tops_group)
            found_benefit.append(best[tops_group])
            found_items.append(
                self.item[self.arena[ragged_index(self.start[taken[heads]], depth[tops])[0]]]
            )
            found_item_counts.append(depth[tops])
            found_readers.append(self.readers[taken])
            found_reader_counts.append(np.diff(heads, append=len(taken)))

            # 3. extraction leaves the emptied nodes in place
            chains = ragged_index(self.start[taken], self.length[taken])[0]
            np.subtract.at(support, self.arena[chains], 1)
            below = top_depth[taken_group]
            rest = self.length[taken] - below
            again = rest >= 2
            self.length[taken[~again]] = 0
            self._reinsert(taken[again], self.start[taken[again]] + below[again], rest[again])
            self.active = self.active[self.length[self.active] > 0]
            support, depth, group = self.support, self.depth, self.group

        by_group = np.argsort(_concat(found_groups), kind="stable")
        item_counts = _concat(found_item_counts)
        reader_counts = _concat(found_reader_counts)
        return Mined(
            item_indptr=csr_indptr(item_counts[by_group]),
            items=_concat(found_items)[_rows(item_counts, by_group)],
            reader_indptr=csr_indptr(reader_counts[by_group]),
            readers=_concat(found_readers)[_rows(reader_counts, by_group)],
            benefit=_concat(found_benefit)[by_group],
        )

    def _reinsert(self, txns: np.ndarray, rest_starts: np.ndarray, lengths: np.ndarray) -> None:
        """Insert the rests of ``txns`` (chain nodes from ``rest_starts``,
        ``lengths`` of them, all >= 2) from the root, in ``txns`` order."""
        if not len(txns):
            return
        n, width = self.n, self.width
        items = self.item[self.arena[ragged_index(rest_starts, lengths)[0]]]
        offsets = csr_indptr(lengths)
        total = int(offsets[-1])
        self.arena = _room(self.arena, self.used + total)
        starts = self.used + offsets[:-1]
        # the node each transaction stands at; a fresh node is n + its
        # number in discovery order until the pass ends
        at = -1 - self.txn_group[txns]
        fresh = np.zeros(len(txns), dtype=bool)
        followed: List[np.ndarray] = []
        made_parent, made_item, made_depth, made_first, made_support = [], [], [], [], []
        made = 0
        for k in range(int(lengths.max())):
            moving = np.flatnonzero(lengths > k)
            item = items[offsets[moving] + k]
            old = ~fresh[moving]
            if old.any():
                walkers = moving[old]
                keys = at[walkers] * width + item[old]
                slot = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
                hit = self.keys[slot] == keys
                nodes = self.nodes[slot[hit]]
                at[walkers[hit]] = nodes
                self.arena[starts[walkers[hit]] + k] = nodes
                followed.append(nodes)
                fresh[walkers[~hit]] = True
            new = fresh[moving]
            if new.any():
                makers = moving[new]
                keys = at[makers] * width + item[new]
                by_key = np.argsort(keys, kind="stable")
                ordered = keys[by_key]
                heads = np.concatenate(([True], ordered[1:] != ordered[:-1]))
                number = made + np.cumsum(heads) - 1
                first = makers[by_key[heads]]
                made_parent.append(at[first])
                made_item.append(item[new][by_key[heads]])
                made_depth.append(np.full(len(first), k + 1, dtype=np.int64))
                made_first.append(first)
                made_support.append(np.diff(np.flatnonzero(np.append(heads, True))))
                at[makers[by_key]] = n + number
                self.arena[starts[makers[by_key]] + k] = n + number
                made = int(number[-1]) + 1
        if followed:
            nodes = _concat(followed)
            np.add.at(self.support, nodes, 1)
            self._candidates(nodes)
        if made:
            # creation order: transaction by transaction, top down
            order = np.lexsort((_concat(made_depth), _concat(made_first)))
            final = np.empty(made, dtype=np.int64)
            final[order] = n + np.arange(made)
            parent = _concat(made_parent)[order]
            parent = np.where(parent >= n, final[np.maximum(parent - n, 0)], parent)
            item = _concat(made_item)[order]
            group = self.txn_group[txns[_concat(made_first)[order]]]
            end = n + made
            for name in ("parent", "item", "depth", "support", "group"):
                setattr(self, name, _room(getattr(self, name), end))
            self.in_cand = _room(self.in_cand, end)
            self.parent[n:end] = np.where(parent < 0, -1, parent)
            self.item[n:end] = item
            self.depth[n:end] = _concat(made_depth)[order]
            self.support[n:end] = _concat(made_support)[order]
            self.group[n:end] = group
            self.n = end
            chains = self.arena[self.used : self.used + total]
            fresh_entries = chains >= n
            chains[fresh_entries] = final[chains[fresh_entries] - n]
            keys = parent * width + item
            by_key = np.argsort(keys)
            slots = np.searchsorted(self.keys, keys[by_key])
            self.keys = np.insert(self.keys, slots, keys[by_key])
            self.nodes = np.insert(self.nodes, slots, n + by_key)
            self._candidates(np.arange(n, end))
        self.start[txns] = starts
        self.length[txns] = lengths
        self.used += total

    def _candidates(self, nodes: np.ndarray) -> None:
        """Add the nodes of support >= 2 among ``nodes`` to the candidates."""
        nodes = nodes[(self.support[nodes] > 1) & ~self.in_cand[nodes]]
        if len(nodes):
            nodes = np.sort(nodes)
            nodes = nodes[np.diff(nodes, prepend=-1) > 0]
            self.in_cand[nodes] = True
            self.cand = np.concatenate((self.cand, nodes))


def _group_by_group(tries: GroupTries) -> Mined:
    """The greedy loop of each yielding group in turn, over Python lists
    of the group's columns (node numbers local to the group)."""
    num_groups = tries._num_groups
    node_bounds = np.searchsorted(tries._group, np.arange(num_groups + 1)).tolist()
    txn_bounds = np.searchsorted(tries._txn_group, np.arange(num_groups + 1))
    entry_bounds = csr_indptr(tries._lengths)[txn_bounds].tolist()
    txn_bounds = txn_bounds.tolist()
    found_items: List[int] = []
    item_counts: List[int] = []
    found_readers: List[int] = []
    reader_counts: List[int] = []
    benefits: List[int] = []
    for g in tries.yielding.tolist():
        lo, hi = node_bounds[g], node_bounds[g + 1]
        parent = tries._parent[lo:hi]
        parent = np.where(parent < 0, -1, parent - lo).tolist()
        item = tries._item[lo:hi].tolist()
        depth = tries._depth[lo:hi].tolist()
        support = tries._support[lo:hi].tolist()
        child: Dict[Tuple[int, int], int] = {
            key: node for node, key in enumerate(zip(parent, item))
        }
        t0, t1 = txn_bounds[g], txn_bounds[g + 1]
        flat = (tries._chains[entry_bounds[g] : entry_bounds[g + 1]] - lo).tolist()
        chains: Dict[int, List[int]] = {}
        at = 0
        for reader, length in zip(tries._readers[t0:t1].tolist(), tries._lengths[t0:t1].tolist()):
            if length:
                chains[reader] = flat[at : at + length]
                at += length
        # the readers by the first node of their chain
        under: Dict[int, Set[int]] = {}
        for reader, chain in chains.items():
            under.setdefault(chain[0], set()).add(reader)
        # the benefit of every node of support >= 2; no other node has a
        # positive one
        gain = {
            node: s * (depth[node] - 1) - depth[node] for node, s in enumerate(support) if s > 1
        }

        while True:
            best = max(gain.values(), default=0)
            if best < 1:
                break
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
            found_items.extend(item[node] for node in path)
            item_counts.append(d)
            found_readers.extend(readers)
            reader_counts.append(len(readers))
            benefits.append(best)
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
    return Mined(
        item_indptr=csr_indptr(np.array(item_counts, dtype=np.int64)),
        items=np.array(found_items, dtype=np.int64),
        reader_indptr=csr_indptr(np.array(reader_counts, dtype=np.int64)),
        readers=np.array(found_readers, dtype=np.int64),
        benefit=np.array(benefits, dtype=np.int64),
    )


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


def _preorder_first(nodes, groups, parent, depth):
    """The first of ``nodes`` in each of ``groups``, in the tree walk's
    pre-order, newest child first: by root path, read as node numbers
    negated, a prefix first.  Returns the chosen nodes and their groups,
    by group."""
    order = np.argsort(groups, kind="stable")
    nodes, groups = nodes[order], groups[order]
    tied = np.flatnonzero(np.bincount(groups)[groups] > 1)
    if len(tied):
        tied_nodes = nodes[tied]
        height = int(depth[tied_nodes].max())
        paths = np.full((height, len(tied)), _PAD, dtype=np.int64)
        rows = np.arange(len(tied))
        walk = tied_nodes.copy()
        for _ in range(height):
            on = walk >= 0
            paths[depth[walk[on]] - 1, rows[on]] = -walk[on]
            walk[on] = parent[walk[on]]
        by_path = np.lexsort(tuple(paths[::-1]) + (groups[tied],))
        # within a tied group the path order decides its place
        nodes[tied] = tied_nodes[by_path]
    heads = np.flatnonzero(np.diff(groups, prepend=-1))
    return nodes[heads], groups[heads]


def _room(column: np.ndarray, size: int) -> np.ndarray:
    """``column``, or a copy of it with room for ``size`` entries."""
    if len(column) >= size:
        return column
    grown = np.zeros(max(size, 2 * len(column)), dtype=column.dtype)
    grown[: len(column)] = column
    return grown


def _rows(counts: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Flat indices of ragged rows of ``counts``, taken in ``order``."""
    return ragged_index((np.cumsum(counts) - counts)[order], counts[order])[0]


def _concat(columns: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(columns) if columns else np.zeros(0, dtype=np.int64)
