"""The FP-trees of every reader group as flat columns: the VNM family's
one miner.

One VNM iteration mines an FP-tree per reader group (paper Section
3.2.1).  Every group's tree is built at once, as columns over all
groups: node ``parent``, ``item``, ``depth`` and ``support``.  Depth by
depth, the nodes are the distinct (parent, item) pairs of the
transactions' sorted items.  Nodes are numbered in creation order, group
after group, and nodes created later are appended, so within a group a
higher number is a newer node.

For ``vnm`` / ``vnm_a`` the greedy extract / re-insert loop then runs
for every group at once, one step per round.  A round

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
over Python lists of each group's columns instead.  In these trees a
reader at a node is at every ancestor, so each reader's registrations
are one root path (its *chain*) and a node's support is a count.

``vnm_n`` and ``vnm_d`` run group by group.  Every ``vnm_d`` group, and
every ``vnm_n`` group whose tree holds a negative registration, is mined
as a :class:`_Tree`, whose nodes keep their readers and each reader's
penalty:

* ``vnm_n`` (Section 3.2.3) inserts a reader along up to ``k1 − 1``
  quasi-biclique paths besides its own, registered negative at the
  items it lacks; an extracted reader's registrations are erased and the
  items it has not had covered re-inserted plainly;
* ``vnm_d`` (Section 3.2.4) moves an extracted reader's support along the
  path to mined registrations, and a reader that appears in a later,
  overlapping group is inserted there with the items it has had covered
  mined.

A reader saves ``pos − 1 − neg`` edges at a node (nothing if that is not
positive), and a node's benefit is its readers' savings less its depth.
All variants follow the object tree of the tests
(``tests/overlay/fptree.py``), the miner's oracle, pick for pick, with
one tie-break:

* the walk is pre-order with the newest child first, so among nodes of
  equal benefit the one whose root path, read as creation numbers
  newest-first, is lexicographically first wins (an ancestor before its
  descendants);
* extraction keeps the emptied nodes in place;
* the extracted readers are re-inserted in ``repr`` order with their
  items below the node.  A re-insertion follows existing children, empty
  ones included, and appends new ones, which a later reader of the same
  group follows.

The bicliques come out in (group, round) order.
"""

from __future__ import annotations

import collections
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.graph.columns import csr_indptr, ragged_index
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
    order) and benefit ``benefit[b]``.  The ``p``-th (biclique, reader)
    pair in that order replaces the reader's edges from
    ``covered[covered_indptr[p]:covered_indptr[p + 1]]`` and needs
    negative edges from ``negatives[negative_indptr[p]:negative_indptr[p
    + 1]]``; together they are the biclique's items less those the
    reader had already consumed."""

    item_indptr: np.ndarray
    items: np.ndarray
    reader_indptr: np.ndarray
    readers: np.ndarray
    covered_indptr: np.ndarray
    covered: np.ndarray
    negative_indptr: np.ndarray
    negatives: np.ndarray
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
        #: nodes in the largest group's tree; :meth:`mine` raises it to
        #: the size of the trees its quasi-biclique paths grew
        self.peak_nodes = int(sizes.max(initial=0))
        benefit = self._support * (self._depth - 1) - self._depth
        #: groups whose initial tree has a node of positive benefit (a
        #: bincount: a plain ``np.unique`` imports ``numpy.ma`` on first use)
        self.yielding = np.flatnonzero(
            np.bincount(group[benefit >= 1], minlength=num_groups)
        )

    def mine(
        self,
        quasi: Optional[np.ndarray] = None,
        k1: int = 2,
        k2: int = 3,
        duplicate_insensitive: bool = False,
    ) -> Mined:
        """Run the greedy loop of every group that can yield.

        ``quasi`` marks the transactions inserted along up to ``k1 − 1``
        quasi-biclique paths with at most ``k2`` negative items each
        (``vnm_n``).  ``duplicate_insensitive`` (``vnm_d``) keeps
        extracted readers in the tree with their covered edges mined,
        group after group.  Either runs group by group; the plain loop
        runs all at once, or group by group when fewer than
        :data:`ALL_GROUPS_FROM` groups yield."""
        if quasi is None and not duplicate_insensitive and len(self.yielding) >= ALL_GROUPS_FROM:
            return _Greedy(self).run()
        return _group_by_group(self, quasi, k1, k2, duplicate_insensitive)


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
        item_counts = _concat(found_item_counts)[by_group]
        reader_counts = _concat(found_reader_counts)[by_group]
        items = _concat(found_items)[_rows(_concat(found_item_counts), by_group)]
        # every reader covers all its biclique's items
        item_indptr = csr_indptr(item_counts)
        owner = np.repeat(np.arange(len(item_counts)), reader_counts)
        return Mined(
            item_indptr,
            items,
            csr_indptr(reader_counts),
            _concat(found_readers)[_rows(_concat(found_reader_counts), by_group)],
            csr_indptr(item_counts[owner]),
            items[ragged_index(item_indptr[owner], item_counts[owner])[0]],
            np.zeros(len(owner) + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            _concat(found_benefit)[by_group],
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


def _group_by_group(
    tries: GroupTries,
    quasi: Optional[np.ndarray] = None,
    k1: int = 2,
    k2: int = 3,
    duplicate_insensitive: bool = False,
) -> Mined:
    """The greedy loop of each group that can yield in turn, over Python
    lists of the group's columns (node numbers local to the group).

    A duplicate-insensitive run mines every yielding group as a
    :class:`_Tree`, carrying each reader's consumed items from group to
    group.  With ``quasi`` rows, every group holding one is rebuilt as a
    :class:`_Tree`, yielding or not (a quasi-biclique path can yield
    where no plain one does), and raises :attr:`GroupTries.peak_nodes`
    to its size; it is mined as one if a path registered a negative
    item, and otherwise holds the plain tree.  The other groups run the
    plain loop."""
    num_groups = tries._num_groups
    node_bounds = np.searchsorted(tries._group, np.arange(num_groups + 1)).tolist()
    txn_bounds = np.searchsorted(tries._txn_group, np.arange(num_groups + 1))
    entry_bounds = csr_indptr(tries._lengths)[txn_bounds].tolist()
    txn_bounds = txn_bounds.tolist()
    out = _Out()
    groups = tries.yielding
    yielding = np.zeros(num_groups, dtype=bool)
    yielding[groups] = True
    rebuilt = yielding if duplicate_insensitive else np.zeros(num_groups, dtype=bool)
    if quasi is not None:
        quasi = quasi & (tries._lengths > 0)
        rebuilt = np.bincount(tries._txn_group[quasi], minlength=num_groups) > 0
        groups = np.flatnonzero(yielding | rebuilt)
        quasi = quasi.tolist()
    rebuilt = rebuilt.tolist()
    #: each reader's items consumed by the run's earlier bicliques
    mined: Optional[Dict[int, Set[int]]] = {} if duplicate_insensitive else None
    for g in groups.tolist():
        t0, t1 = txn_bounds[g], txn_bounds[g + 1]
        if rebuilt[g]:
            flat = tries._item[tries._chains[entry_bounds[g] : entry_bounds[g + 1]]].tolist()
            tree, rows, at = _Tree(), [], 0
            for t, reader, length in zip(
                range(t0, t1), tries._readers[t0:t1].tolist(), tries._lengths[t0:t1].tolist()
            ):
                if not length:
                    continue
                items = flat[at : at + length]
                at += length
                rows.append((reader, items))
                if mined is not None:
                    tree.insert(reader, items, mined.get(reader, ()))
                elif quasi[t]:
                    tree.insert_quasi(reader, items, k1, k2)
                else:
                    tree.insert(reader, items)
            if mined is None:
                tries.peak_nodes = max(tries.peak_nodes, len(tree.parent))
            if tree.penalised or mined is not None:
                _mine_tree(tree, rows, out, mined)
                continue
            if not yielding[g]:
                continue
        lo, hi = node_bounds[g], node_bounds[g + 1]
        parent = tries._parent[lo:hi]
        parent = np.where(parent < 0, -1, parent - lo).tolist()
        item = tries._item[lo:hi].tolist()
        depth = tries._depth[lo:hi].tolist()
        support = tries._support[lo:hi].tolist()
        child: Dict[Tuple[int, int], int] = {
            key: node for node, key in enumerate(zip(parent, item))
        }
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
            path_items = [item[node] for node in path]
            out.add(path_items, readers, best, [path_items] * len(readers), [[]] * len(readers))
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
    return out.mined()


#: a reader's weight in its penalty at a node, by its registration there
_SUPPORT, _MINED, _NEGATIVE = 0, 1, 2


class _Tree:
    """One group's FP-tree with negative and mined registrations, over
    Python lists.  Nodes are numbered in creation order; the root is -1.

    A reader is registered at every node of one or more root paths, at
    each as a support reader or, counting in its penalty, a mined (weight
    1) or negative (weight 2) one.  ``pen[x][r]`` is the sum of ``r``'s
    weights from the root down to ``x``, so ``r`` saves ``max(depth − 1 −
    pen, 0)`` edges at ``x``: ``pos − 1 − neg`` over the path when
    positive.  ``saved[x]`` sums the savings of ``x``'s readers, and
    ``x``'s benefit is ``saved[x] − depth[x]``, kept in ``gain`` for the
    nodes where it is at least 1.
    """

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.item: List[int] = []
        self.depth: List[int] = []
        #: each node's children by item, in creation order
        self.kids: Dict[int, Dict[int, int]] = {-1: {}}
        self.pen: List[Dict[int, int]] = []
        self.saved: List[int] = []
        #: each reader's registrations, node -> weight, parents first
        self.regs: Dict[int, Dict[int, int]] = {}
        #: whether an insertion registered a negative or mined item
        self.penalised = False
        self.gain: Dict[int, int] = {}
        self._dirty: Set[int] = set()

    def insert(self, reader: int, items: List[int], mined=(), node: int = -1) -> None:
        """Register ``reader`` along ``items`` below ``node``, following
        existing children and creating missing ones; an item in ``mined``
        is a mined registration, the others support."""
        for x in items:
            below = self.kids[node].get(x)
            if below is None:
                below = self.kids[node][x] = len(self.parent)
                self.kids[below] = {}
                self.parent.append(node)
                self.item.append(x)
                self.depth.append(self.depth[node] + 1 if node >= 0 else 1)
                self.pen.append({})
                self.saved.append(0)
            self._register(reader, below, _MINED if x in mined else _SUPPORT)
            node = below

    def insert_quasi(self, reader: int, items: List[int], k1: int, k2: int) -> None:
        """The plain path plus up to ``k1 − 1`` quasi-biclique paths with
        at most ``k2`` negative items each (Section 3.2.3).

        A breadth-first search of the tree as it stands before the
        reader's own path scores each root path by its gain, items the
        reader has minus items it lacks, and abandons a subtree past
        ``k2`` negatives.  The paths with a negative item and a gain of
        at least 2 are taken by (−gain, negatives), then in search order;
        the reader is registered along each, negative at the items it
        lacks, and its other items hang below the path's end."""
        have = set(items)
        candidates: List[Tuple[int, int, int]] = []
        queue = collections.deque((node, 0, 0) for node in self.kids[-1].values())
        while queue:
            node, gain, negatives = queue.popleft()
            if self.item[node] in have:
                gain += 1
            else:
                negatives += 1
                gain -= 1
            if negatives > k2:
                continue
            if negatives and gain >= 2:
                candidates.append((gain, negatives, node))
            queue.extend((below, gain, negatives) for below in self.kids[node].values())

        self.insert(reader, items)
        candidates.sort(key=lambda entry: (-entry[0], entry[1]))
        for _, _, end in candidates[: max(0, k1 - 1)]:
            path = self.path(end)
            for node in path:
                self._register(reader, node, _SUPPORT if self.item[node] in have else _NEGATIVE)
            on_path = {self.item[node] for node in path}
            self.insert(reader, [x for x in items if x not in on_path], node=end)

    def _register(self, reader: int, node: int, weight: int) -> None:
        regs = self.regs.setdefault(reader, {})
        if node in regs:
            return
        regs[node] = weight
        up = self.parent[node]
        pen = weight + (self.pen[up][reader] if up >= 0 else 0)
        self.pen[node][reader] = pen
        self.saved[node] += max(self.depth[node] - 1 - pen, 0)
        self._dirty.add(node)
        if weight:
            self.penalised = True

    def remove(self, reader: int) -> None:
        """Erase every registration of ``reader``."""
        for node in self.regs.pop(reader):
            pen = self.pen[node].pop(reader)
            self.saved[node] -= max(self.depth[node] - 1 - pen, 0)
            self._dirty.add(node)

    def mine_out(self, reader: int, path: List[int]) -> None:
        """Turn ``reader``'s support along ``path`` into mined
        registrations, and re-weigh its penalties."""
        regs = self.regs[reader]
        for node in path:
            if regs[node] == _SUPPORT:
                regs[node] = _MINED
        for node, weight in regs.items():
            up = self.parent[node]
            pen = weight + (self.pen[up][reader] if up >= 0 else 0)
            old = self.pen[node][reader]
            if pen != old:
                room = self.depth[node] - 1
                self.saved[node] += max(room - pen, 0) - max(room - old, 0)
                self.pen[node][reader] = pen
                self._dirty.add(node)

    def best(self) -> Optional[int]:
        """The node of largest benefit >= 1, first in the walk's pre-order
        among ties, or ``None``."""
        gain = self.gain
        for node in self._dirty:
            benefit = self.saved[node] - self.depth[node]
            if benefit >= 1:
                gain[node] = benefit
            elif node in gain:
                del gain[node]
        self._dirty.clear()
        if not gain:
            return None
        best = max(gain.values())
        ties = [node for node, benefit in gain.items() if benefit == best]
        return ties[0] if len(ties) == 1 else min(ties, key=_preorder_key(self.parent))

    def path(self, node: int) -> List[int]:
        """The nodes from the root (exclusive) down to ``node``."""
        nodes = []
        while node >= 0:
            nodes.append(node)
            node = self.parent[node]
        nodes.reverse()
        return nodes


def _mine_tree(
    tree: _Tree,
    rows: List[Tuple[int, List[int]]],
    out: "_Out",
    mined: Optional[Dict[int, Set[int]]],
) -> None:
    """The greedy loop over one group's :class:`_Tree`.

    Every reader at the best node with a positive saving joins its
    biclique, in ``repr`` order, so the biclique's benefit is the node's
    and no pick is ever refused.  A duplicate-insensitive run (``mined``
    given) turns their support along the path into mined registrations
    and adds the covered items to ``mined``.  Otherwise their
    registrations are erased, and each re-inserts plainly, in rank
    order, its items of ``rows`` not covered yet, if two or more are
    left."""
    live = dict(rows)
    while True:
        top = tree.best()
        if top is None:
            return
        path = tree.path(top)
        room = len(path) - 1
        readers = sorted((r for r, pen in tree.pen[top].items() if pen < room), key=repr)
        covered, negatives = [], []
        for reader in readers:
            regs = tree.regs[reader]
            covered.append([tree.item[node] for node in path if regs[node] == _SUPPORT])
            negatives.append([tree.item[node] for node in path if regs[node] == _NEGATIVE])
        out.add([tree.item[node] for node in path], readers, tree.gain[top], covered, negatives)
        if mined is not None:
            for reader, items in zip(readers, covered):
                tree.mine_out(reader, path)
                mined.setdefault(reader, set()).update(items)
            continue
        for reader in readers:
            tree.remove(reader)
        for reader, items in zip(readers, covered):
            done = set(items)
            rest = live[reader] = [x for x in live[reader] if x not in done]
            if len(rest) >= 2:
                tree.insert(reader, rest)


class _Out:
    """Bicliques found group by group, as lists of :class:`Mined`'s
    columns."""

    def __init__(self) -> None:
        self.items: List[int] = []
        self.item_counts: List[int] = []
        self.readers: List[int] = []
        self.reader_counts: List[int] = []
        self.covered: List[int] = []
        self.covered_counts: List[int] = []
        self.negatives: List[int] = []
        self.negative_counts: List[int] = []
        self.benefit: List[int] = []

    def add(self, items, readers, benefit, covered, negatives) -> None:
        """One biclique, with each reader's covered and negative items."""
        self.items.extend(items)
        self.item_counts.append(len(items))
        self.readers.extend(readers)
        self.reader_counts.append(len(readers))
        self.benefit.append(benefit)
        for pos, neg in zip(covered, negatives):
            self.covered.extend(pos)
            self.covered_counts.append(len(pos))
            self.negatives.extend(neg)
            self.negative_counts.append(len(neg))

    def mined(self) -> Mined:
        def column(values: List[int]) -> np.ndarray:
            return np.array(values, dtype=np.int64)

        return Mined(
            csr_indptr(column(self.item_counts)),
            column(self.items),
            csr_indptr(column(self.reader_counts)),
            column(self.readers),
            csr_indptr(column(self.covered_counts)),
            column(self.covered),
            csr_indptr(column(self.negative_counts)),
            column(self.negatives),
            column(self.benefit),
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
