"""The column miner of the VNM family against the object tree.

:class:`~repro.overlay.tries.GroupTries` must pick, group by group, the
same bicliques as the object :class:`~tests.overlay.fptree.FPTree`'s
greedy loop (``mine_best`` / ``extract`` / re-insert the rest), ties
included, and build trees of the same size: plain (``vnm`` / ``vnm_a``),
with quasi-biclique paths (``vnm_n``) and with mined registrations
carried across overlapping groups (``vnm_d``).  Groups are drawn to tie:
few items, duplicate transactions, and reader ids on both sides of a
``repr``-order boundary (``10`` sorts before ``9``).
"""

import collections
import itertools
from typing import List, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.overlay.tries as tries_module
from repro.overlay.tries import GroupTries
from tests.overlay.fptree import Biclique, FPTree


class Run(NamedTuple):
    """What the object tree's greedy loop found over some groups."""

    found: List[Biclique]
    #: nodes in the largest initial tree
    peak: int
    #: re-insertions that walked into a node an extraction had emptied
    revived: int
    #: extracted readers left with fewer than two items
    short: int
    #: insertions that carried a mined item into a later group's tree
    carried: int


def fptree_mine(groups, quasi=(), k1=2, k2=3, duplicate_insensitive=False, min_frequency=2):
    """The object tree's greedy loop over each group ``{reader: items}`` in
    turn, as the VNM variants mine: readers in ``quasi`` are inserted
    along up to ``k1 − 1`` quasi-biclique paths with at most ``k2``
    negatives (``vnm_n``); a ``duplicate_insensitive`` run (``vnm_d``)
    keeps extracted readers in the tree with their covered items mined,
    and inserts them into later groups with those items mined; otherwise
    extracted readers are re-inserted with the items not yet covered."""
    found, peak, revived, short, carried = [], 0, 0, 0, 0
    mined = {}
    for group in groups:
        frequency = collections.Counter(itertools.chain.from_iterable(group.values()))
        eligible = {item for item, f in frequency.items() if f >= min_frequency}
        filtered = {}
        for reader, items in group.items():
            kept = [item for item in items if item in eligible]
            if len(kept) >= 2:
                filtered[reader] = kept
        if not filtered:
            continue
        ranked = sorted(eligible, key=lambda item: (-frequency[item], item))
        tree = FPTree({item: position for position, item in enumerate(ranked)})
        for reader, items in filtered.items():
            if reader in quasi:
                tree.insert_with_negatives(reader, items, k1=k1, k2=k2)
            else:
                carried += bool(mined.get(reader, set()) & set(items))
                tree.insert(reader, items, mined_items=mined.get(reader, ()))
        peak = max(peak, tree.num_nodes)
        live = {reader: set(items) for reader, items in filtered.items()}
        while True:
            candidate = tree.mine_best()
            if candidate is None:
                break
            biclique = tree.extract(candidate, duplicate_insensitive=duplicate_insensitive)
            # mine_best scores the exact benefit extract computes, so no
            # pick is refused and the column miner keeps no skip set
            assert biclique is not None
            found.append(biclique)
            for reader in biclique.readers:
                if duplicate_insensitive:
                    mined.setdefault(reader, set()).update(biclique.covered[reader])
                    continue
                live[reader] -= set(biclique.covered[reader])
                if len(live[reader]) < 2:
                    short += 1
                    continue
                node = tree.root
                for item in sorted(live[reader], key=ranked.index):
                    node = node.children.get(item)
                    if node is None:
                        break
                    revived += not node.total_support()
                tree.insert(reader, live[reader])
    return Run(found, peak, revived, short, carried)


#: the two ways :meth:`GroupTries.mine` runs the greedy loop, chosen by
#: how many groups yield; each must match :class:`FPTree` on its own
RUNS = {
    "all-groups": lambda tries: tries_module._Greedy(tries).run(),
    "group-by-group": lambda tries: tries_module._group_by_group(tries),
}
run_each_way = pytest.mark.parametrize("run", list(RUNS.values()), ids=list(RUNS))


def mined_bicliques(mined):
    """``Mined`` columns as :class:`Biclique` objects, in (group, round)
    order."""
    items, readers = mined.items.tolist(), mined.readers.tolist()
    item_bounds, reader_bounds = mined.item_indptr.tolist(), mined.reader_indptr.tolist()
    covered, negatives = mined.covered.tolist(), mined.negatives.tolist()
    covered_bounds = mined.covered_indptr.tolist()
    negative_bounds = mined.negative_indptr.tolist()
    for b, benefit in enumerate(mined.benefit.tolist()):
        path = items[item_bounds[b] : item_bounds[b + 1]]
        kept = readers[reader_bounds[b] : reader_bounds[b + 1]]
        pairs = range(reader_bounds[b], reader_bounds[b + 1])
        yield Biclique(
            items=path,
            readers=kept,
            covered={
                r: covered[covered_bounds[p] : covered_bounds[p + 1]] for r, p in zip(kept, pairs)
            },
            negatives={
                r: negatives[negative_bounds[p] : negative_bounds[p + 1]]
                for r, p in zip(kept, pairs)
            },
            benefit=benefit,
        )


def group_tries(groups, min_frequency=2):
    """One :class:`GroupTries` over ``groups``, each ``{reader: items}``."""
    readers = [reader for group in groups for reader in group]
    rows = [items for group in groups for items in group.values()]
    return GroupTries(
        np.cumsum([0] + [len(row) for row in rows]),
        np.array(list(itertools.chain.from_iterable(rows)), dtype=np.int64),
        np.array(readers, dtype=np.int64),
        np.cumsum([0] + [len(group) for group in groups]),
        min_frequency,
    )


def column_groups(groups, run=GroupTries.mine, min_frequency=2):
    """Every group's bicliques from one :class:`GroupTries`, split by group,
    and the largest initial tree."""
    tries = group_tries(groups, min_frequency)
    group_of = {reader: g for g, group in enumerate(groups) for reader in group}
    found = [[] for _ in groups]
    for biclique in mined_bicliques(run(tries)):
        found[group_of[biclique.readers[0]]].append(biclique)
    return found, tries.peak_nodes


def signature(bicliques):
    return [(b.items, b.readers, b.covered, b.negatives, b.benefit) for b in bicliques]


#: reader ids whose ``repr`` order differs from their numeric order
READERS = list(range(8, 13)) + list(range(98, 103))
TRANSACTION = st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True)


@st.composite
def tied_groups(draw):
    """1-3 groups over disjoint readers; each group mostly repeats a few
    base transactions, so equal supports (and equal benefits) abound."""
    readers = draw(st.permutations(READERS))
    groups, at = [], 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, len(readers) - at))
        base = draw(st.lists(TRANSACTION, min_size=1, max_size=3))
        rows = st.one_of(st.sampled_from(base), st.sampled_from(base), TRANSACTION)
        groups.append({reader: list(draw(rows)) for reader in readers[at : at + size]})
        at += size
        if at == len(readers):
            break
    return groups


def repeated(*rows):
    """A group of ``count`` copies of each ``items``, for ``(items, count)``
    in ``rows``, over reader ids around the ``repr`` boundaries."""
    readers = iter(READERS + list(range(1000, 1100)))
    return {next(readers): list(items) for items, count in rows for _ in range(count)}


#: A group whose greedy loop re-inserts a reader through a node that an
#: extraction emptied: the six (2, 3, 4) readers go first (benefit 9) and
#: empty 2 → 3, then the (0, 1) pick (benefit 8) re-inserts the (0, 1, 2,
#: 3) reader's rest along 2 (kept alive by the (2, 5) readers) → 3.
REVIVING = repeated(([2, 3, 4], 6), ([0, 1], 9), ([0, 1, 2, 3], 1), ([2, 5], 2))


class TestColumnMinerEqualsFPTree:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(groups=tied_groups())
    @example(groups=[REVIVING])
    @example(groups=[{9: [0, 1, 2], 10: [0, 1, 2], 100: [0, 1, 2], 11: [3, 4]}])
    @example(groups=[repeated(([0, 1, 2], 3), ([3, 4, 5], 3))])  # a tie across branches
    @example(groups=[{8: [5, 4], 9: [4, 5]}, {10: [0, 1, 2], 11: [0, 1, 2], 12: [0, 1, 2]}])
    def test_same_bicliques_and_tree_size(self, groups):
        found, peak = column_groups(groups)
        for group, column in zip(groups, found):
            assert signature(column) == signature(fptree_mine([group]).found)
        assert peak == fptree_mine(groups).peak

    def test_the_reviving_group_revives_an_emptied_node(self):
        expected = fptree_mine([REVIVING])
        assert expected.revived > 0
        assert signature(column_groups([REVIVING])[0][0]) == signature(expected.found)

    def test_readers_come_out_in_repr_order(self):
        group = {9: [0, 1, 2], 10: [0, 1, 2], 100: [0, 1, 2]}
        (found,), _ = column_groups([group])
        assert [b.readers for b in found] == [[10, 100, 9]]

    def test_a_group_with_nothing_shared_yields_nothing(self):
        found, peak = column_groups([{8: [0, 1], 9: [2, 3]}, {10: [0]}])
        assert found == [[], []]
        assert peak == 0


@st.composite
def many_groups(draw):
    """2-6 groups over disjoint readers (ids across ``repr`` boundaries),
    each drawn like :func:`tied_groups`' groups: a few repeated base
    transactions over few items, so benefits tie, extracted readers come
    back with rests of every length and emptied nodes fill again."""
    readers = draw(st.permutations(READERS + list(range(1000, 1012))))
    groups, at = [], 0
    for _ in range(draw(st.integers(2, 6))):
        if at == len(readers):
            break
        size = draw(st.integers(1, min(8, len(readers) - at)))
        base = draw(st.lists(TRANSACTION, min_size=1, max_size=3))
        rows = st.one_of(st.sampled_from(base), st.sampled_from(base), TRANSACTION)
        groups.append({reader: list(draw(rows)) for reader in readers[at : at + size]})
        at += size
    return groups


#: a group whose extraction leaves readers with a rest of one item
SHORT_RESTS = repeated(([0, 1, 2], 3), ([0, 1], 2))


class TestAllGroupsStep:
    """The all-groups greedy step, and the loop group by group that
    :meth:`GroupTries.mine` runs when few groups yield, each emit in one
    sequence exactly the bicliques of the group-by-group :class:`FPTree`
    loop, in (group, round) order."""

    @run_each_way
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(groups=many_groups())
    @example(groups=[REVIVING, SHORT_RESTS, repeated(([0, 1, 2], 3), ([3, 4, 5], 3))])
    @example(groups=[SHORT_RESTS, {8: [5, 4], 9: [4, 5]}, REVIVING])
    def test_same_sequence_as_the_per_group_loop(self, run, groups):
        expected = fptree_mine(groups).found
        assert signature(mined_bicliques(run(group_tries(groups)))) == signature(expected)

    def test_mine_runs_group_by_group_below_the_cut(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            tries_module, "_group_by_group", lambda tries, *options: calls.append("each")
        )
        monkeypatch.setattr(tries_module._Greedy, "run", lambda self: calls.append("all"))
        tries = group_tries([REVIVING, SHORT_RESTS])
        assert len(tries.yielding) == 2
        for cut in (3, 2):
            monkeypatch.setattr(tries_module, "ALL_GROUPS_FROM", cut)
            tries.mine()
        assert calls == ["each", "all"]

    def test_the_examples_tie_revive_and_leave_short_rests(self):
        assert fptree_mine([REVIVING]).revived > 0
        assert fptree_mine([SHORT_RESTS]).short > 0
        tied = repeated(([0, 1, 2], 3), ([3, 4, 5], 3))
        first, second = fptree_mine([tied]).found[:2]
        assert first.benefit == second.benefit


def column_mine(groups, quasi=(), k1=2, k2=3, duplicate_insensitive=False):
    """The column miner's bicliques over ``groups`` and its peak tree."""
    tries = group_tries(groups)
    flags = None
    if quasi:
        flags = np.array([reader in quasi for group in groups for reader in group], dtype=bool)
    mined = tries.mine(flags, k1, k2, duplicate_insensitive)
    return list(mined_bicliques(mined)), tries.peak_nodes


def near(base):
    """A transaction one item away from one of ``base``: quasi-biclique bait."""
    return st.tuples(st.sampled_from(base), st.integers(0, 6), st.booleans()).map(
        lambda drawn: sorted(set(drawn[0]) - {drawn[1]} if drawn[2] else set(drawn[0]) | {drawn[1]})
    )


@st.composite
def quasi_groups(draw):
    """1-4 groups over disjoint readers, rows repeating or missing one
    item of a few base transactions, and the readers inserted along
    quasi-biclique paths."""
    readers = draw(st.permutations(READERS + list(range(1000, 1006))))
    groups, at = [], 0
    for _ in range(draw(st.integers(1, 4))):
        if at == len(readers):
            break
        size = draw(st.integers(1, min(8, len(readers) - at)))
        base = draw(st.lists(TRANSACTION, min_size=1, max_size=3))
        rows = st.one_of(st.sampled_from(base), near(base), near(base), TRANSACTION)
        groups.append({reader: list(draw(rows)) for reader in readers[at : at + size]})
        at += size
    quasi = draw(st.sets(st.sampled_from(readers[:at])))
    return groups, quasi


@st.composite
def overlapping_groups(draw):
    """Groups of 2-6 consecutive readers of one ordered list, a group
    starting 1..size readers after the previous one, as ``vnm_d``'s
    overlapping chunks share readers."""
    readers = draw(st.permutations(READERS + list(range(1000, 1004))))[: draw(st.integers(2, 14))]
    base = draw(st.lists(TRANSACTION, min_size=1, max_size=3))
    rows = st.one_of(st.sampled_from(base), st.sampled_from(base), near(base), TRANSACTION)
    items = {reader: list(draw(rows)) for reader in readers}
    size = draw(st.integers(2, 6))
    step = draw(st.integers(1, size))
    groups, start = [], 0
    while start < len(readers):
        groups.append({reader: items[reader] for reader in readers[start : start + size]})
        if start + size >= len(readers):
            break
        start += step
    return groups


#: ``vnm_d`` groups whose second group takes the first's mined readers
#: back, with their mined items
CARRYING = [
    {8: [0, 1, 2], 9: [0, 1, 2], 10: [0, 1, 2], 11: [3, 4]},
    {9: [0, 1, 2], 10: [0, 1, 2], 11: [3, 4], 12: [0, 1, 2, 3], 98: [0, 1, 2, 3]},
]

#: ``vnm_n`` readers one item short of a shared path
SHORT_OF_A_PATH = {
    8: [0, 1, 2, 3, 4],
    9: [0, 1, 2, 3, 4],
    10: [0, 1, 3, 4, 5],
    11: [0, 1, 2, 4, 5],
    12: [1, 2, 3, 4, 5],
}

#: a ``vnm_n`` group whose quasi readers rank candidate paths of equal
#: gain by their negatives
RANKED_PATHS = {9: [0, 1, 2, 4], 10: [0, 1, 2, 3, 4, 5], 11: [0, 1, 2, 3], 12: [0, 1, 2, 3, 5]}


class TestPenalisedGroups:
    """``vnm_n`` and ``vnm_d`` groups: the column miner against the object
    tree, pick for pick (items, readers, covered, negatives, benefit) and
    on the largest tree."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=quasi_groups(), k1=st.integers(1, 3), k2=st.integers(0, 3))
    @example(drawn=([SHORT_OF_A_PATH], set(SHORT_OF_A_PATH)), k1=2, k2=1)
    @example(drawn=([SHORT_OF_A_PATH, REVIVING], {10, 11, 12}), k1=3, k2=2)
    @example(drawn=([RANKED_PATHS], {9, 10, 11}), k1=3, k2=2)
    def test_quasi_paths_pick_for_pick(self, drawn, k1, k2):
        groups, quasi = drawn
        expected = fptree_mine(groups, quasi, k1, k2)
        found, peak = column_mine(groups, quasi, k1, k2)
        assert signature(found) == signature(expected.found)
        assert peak == expected.peak

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(groups=overlapping_groups())
    @example(groups=CARRYING)
    def test_mined_registrations_pick_for_pick(self, groups):
        expected = fptree_mine(groups, duplicate_insensitive=True)
        found, peak = column_mine(groups, duplicate_insensitive=True)
        assert signature(found) == signature(expected.found)
        assert peak == expected.peak

    def test_the_examples_register_negatives_and_carry_mined_items(self):
        found = fptree_mine([SHORT_OF_A_PATH], set(SHORT_OF_A_PATH), k1=2, k2=1).found
        assert any(any(b.negatives.values()) for b in found)
        assert fptree_mine(CARRYING, duplicate_insensitive=True).carried > 0

    def test_a_quasi_path_yields_where_no_plain_path_does(self):
        group = {8: [1, 2, 3, 4, 5], 9: [1, 2, 4, 5, 6], 10: [3, 6]}
        assert fptree_mine([group]).found == []
        found, _ = column_mine([group], quasi={9}, k1=2, k2=2)
        assert signature(found) == signature(fptree_mine([group], {9}, 2, 2).found)
        assert found and found[0].negatives[9] == [3]
