"""The column FP-trees of ``vnm`` / ``vnm_a`` against the object tree.

:class:`~repro.overlay.tries.GroupTries` must pick, group by group, the
same bicliques as :class:`~repro.overlay.fptree.FPTree`'s greedy loop
(``mine_best`` / ``extract`` / re-insert the rest), ties included, and
build initial trees of the same size.  Groups are drawn to tie: few
items, duplicate transactions, and reader ids on both sides of a
``repr``-order boundary (``10`` sorts before ``9``).
"""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.overlay.tries as tries_module
import repro.overlay.vnm as vnm_module
from repro.graph.bipartite import build_bipartite
from repro.graph.generators import web_graph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay.fptree import Biclique, FPTree
from repro.overlay.tries import GroupTries
from repro.overlay.vnm import build_vnm


def fptree_greedy(group, min_frequency=2):
    """The object tree's greedy loop over one group ``{reader: items}``.

    Returns the bicliques, the initial tree's node count, how many
    re-insertions walked into a node an extraction had emptied and how
    many extracted readers kept a rest shorter than two items.
    """
    frequency = collections.Counter(itertools.chain.from_iterable(group.values()))
    eligible = {item for item, f in frequency.items() if f >= min_frequency}
    filtered = {}
    for reader, items in group.items():
        kept = [item for item in items if item in eligible]
        if len(kept) >= 2:
            filtered[reader] = kept
    if not filtered:
        return [], 0, 0, 0
    ranked = sorted(eligible, key=lambda item: (-frequency[item], item))
    tree = FPTree({item: position for position, item in enumerate(ranked)})
    for reader, items in filtered.items():
        tree.insert(reader, items)
    initial_nodes = tree.num_nodes
    live = {reader: set(items) for reader, items in filtered.items()}
    found, revived, short = [], 0, 0
    while True:
        candidate = tree.mine_best()
        if candidate is None:
            return found, initial_nodes, revived, short
        biclique = tree.extract(candidate)
        assert biclique is not None
        found.append(biclique)
        for reader in biclique.readers:
            live[reader] -= set(biclique.covered[reader])
            if len(live[reader]) < 2:
                short += 1
                continue
            node = tree.root
            for item in sorted(live[reader], key=ranked.index):
                node = node.children.get(item)
                if node is None:
                    break
                revived += not node.support
            tree.insert(reader, live[reader])


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
    for b, benefit in enumerate(mined.benefit.tolist()):
        path = items[item_bounds[b] : item_bounds[b + 1]]
        kept = readers[reader_bounds[b] : reader_bounds[b + 1]]
        yield Biclique(
            items=path,
            readers=kept,
            covered=dict.fromkeys(kept, path),
            negatives={reader: [] for reader in kept},
            reused={reader: [] for reader in kept},
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
    return [(b.items, b.readers, b.covered, b.benefit) for b in bicliques]


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
        expected_peak = 0
        for group, column in zip(groups, found):
            expected, initial_nodes, _, _ = fptree_greedy(group)
            assert signature(column) == signature(expected)
            expected_peak = max(expected_peak, initial_nodes)
        assert peak == expected_peak

    def test_the_reviving_group_revives_an_emptied_node(self):
        expected, _, revived, _ = fptree_greedy(REVIVING)
        assert revived > 0
        assert signature(column_groups([REVIVING])[0][0]) == signature(expected)

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
        expected = []
        for group in groups:
            expected.extend(fptree_greedy(group)[0])
        assert signature(mined_bicliques(run(group_tries(groups)))) == signature(expected)

    def test_mine_runs_group_by_group_below_the_cut(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tries_module, "_group_by_group", lambda tries: calls.append("each"))
        monkeypatch.setattr(tries_module._Greedy, "run", lambda self: calls.append("all"))
        tries = group_tries([REVIVING, SHORT_RESTS])
        assert len(tries.yielding) == 2
        for cut in (3, 2):
            monkeypatch.setattr(tries_module, "ALL_GROUPS_FROM", cut)
            tries.mine()
        assert calls == ["each", "all"]

    def test_the_examples_tie_revive_and_leave_short_rests(self):
        _, _, revived, _ = fptree_greedy(REVIVING)
        found, _, _, short = fptree_greedy(SHORT_RESTS)
        assert revived > 0 and short > 0
        tied = repeated(([0, 1, 2], 3), ([3, 4, 5], 3))
        first, second = fptree_greedy(tied)[0][:2]
        assert first.benefit == second.benefit


class TestPlainVariantsBuildNoFPTree:
    @pytest.mark.parametrize("variant", ["vnm", "vnm_a"])
    def test_no_fptree(self, monkeypatch, variant):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{variant} built an FPTree")

        monkeypatch.setattr(vnm_module, "FPTree", refuse)
        ag = build_bipartite(
            web_graph(200, 6, copy_probability=0.9, seed=3), Neighborhood.in_neighbors()
        )
        result = build_vnm(ag, variant=variant, iterations=4)
        assert result.stats[0].bicliques > 0
        result.overlay.validate(ag)
