"""Unit tests for FP-tree construction and biclique mining."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.overlay.fptree import FPTree, mine_all


def make_rank(items):
    return {item: position for position, item in enumerate(items)}


@pytest.fixture
def paper_tree():
    """The Figure 3 scenario: readers over writers ordered d,c,e,f,a,b."""
    rank = make_rank(["d", "c", "e", "f", "a", "b"])
    tree = FPTree(rank)
    tree.insert("ar", ["d", "c", "e", "f"])
    tree.insert("br", ["d", "e", "f"])
    tree.insert("er", ["d", "c", "a", "b"])
    return tree, rank


class TestInsert:
    def test_prefix_sharing(self, paper_tree):
        tree, _ = paper_tree
        d_node = tree.root.children["d"]
        # All three readers pass through d (the paper's d{ar, br, er}).
        assert d_node.support == {"ar", "br", "er"}
        c_node = d_node.children["c"]
        assert c_node.support == {"ar", "er"}

    def test_branching(self, paper_tree):
        tree, _ = paper_tree
        d_node = tree.root.children["d"]
        # br diverges below d with its own e branch.
        assert set(d_node.children) == {"c", "e"}

    def test_items_sorted_by_rank(self):
        tree = FPTree(make_rank(["x", "y", "z"]))
        tree.insert("r", ["z", "x", "y"])  # inserted unsorted
        assert list(tree.root.children) == ["x"]
        assert tree.root.children["x"].children["y"].children["z"].support == {"r"}

    def test_path_items(self, paper_tree):
        tree, _ = paper_tree
        node = tree.root.children["d"].children["c"].children["e"]
        assert node.path_items() == ["d", "c", "e"]

    def test_num_nodes(self, paper_tree):
        tree, _ = paper_tree
        # d,c,e,f (ar) + e,f (br) + a,b (er) = 8
        assert tree.num_nodes == 8


class TestMineBasic:
    def test_figure3_trio_has_no_profitable_path(self, paper_tree):
        # The three Figure-3 readers share at most a 2x2 biclique along a
        # root path ({d,c} x {ar,er}), whose benefit 2*2-2-2 = 0 does not
        # pay for a virtual node; exact mining correctly declines.
        tree, _ = paper_tree
        assert tree.mine_best() is None

    def test_best_path_found_with_fourth_reader(self, paper_tree):
        tree, _ = paper_tree
        tree.insert("cr", ["d", "c", "e", "f"])  # the paper's next insertion
        candidate = tree.mine_best()
        assert candidate is not None
        biclique = tree.extract(candidate)
        assert biclique is not None
        # {d,c,e,f} x {ar,cr}: benefit 4*2-4-2 = 2.
        assert biclique.benefit >= 2
        assert set(biclique.readers) >= {"ar", "cr"}

    def test_extraction_removes_readers(self, paper_tree):
        tree, _ = paper_tree
        tree.insert("cr", ["d", "c", "e", "f"])
        biclique = tree.extract(tree.mine_best())
        for reader in biclique.readers:
            d_node = tree.root.children.get("d")
            if d_node is not None:
                assert reader not in d_node.support

    def test_mine_all_terminates(self, paper_tree):
        tree, _ = paper_tree
        bicliques = list(mine_all(tree))
        assert all(b.benefit >= 1 for b in bicliques)
        # No further candidates.
        assert tree.mine_best() is None or tree.extract(tree.mine_best()) is None

    def test_no_biclique_in_disjoint_transactions(self):
        tree = FPTree(make_rank(list(range(10))))
        tree.insert("r1", [0, 1])
        tree.insert("r2", [2, 3])
        assert tree.mine_best() is None

    def test_perfect_biclique(self):
        rank = make_rank(["w1", "w2", "w3"])
        tree = FPTree(rank)
        for reader in ("r1", "r2", "r3", "r4"):
            tree.insert(reader, ["w1", "w2", "w3"])
        biclique = tree.extract(tree.mine_best())
        assert sorted(biclique.items) == ["w1", "w2", "w3"]
        assert len(biclique.readers) == 4
        assert biclique.benefit == 3 * 4 - 3 - 4  # L*S - L - S

    def test_remove_reader(self, paper_tree):
        tree, _ = paper_tree
        tree.remove_reader("ar")
        d_node = tree.root.children["d"]
        assert "ar" not in d_node.support
        assert d_node.support == {"br", "er"}


class TestMineNegative:
    def test_quasi_path_registration(self):
        rank = make_rank(["w1", "w2", "w3", "w4", "w5"])
        tree = FPTree(rank)
        tree.insert("r1", ["w1", "w2", "w3", "w4"])
        tree.insert("r2", ["w1", "w2", "w3", "w4"])
        # r3 misses w3: a quasi path should register it with one negative.
        tree.insert_with_negatives("r3", ["w1", "w2", "w4", "w5"], k1=2, k2=2)
        w3_node = tree.root.children["w1"].children["w2"].children["w3"]
        assert "r3" in w3_node.neg_support

    def test_negative_biclique_extraction(self):
        rank = make_rank(["w1", "w2", "w3", "w4"])
        tree = FPTree(rank)
        tree.insert("r1", ["w1", "w2", "w3", "w4"])
        tree.insert("r2", ["w1", "w2", "w3", "w4"])
        tree.insert_with_negatives("r3", ["w1", "w2", "w4"], k1=2, k2=1, min_gain=2)
        biclique = tree.extract(tree.mine_best())
        assert biclique is not None
        if "r3" in biclique.readers:
            assert biclique.negatives["r3"] == ["w3"]
            assert set(biclique.covered["r3"]) == {"w1", "w2", "w4"}

    def test_k2_bounds_negatives(self):
        rank = make_rank(["w1", "w2", "w3", "w4", "w5", "w6"])
        tree = FPTree(rank)
        tree.insert("r1", ["w1", "w2", "w3", "w4", "w5", "w6"])
        tree.insert_with_negatives("r2", ["w1", "w6"], k1=3, k2=1)
        # Registering r2 along r1's full path would need 4 negatives > k2=1.
        deep = tree.root.children["w1"].children["w2"].children["w3"]
        assert "r2" not in deep.neg_support

    def test_saving_must_be_positive_per_reader(self):
        rank = make_rank(["w1", "w2", "w3"])
        tree = FPTree(rank)
        tree.insert("r1", ["w1", "w2", "w3"])
        tree.insert("r2", ["w1", "w2", "w3"])
        # r3 shares only w1: pos=1 saving 0 -> must not join any biclique.
        tree.insert("r3", ["w1"])
        biclique = tree.extract(tree.mine_best())
        assert "r3" not in biclique.readers


class TestMineDuplicateInsensitive:
    def test_mined_edges_become_reusable(self):
        rank = make_rank(["w1", "w2", "w3"])
        tree = FPTree(rank)
        for reader in ("r1", "r2", "r3"):
            tree.insert(reader, ["w1", "w2", "w3"])
        first = tree.extract(tree.mine_best(), duplicate_insensitive=True)
        assert first is not None
        # Readers stay in the tree, now in mined sets.
        w1_node = tree.root.children["w1"]
        assert w1_node.mined_support == set(first.readers)
        # Re-mining the same path is no longer profitable.
        assert tree.mine_best() is None

    def test_mined_penalty_in_benefit(self):
        rank = make_rank(["w1", "w2", "w3", "w4"])
        tree = FPTree(rank)
        tree.insert("r1", ["w1", "w2", "w3", "w4"])
        tree.insert("r2", ["w1", "w2", "w3", "w4"])
        tree.extract(tree.mine_best(), duplicate_insensitive=True)
        # A new reader arrives sharing the same items plus already-mined ones.
        tree.insert("r3", ["w1", "w2", "w3", "w4"])
        tree.insert("r4", ["w1", "w2", "w3", "w4"])
        candidate = tree.mine_best()
        assert candidate is not None
        biclique = tree.extract(candidate, duplicate_insensitive=True)
        # Only the fresh readers deliver savings.
        assert set(biclique.readers) == {"r3", "r4"}

    def test_insert_with_mined_items(self):
        rank = make_rank(["w1", "w2"])
        tree = FPTree(rank)
        tree.insert("r1", ["w1", "w2"], mined_items={"w1"})
        w1_node = tree.root.children["w1"]
        assert "r1" in w1_node.mined_support
        assert "r1" in w1_node.children["w2"].support


def full_walk_mine_best(tree, skip=None):
    """Reference: the DFS that scores every reader of every node, with
    per-reader negative and mined counters along the path.  Returns
    ``(node, benefit)`` of the best candidate, or None."""
    best = None
    neg_count = {}
    mined_count = {}
    stack = [("enter", child, 1) for child in tree.root.children.values()]
    while stack:
        action, node, depth = stack.pop()
        if action == "leave":
            for reader in node.neg_support:
                neg_count[reader] -= 1
            for reader in node.mined_support:
                mined_count[reader] -= 1
            continue
        for reader in node.neg_support:
            neg_count[reader] = neg_count.get(reader, 0) + 1
        for reader in node.mined_support:
            mined_count[reader] = mined_count.get(reader, 0) + 1
        benefit = -depth
        for reader in node.support:
            saving = (
                depth
                - neg_count.get(reader, 0)
                - mined_count.get(reader, 0)
                - 1
                - neg_count.get(reader, 0)
            )
            if saving > 0:
                benefit += saving
        for reader in node.neg_support | node.mined_support:
            negs = neg_count.get(reader, 0)
            saving = depth - negs - mined_count.get(reader, 0) - 1 - negs
            if saving > 0:
                benefit += saving
        if (
            benefit >= 1
            and (skip is None or id(node) not in skip)
            and (best is None or benefit > best[1])
        ):
            best = (node, benefit)
        stack.append(("leave", node, depth))
        for child in node.children.values():
            stack.append(("enter", child, depth + 1))
    return best


ITEM_SETS = st.lists(st.integers(0, 7), min_size=1, max_size=7, unique=True)
INSERTS = st.lists(
    st.tuples(
        st.sampled_from(["plain", "negatives", "mined"]),
        st.integers(0, 9),  # reader
        ITEM_SETS,
        st.data(),
    ),
    min_size=1,
    max_size=14,
)


class TestPenalisedWalk:
    """``mine_best`` walks only penalised readers; it must pick the node
    and benefit the full per-reader walk picks."""

    @settings(max_examples=200, deadline=None)
    @given(inserts=INSERTS, extractions=st.lists(st.booleans(), max_size=4))
    def test_equals_full_walk(self, inserts, extractions):
        tree = FPTree(make_rank(range(8)))
        for kind, reader, items, data in inserts:
            if kind == "plain":
                tree.insert(reader, items)
            elif kind == "negatives":
                tree.insert_with_negatives(
                    reader, items,
                    k1=data.draw(st.integers(1, 3)),
                    k2=data.draw(st.integers(0, 3)),
                    min_gain=data.draw(st.integers(0, 2)),
                )
            else:
                mined = data.draw(st.lists(st.sampled_from(items), unique=True))
                tree.insert(reader, items, mined_items=mined)
        skip = set()
        # Re-mine after each extraction (both modes), skipping nodes whose
        # extraction was refused, as the builder does.
        for duplicate_insensitive in extractions + [False]:
            want = full_walk_mine_best(tree, skip)
            got = tree.mine_best(skip)
            assert (got and (got.node, got.approx_benefit)) == want
            if got is None:
                return
            if tree.extract(got, duplicate_insensitive=duplicate_insensitive) is None:
                skip.add(id(got.node))
