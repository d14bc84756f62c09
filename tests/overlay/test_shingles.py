"""Unit tests for min-hash shingle ordering and reader grouping."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.overlay.shingles import (
    HashTable,
    ShingleHasher,
    group_ranges,
    int_repr_key,
    order_rows,
    shingle_order,
)


class TestHasher:
    def test_deterministic_across_instances(self):
        h1 = ShingleHasher(num_hashes=3, seed=5)
        h2 = ShingleHasher(num_hashes=3, seed=5)
        items = ["a", "b", "c"]
        assert h1.shingles(items) == h2.shingles(items)

    def test_order_insensitive(self):
        h = ShingleHasher(num_hashes=2, seed=5)
        assert h.shingles(["a", "b", "c"]) == h.shingles(["c", "a", "b"])

    def test_identical_sets_collide(self):
        h = ShingleHasher(seed=1)
        assert h.shingles([1, 2, 3]) == h.shingles([1, 2, 3])

    def test_disjoint_sets_differ(self):
        h = ShingleHasher(num_hashes=4, seed=1)
        assert h.shingles([1, 2, 3]) != h.shingles([10, 20, 30])

    def test_empty_items(self):
        h = ShingleHasher(num_hashes=2, seed=1)
        assert len(h.shingles([])) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShingleHasher(num_hashes=0)


class TestOrder:
    def test_similar_readers_adjacent(self):
        shared = list(range(20))
        transactions = {
            "twin1": shared,
            "twin2": shared,
            "stranger": list(range(100, 130)),
            "twin3": shared + [99],
        }
        order = shingle_order(transactions, num_hashes=2, seed=3)
        twins = [order.index(t) for t in ("twin1", "twin2", "twin3")]
        # All twins within a window of 3 positions.
        assert max(twins) - min(twins) <= 2

    def test_deterministic(self):
        transactions = {i: list(range(i, i + 4)) for i in range(30)}
        assert shingle_order(transactions, seed=9) == shingle_order(transactions, seed=9)

    def test_all_readers_present(self):
        transactions = {i: [i, i + 1] for i in range(25)}
        assert sorted(shingle_order(transactions)) == sorted(transactions)


def per_transaction_order(transactions, num_hashes, seed):
    """Reference: one :meth:`ShingleHasher.shingles` call per transaction,
    in order, on a shared hasher (so item ids follow first encounter)."""
    hasher = ShingleHasher(num_hashes=num_hashes, seed=seed)
    keyed = [
        (hasher.shingles(items), type(reader).__name__, repr(reader), reader)
        for reader, items in transactions.items()
    ]
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


ITEMS = st.one_of(st.integers(0, 12), st.text(alphabet="abc", max_size=2))


class TestHashedOnce:
    """``shingle_order`` hashes each distinct item once; the order must be
    the per-transaction hasher's, item for item."""

    @settings(max_examples=200, deadline=None)
    @given(
        transactions=st.dictionaries(
            st.one_of(st.integers(0, 120), st.text(alphabet="xyz", max_size=3)),
            st.lists(ITEMS, max_size=8),
            max_size=30,
        ),
        num_hashes=st.integers(1, 3),
        seed=st.integers(0, 5000),
    )
    @example(  # str items, duplicates within a transaction, empty ones
        transactions={"a": [], "b": ["x", "x", "y"], 3: [1, "1", 1], "c": [], 4: ["y", "x"]},
        num_hashes=2,
        seed=2014,
    )
    @example(  # int readers whose repr order (10, 100, 9) is not numeric
        transactions={9: [1, 2], 100: [1, 2], 10: [1, 2], 11: [3], 1: []},
        num_hashes=1,
        seed=7,
    )
    def test_equals_per_transaction_shingles(self, transactions, num_hashes, seed):
        assert shingle_order(transactions, num_hashes, seed) == per_transaction_order(
            transactions, num_hashes, seed
        )

    @settings(max_examples=100, deadline=None)
    @given(
        rounds=st.lists(
            st.dictionaries(
                st.integers(0, 150), st.lists(st.integers(0, 60), max_size=6), max_size=20
            ),
            min_size=2,
            max_size=4,
        ),
        seed=st.integers(0, 5000),
    )
    @example(  # the second round brings ids the first never hashed
        rounds=[{9: [1, 2], 10: [2, 1]}, {9: [1, 2], 10: [5, 6, 7], 100: [8, 9, 1]}],
        seed=2014,
    )
    def test_a_shared_table_grows_across_rounds(self, rounds, seed):
        """One :class:`HashTable` across several orderings (one per VNM
        iteration) is extended as more distinct items appear, and orders
        every round as a fresh one would."""
        table = HashTable(num_hashes=2, seed=seed)
        for transactions in rounds:
            readers = np.array(list(transactions), dtype=np.int64)
            rows = list(transactions.values())
            indptr = np.cumsum([0] + [len(row) for row in rows])
            items = np.array([i for row in rows for i in row], dtype=np.int64)
            order = order_rows(indptr, items, int_repr_key(readers), table)
            assert readers[order].tolist() == per_transaction_order(transactions, 2, seed)


class TestIntReprKey:
    @given(st.lists(st.integers(0, 10**16), max_size=40))
    @example([9, 10, 100, 1, 0, 99, 1000, 19])
    def test_orders_as_repr(self, values):
        keys = int_repr_key(np.array(values, dtype=np.int64))
        by_key = [values[i] for i in np.argsort(keys, kind="stable")]
        assert by_key == sorted(values, key=repr)


def chunk(ordered, size, overlap=0.0):
    """The groups :func:`group_ranges` cuts ``ordered`` into."""
    starts, stops = group_ranges(len(ordered), size, overlap)
    return [list(ordered[start:stop]) for start, stop in zip(starts.tolist(), stops.tolist())]


class TestChunk:
    def test_disjoint_partition(self):
        groups = chunk(list(range(10)), 4)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        starts, stops = group_ranges(10, 4)
        assert np.append(starts, stops[-1]).tolist() == np.append(np.arange(0, 10, 4), 10).tolist()

    def test_overlap(self):
        groups = chunk(list(range(10)), 4, overlap=0.5)
        assert groups == [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [6, 7, 8, 9]]

    def test_every_reader_covered(self):
        for overlap in (0.0, 0.25, 0.5):
            groups = chunk(list(range(37)), 5, overlap=overlap)
            covered = set()
            for group in groups:
                covered.update(group)
            assert covered == set(range(37))

    def test_validation(self):
        with pytest.raises(ValueError):
            group_ranges(2, 0)
        with pytest.raises(ValueError):
            group_ranges(2, 2, overlap=1.0)

    def test_small_input(self):
        assert chunk([1], 10) == [[1]]
        assert chunk([], 10) == []

    @given(
        n=st.integers(0, 40),
        size=st.integers(1, 8),
        overlap=st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.75, 0.9]),
    )
    def test_equals_the_group_by_group_loop(self, n, size, overlap):
        step = max(1, int(round(size * (1.0 - overlap))))
        groups, start = [], 0
        while start < n:
            groups.append(list(range(start, min(start + size, n))))
            if start + size >= n:
                break
            start += step
        assert chunk(list(range(n)), size, overlap) == groups
