"""Min-hash shingle ordering of readers (paper Section 3.2.1).

VNM's scalability trick is to group readers into small chunks and only mine
bicliques within a chunk.  For that to find anything, readers with similar
input lists must land in the same chunk.  The *shingle* of a reader is a
min-hash signature of its input list: readers with highly-overlapping
adjacency lists collide on their shingles with high probability (Broder;
used for web-graph compression by Chierichetti et al. and Buehrer et al.).
Sorting readers lexicographically by a small vector of shingles therefore
clusters similar readers next to each other.

Hashing is deterministic: items are first mapped to dense integers, then
passed through seeded universal hash functions ``h(x) = (a·x + b) mod p``.
Python's built-in ``hash`` is process-salted and would make runs
irreproducible.

:func:`order_rows` is the kernel: the readers' input lists as a CSR, a
:class:`HashTable` of every hash function's values by dense id, one
``np.minimum.reduceat`` per hash function and one ``np.lexsort``.
:func:`shingle_order` puts arbitrary hashable readers and items through it,
and :func:`group_ranges` cuts the ordered readers into groups.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

Item = Hashable

#: A large Mersenne prime keeps the universal hash family well distributed.
_PRIME = (1 << 61) - 1


class ShingleHasher:
    """A family of ``num_hashes`` seeded universal hash functions."""

    def __init__(self, num_hashes: int = 2, seed: int = 2014) -> None:
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        rng = random.Random(seed)
        self._coeffs: List[Tuple[int, int]] = [
            (rng.randrange(1, _PRIME), rng.randrange(_PRIME)) for _ in range(num_hashes)
        ]
        self._item_ids: Dict[Item, int] = {}

    def _item_id(self, item: Item) -> int:
        existing = self._item_ids.get(item)
        if existing is not None:
            return existing
        new_id = len(self._item_ids) + 1
        self._item_ids[item] = new_id
        return new_id

    def shingles(self, items: Iterable[Item]) -> Tuple[int, ...]:
        """Min-hash signature of an item set (one min per hash function)."""
        ids = [self._item_id(item) for item in items]
        if not ids:
            return tuple(_PRIME for _ in self._coeffs)
        return tuple(
            min((a * x + b) % _PRIME for x in ids) for a, b in self._coeffs
        )


class HashTable:
    """Every hash function's values of the dense ids ``1..n``, as int64
    columns indexed by id (column ``k`` holds ``h_k(x)`` at ``x``).

    ``a·x`` overflows 64 bits, so values are computed as exact Python
    ints; each fits in 61 bits once reduced modulo ``_PRIME``.  The table
    is built once and extended as larger ids appear, so repeated orderings
    (one per VNM iteration) hash each id once.
    """

    def __init__(self, num_hashes: int = 2, seed: int = 2014) -> None:
        self._coeffs = ShingleHasher(num_hashes=num_hashes, seed=seed)._coeffs
        self._columns = [np.zeros(1, dtype=np.int64) for _ in self._coeffs]

    def columns(self, n: int) -> List[np.ndarray]:
        """The columns, covering at least the ids ``1..n``."""
        known = len(self._columns[0]) - 1
        if n > known:
            ids = range(known + 1, n + 1)
            self._columns = [
                np.concatenate(
                    (column, np.array([(a * x + b) % _PRIME for x in ids], dtype=np.int64))
                )
                for column, (a, b) in zip(self._columns, self._coeffs)
            ]
        return self._columns


def order_rows(
    indptr: np.ndarray, items: np.ndarray, keys: np.ndarray, table: HashTable
) -> np.ndarray:
    """Positions of a CSR's rows sorted by min-hash signature.

    ``items`` are non-negative integer codes.  They get dense ids ``1, 2,
    …`` in order of first encounter, the ids :meth:`ShingleHasher.shingles`
    would assign called on each row in turn; a scatter-min of entry
    positions per code finds each code's first entry without sorting the
    entries.  A row's shingle under each hash function is its minimum over
    the row's ids (``_PRIME`` for an empty row), and rows are sorted by
    their shingles, then by ``keys`` (the readers' deterministic key), then
    by position.
    """
    n = len(indptr) - 1
    width = int(items.max()) + 1 if len(items) else 0
    first = np.full(width, len(items), dtype=np.int64)
    np.minimum.at(first, items, np.arange(len(items)))
    dense = np.empty(width, dtype=np.int64)
    dense[np.argsort(first)] = np.arange(1, width + 1)
    ids = dense[items]
    nonempty = indptr[:-1] < indptr[1:]
    starts = indptr[:-1][nonempty]
    minima = []
    for column in table.columns(int(np.count_nonzero(first < len(items)))):
        shingles = np.full(n, _PRIME, dtype=np.int64)
        if len(ids):
            shingles[nonempty] = np.minimum.reduceat(column[ids], starts)
        minima.append(shingles)
    return np.lexsort([np.arange(n), keys] + minima[::-1])


def int_repr_key(values: np.ndarray) -> np.ndarray:
    """An int64 key ordering non-negative ints below ``10**17`` as ``repr``
    orders them (``10`` before ``9``): the digits left-aligned to a common
    width, then the digit count, so a prefix (``1``) sorts before its
    extensions (``10``)."""
    digits = 1 + np.searchsorted(_POWERS, values, side="right")
    width = int(digits.max()) if len(values) else 1
    return (values * _POWERS_FROM_ONE[width - digits]) * (width + 1) + digits


#: 10, 100, …: ``searchsorted`` against them counts a value's extra digits.
_POWERS = 10 ** np.arange(1, 18, dtype=np.int64)
_POWERS_FROM_ONE = np.concatenate(([1], _POWERS))


def shingle_order(
    transactions: Dict[Hashable, Sequence[Item]],
    num_hashes: int = 2,
    seed: int = 2014,
) -> List[Hashable]:
    """Order transaction keys (readers) by their min-hash signature.

    Items get integer codes in first-encounter order and the rows go
    through :func:`order_rows`; ties are broken by a deterministic key of
    the reader id itself (type name, then ``repr``), then by position in
    ``transactions``, so the order is total and stable across runs.
    """
    readers = list(transactions)
    codes: Dict[Item, int] = {}
    items = [
        codes.setdefault(item, len(codes))
        for row in transactions.values()
        for item in row
    ]
    indptr = np.zeros(len(readers) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in transactions.values()], out=indptr[1:])
    by_key = sorted(
        range(len(readers)),
        key=lambda i: (type(readers[i]).__name__, repr(readers[i])),
    )
    keys = np.empty(len(readers), dtype=np.int64)
    keys[by_key] = np.arange(len(readers))
    order = order_rows(
        indptr, np.array(items, dtype=np.int64), keys, HashTable(num_hashes, seed)
    )
    return [readers[i] for i in order.tolist()]


def group_ranges(n: int, size: int, overlap: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Each reader group's row range ``starts[g]:stops[g]`` over ``n``
    ordered readers: groups of ``size`` from the first reader on, up to
    the first group that reaches the end.

    ``overlap`` (the ``p`` of ``VNM_D``, Section 3.2.4) is the fraction of
    readers two *consecutive* groups share; 0 gives the disjoint partition
    used by VNM / VNM_A / VNM_N.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    step = max(1, int(round(size * (1.0 - overlap))))
    starts = np.arange(0, n, step, dtype=np.int64)
    starts = starts[: np.searchsorted(starts + size, n) + 1]
    return starts, np.minimum(starts + size, n)
