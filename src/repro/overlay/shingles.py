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
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

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


def shingle_order(
    transactions: Dict[Hashable, Sequence[Item]],
    num_hashes: int = 2,
    seed: int = 2014,
) -> List[Hashable]:
    """Order transaction keys (readers) by their min-hash signature.

    Each distinct item is hashed once per hash function: items get dense
    ids in first-encounter order over the transactions (the ids
    :meth:`ShingleHasher.shingles` would assign called on each transaction
    in turn), every hash function becomes an item → hash table, and a
    transaction's shingle is its minimum over that table.  An empty
    transaction's shingles are ``_PRIME``.  Ties are broken by a
    deterministic key of the reader id itself, then by position in
    ``transactions``, so the order is total and stable across runs.
    """
    coeffs = ShingleHasher(num_hashes=num_hashes, seed=seed)._coeffs
    items = dict.fromkeys(itertools.chain.from_iterable(transactions.values()))
    tables = [
        {item: (a * x + b) % _PRIME for x, item in enumerate(items, 1)}
        for a, b in coeffs
    ]
    readers = list(transactions)
    rows = list(transactions.values())
    minima = [
        [min(map(table.__getitem__, row), default=_PRIME) for row in rows]
        for table in tables
    ]
    keyed = sorted(
        zip(
            zip(*minima),
            [type(reader).__name__ for reader in readers],
            map(repr, readers),
            range(len(readers)),
        )
    )
    return [readers[entry[-1]] for entry in keyed]


def chunk(ordered: Sequence[Hashable], size: int, overlap: float = 0.0) -> List[List[Hashable]]:
    """Split an ordered reader list into groups of ``size``.

    ``overlap`` (the ``p`` of ``VNM_D``, Section 3.2.4) is the fraction of
    readers two *consecutive* groups share; 0 gives the disjoint partition
    used by VNM / VNM_A / VNM_N.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    step = max(1, int(round(size * (1.0 - overlap))))
    groups: List[List[Hashable]] = []
    start = 0
    n = len(ordered)
    while start < n:
        group = list(ordered[start : start + size])
        groups.append(group)
        if start + size >= n:
            break
        start += step
    return groups
