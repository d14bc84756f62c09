"""Frozen pull rows: the read side's dual of the write side's scatter table.

The columnar read kernel (:meth:`repro.core.execution.Runtime.read_handles`)
evaluates a batch of readers with a handful of numpy calls because each
reader's pull subtree was flattened, once, into a :class:`PullRow`; this
module is where those rows live — :class:`PullRows`, one growable arena
indexed by overlay handle — and knows nothing about the runtime that
compiles them or the registry that drops them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np


class PullRow:
    """One reader's evaluation, frozen for the handle-space read kernel.

    The reader's pull subtree flattened to its push-frontier leaves:
    ``leaf`` holds the distinct push handles whose stored values the read
    gathers, ``coeff`` their cumulative signed coefficients (the signed
    number of overlay paths to the reader; net-zero leaves are dropped).
    ``observe`` / ``credit`` are the handles a sequential
    evaluation observes and how often — what keeps the adaptive
    controller's pull frequencies equal to interpreted execution.  A push
    reader's row is itself.  ``touched`` (the whole subtree) indexes the
    row into the invalidation registry.  Rows live ragged in
    :class:`PullRows`; this is the view :meth:`PullRows.row` hands out.
    """

    __slots__ = ("leaf", "coeff", "observe", "credit", "touched")

    def __init__(self, leaf, coeff, observe, credit, touched) -> None:
        self.leaf = leaf
        self.coeff = coeff
        self.observe = observe
        self.credit = credit
        self.touched = touched


def ragged_index(starts, counts):
    """``(idx, offsets)``: flat indices of the ragged rows
    ``starts[i] : starts[i] + counts[i]``, rows in input order, and each
    row's offset into ``idx``."""
    ends = np.cumsum(counts)
    offsets = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    idx = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    return idx, offsets


def csr_indptr(lengths):
    """The CSR row pointers of rows ``lengths`` long."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


class PullRows:
    """Every compiled :class:`PullRow`, ragged in one growable arena — the
    read side's dual of the runtime's scatter table.

    ``entries`` is ``(handle, weight)`` columns; reader ``h``'s row is
    ``meta[:, h] = (start, leaves, observes, ops)``: ``leaves`` ``(leaf,
    coeff)`` entries from ``start``, then ``observes`` ``(observe,
    credit)`` entries; ``ops`` is the work-counter credit of one
    evaluation and ``start < 0`` marks a row not compiled.  Dict-shaped
    towards the invalidation registry (``pop`` / ``clear`` / ``len``): a
    dropped row's entries stay behind as garbage until the arena next
    fills, when live rows are compacted to the front.
    """

    __slots__ = ("touched", "meta", "entries", "used")

    def __init__(self, num_handles: int = 0) -> None:
        self.touched: Dict[int, FrozenSet[int]] = {}
        self.meta = np.full((4, num_handles), -1, dtype=np.int64)
        self.entries = np.empty((2, 1024), dtype=np.int64)
        self.used = 0

    def __len__(self) -> int:
        return len(self.touched)

    def resize(self, num_handles: int) -> None:
        """Cover a grown handle space (existing rows keep their handles)."""
        grow = num_handles - self.meta.shape[1]
        if grow > 0:
            self.meta = np.concatenate(
                [self.meta, np.full((4, grow), -1, dtype=np.int64)], axis=1
            )

    def put(self, root, leaf, coeff, observe, credit, ops, touched) -> None:
        size = len(leaf) + len(observe)
        if self.used + size > self.entries.shape[1]:
            self._make_room(size)
        start = self.used
        self.entries[0, start:start + size] = leaf + observe
        self.entries[1, start:start + size] = coeff + credit
        self.meta[:, root] = (start, len(leaf), len(observe), ops)
        self.used = start + size
        self.touched[root] = touched

    def _make_room(self, extra: int) -> None:
        """Compact the live rows into an arena with room to double."""
        roots = np.flatnonzero(self.meta[0] >= 0)
        start, leaves, observes, _ops = self.meta[:, roots]
        idx, offsets = ragged_index(start, leaves + observes)
        entries = np.empty((2, max(1024, 2 * (idx.size + extra))), dtype=np.int64)
        entries[:, :idx.size] = self.entries[:, idx]
        self.meta[0, roots] = offsets
        self.entries = entries
        self.used = idx.size

    def row(self, root: int) -> Optional[PullRow]:
        touched = self.touched.get(root)
        if touched is None:
            return None
        start, leaves, observes, _ops = self.meta[:, root].tolist()
        mid, end = start + leaves, start + leaves + observes
        handle, weight = self.entries
        return PullRow(
            handle[start:mid].copy(), weight[start:mid].copy(),
            handle[mid:end].copy(), weight[mid:end].copy(), touched,
        )

    def pop(self, root: int, default=None):
        row = self.row(root)
        if row is None:
            return default
        del self.touched[root]
        self.meta[:, root] = -1
        return row

    def clear(self) -> None:
        self.touched.clear()
        self.meta.fill(-1)
        self.used = 0
