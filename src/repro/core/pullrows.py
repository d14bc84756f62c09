"""Frozen pull rows: the read side's dual of the write side's scatter table.

The columnar read kernel (:meth:`repro.core.execution.Runtime.read_handles`)
evaluates a batch of readers with a handful of numpy calls because each
reader's pull subtree was flattened, once, into a :class:`PullRow`; this
module is where those rows live — :class:`PullRows`, one growable arena
indexed by overlay handle — and knows nothing about the runtime that
compiles them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.columns import ragged_index


class PullRow:
    """One reader's evaluation, frozen for the handle-space read kernel.

    The reader's pull subtree flattened to its push-frontier leaves:
    ``leaf`` holds the distinct push handles whose stored values the read
    gathers, ``coeff`` their cumulative signed coefficients (the signed
    number of overlay paths to the reader; net-zero leaves are dropped).
    A push reader's row is itself.  ``observe`` holds every handle the
    evaluation visits, each once: the row's dependency set (the whole
    subtree), so a change to any of those handles drops the row.  Rows
    live ragged in :class:`PullRows`; this is the view :meth:`PullRows.row`
    hands out.
    """

    __slots__ = ("leaf", "coeff", "observe")

    def __init__(self, leaf, coeff, observe) -> None:
        self.leaf = leaf
        self.coeff = coeff
        self.observe = observe


def compact(arena, starts, counts, extra: int):
    """The ragged rows ``starts`` / ``counts`` of ``arena`` (rows along its
    last axis) copied to the front of a new arena with room to double:
    ``(arena, the rows' new starts, entries used)``."""
    idx, offsets = ragged_index(starts, counts)
    size = max(1024, 2 * (idx.size + extra))
    out = np.empty(arena.shape[:-1] + (size,), dtype=arena.dtype)
    out[..., :idx.size] = arena[..., idx]
    return out, offsets, idx.size


def rows_hit(arena, starts, counts, dirty):
    """Which of the non-empty ragged rows ``starts`` / ``counts`` of the
    handle column ``arena`` name a handle marked in ``dirty`` (a boolean
    mask over the handle space): one gather and one ``reduceat``."""
    idx, offsets = ragged_index(starts, counts)
    return np.logical_or.reduceat(dirty[arena[idx]], offsets)


class PullRows:
    """Every compiled :class:`PullRow`, ragged in one growable arena — the
    read side's dual of the runtime's scatter table.

    ``entries`` is ``(handle, weight)`` columns; reader ``h``'s row is
    ``meta[:, h] = (start, leaves, observes, ops)``: ``leaves`` ``(leaf,
    coeff)`` entries from ``start``, then ``observes`` entries whose
    handle is an observed one (their weight is 0); ``ops`` is the
    work-counter credit of one evaluation and ``start < 0`` marks a row
    not compiled.  A row's observe entries are its dependency set, which
    :meth:`invalidate` scans.  A dropped row's entries stay behind as garbage until the
    arena next fills, when live rows are compacted to the front.
    """

    __slots__ = ("meta", "entries", "used")

    def __init__(self, num_handles: int = 0) -> None:
        self.meta = np.full((4, num_handles), -1, dtype=np.int64)
        self.entries = np.empty((2, 1024), dtype=np.int64)
        self.used = 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self.meta[0] >= 0))

    def roots(self):
        """The handles whose row is compiled, ascending."""
        return np.flatnonzero(self.meta[0] >= 0)

    def resize(self, num_handles: int) -> None:
        """Cover a grown handle space (existing rows keep their handles)."""
        grow = num_handles - self.meta.shape[1]
        if grow > 0:
            self.meta = np.concatenate(
                [self.meta, np.full((4, grow), -1, dtype=np.int64)], axis=1
            )

    def put(self, root, leaf, coeff, observe, ops) -> None:
        size = len(leaf) + len(observe)
        if self.used + size > self.entries.shape[1]:
            self._make_room(size)
        start = self.used
        self.entries[0, start:start + size] = leaf + observe
        self.entries[1, start:start + size] = coeff + [0] * len(observe)
        self.meta[:, root] = (start, len(leaf), len(observe), ops)
        self.used = start + size

    def _make_room(self, extra: int) -> None:
        """Compact the live rows into an arena with room to double."""
        roots = self.roots()
        start, leaves, observes, _ops = self.meta[:, roots]
        self.entries, self.meta[0, roots], self.used = compact(
            self.entries, start, leaves + observes, extra
        )

    def row(self, root: int) -> Optional[PullRow]:
        if root >= self.meta.shape[1] or self.meta[0, root] < 0:
            return None
        start, leaves, observes, _ops = self.meta[:, root].tolist()
        mid, end = start + leaves, start + leaves + observes
        handle, weight = self.entries
        return PullRow(
            handle[start:mid].copy(), weight[start:mid].copy(), handle[mid:end].copy()
        )

    def invalidate(self, dirty) -> int:
        """Drop every row that observes a handle marked in ``dirty`` (a
        boolean mask over the handle space); returns how many went.  A
        row observes at least its root, so no observe row is empty."""
        roots = self.roots()
        if not roots.size:
            return 0
        start, leaves, observes, _ops = self.meta[:, roots]
        doomed = roots[rows_hit(self.entries[0], start + leaves, observes, dirty)]
        self.meta[:, doomed] = -1
        return doomed.size

    def clear(self) -> None:
        self.meta.fill(-1)
        self.used = 0
