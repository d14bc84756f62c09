"""Frozen reader closures: the change report's arena.

:meth:`repro.core.execution.Runtime.changed_handles` answers "which
readers may have moved?" with a fixed sequence of numpy calls because
every writer's reader closure (the readers downstream of it in the
overlay) was frozen, once, into :class:`ReaderClosures` — one arena
indexed by *reader slot* rather than by handle, in one of two row kinds
chosen by size.  This module is where those rows live; it knows nothing
about the runtime that compiles them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.pullrows import compact, rows_hit

#: ``ReaderClosures.bitrow`` of a writer whose closure is not compiled.
MISSING = -(2**62)

#: Bytes up to which a bitset row serves every closure, however few
#: readers it names: ORing a few hundred bytes costs a report less than
#: the numpy calls of a ragged gather and scatter of index rows, so with
#: up to 2 048 reader slots (a shard's overlay) every row is a bitset row.
BITSET_FLOOR = 256


class ReaderClosure:
    """One writer's closure as :meth:`ReaderClosures.row` hands it out:
    ``readers`` the reader handles, ascending."""

    __slots__ = ("readers",)

    def __init__(self, readers) -> None:
        self.readers = readers


class ReaderClosures:
    """Every compiled reader closure, frozen in one arena over reader slots.

    Readers are numbered in ascending handle order: ``slots[s]`` is the
    handle of slot ``s`` and ``slot_of[h]`` the slot of handle ``h`` (-1
    for writers and partials), so ascending slot is ascending handle.
    Handles only grow, so a grown handle space appends slots and every
    stored row keeps its meaning.

    Writer ``w``'s closure is one of two row kinds, whichever is smaller:

    * a **bitset row** — row ``bitrow[w]`` of ``bits``, a packed bitset
      over all slots (``np.packbits`` order), which the report ORs;
    * an **index row** (``bitrow[w] == -1``) — ``count[w]`` slots in
      ``entries`` from ``start[w]`` (int64, what a scatter indexes with no
      conversion), which the report scatters.  A closure is one only
      while its index row takes no more bytes than the bitset and the
      bitset is wider than :data:`BITSET_FLOOR`; a bitset row has
      ``count[w] == 0``, so a ragged gather over ``start`` / ``count``
      skips it.

    ``bitrow[w] == MISSING`` marks a closure not compiled.

    Every compiled closure also keeps its dependency set — the handles
    its walk visited — as ``dep_count[w]`` handles in ``deps`` from
    ``dep_start[w]``; :meth:`invalidate` scans those rows.  Like
    :class:`~repro.core.pullrows.PullRows`, a dropped row stays behind as
    garbage until its store next fills, when live rows are compacted to
    the front.
    """

    __slots__ = (
        "slots", "slot_of", "bitrow", "start", "count", "entries", "used",
        "bits", "bits_used", "dep_start", "dep_count", "deps", "deps_used",
    )

    def __init__(self) -> None:
        self.slots = np.empty(0, dtype=np.int64)
        self.slot_of = np.empty(0, dtype=np.int64)
        self.bitrow = np.empty(0, dtype=np.int64)
        self.start = np.empty(0, dtype=np.int64)
        self.count = np.empty(0, dtype=np.int64)
        self.entries = np.empty(1024, dtype=np.int64)
        self.used = 0
        self.bits = np.zeros((4, 0), dtype=np.uint8)
        self.bits_used = 0
        self.dep_start = np.empty(0, dtype=np.int64)
        self.dep_count = np.empty(0, dtype=np.int64)
        self.deps = np.empty(1024, dtype=np.int64)
        self.deps_used = 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self.bitrow != MISSING))

    def roots(self):
        """The writers whose closure is compiled, ascending."""
        return np.flatnonzero(self.bitrow != MISSING)

    @property
    def num_slots(self) -> int:
        return self.slots.size

    def resize(self, num_handles: int, readers) -> None:
        """Cover a grown handle space whose reader handles, ascending, are
        ``readers`` (an int array extending the current :attr:`slots`)."""
        grow = num_handles - self.bitrow.size
        if grow > 0:
            self.bitrow = np.concatenate([self.bitrow, np.full(grow, MISSING, np.int64)])
            self.start = np.concatenate([self.start, np.zeros(grow, np.int64)])
            self.count = np.concatenate([self.count, np.zeros(grow, np.int64)])
            self.slot_of = np.concatenate([self.slot_of, np.full(grow, -1, np.int64)])
            self.dep_start = np.concatenate([self.dep_start, np.zeros(grow, np.int64)])
            self.dep_count = np.concatenate([self.dep_count, np.zeros(grow, np.int64)])
        if readers.size == self.slots.size:
            return
        self.slot_of[readers] = np.arange(readers.size, dtype=np.int64)
        self.slots = readers
        bits = np.zeros((self.bits.shape[0], (readers.size + 7) // 8), dtype=np.uint8)
        bits[:, :self.bits.shape[1]] = self.bits
        self.bits = bits

    def put(self, writer: int, readers, deps) -> None:
        """Freeze ``writer``'s closure: ``readers`` (reader handles, any
        order, no duplicates) as a bitset row or an index row, and
        ``deps`` (every handle the walk visited, the writer among them)
        as its dependency row."""
        # The dependency row first: its compaction must not count
        # ``writer`` live before the row exists.
        deps = np.fromiter(deps, dtype=np.int64, count=len(deps))
        if self.deps_used + deps.size > self.deps.size:
            self._make_dep_room(deps.size)
        start = self.deps_used
        self.deps[start:start + deps.size] = deps
        self.dep_start[writer] = start
        self.dep_count[writer] = deps.size
        self.deps_used = start + deps.size
        slots = self.slot_of[np.asarray(readers, dtype=np.int64)]
        size = slots.size
        width = self.bits.shape[1]
        if size * slots.itemsize > width or width <= BITSET_FLOOR:
            if self.bits_used == self.bits.shape[0]:
                self._make_bit_room()
            mark = np.zeros(self.slots.size, dtype=np.bool_)
            mark[slots] = True
            self.bits[self.bits_used] = np.packbits(mark)
            self.bitrow[writer] = self.bits_used
            self.count[writer] = 0
            self.bits_used += 1
        else:
            if self.used + size > self.entries.size:
                self._make_room(size)
            start = self.used
            self.entries[start:start + size] = slots
            self.bitrow[writer] = -1
            self.start[writer] = start
            self.count[writer] = size
            self.used = start + size

    def _make_room(self, extra: int) -> None:
        """Compact the live index rows into an arena with room to double."""
        roots = np.flatnonzero(self.bitrow == -1)
        self.entries, self.start[roots], self.used = compact(
            self.entries, self.start[roots], self.count[roots], extra
        )

    def _make_dep_room(self, extra: int) -> None:
        """Compact the live dependency rows into an arena with room to
        double."""
        roots = self.roots()
        self.deps, self.dep_start[roots], self.deps_used = compact(
            self.deps, self.dep_start[roots], self.dep_count[roots], extra
        )

    def _make_bit_room(self) -> None:
        """Compact the live bitset rows into a matrix with room to double."""
        roots = np.flatnonzero(self.bitrow >= 0)
        rows = self.bitrow[roots]
        bits = np.zeros((max(4, 2 * (rows.size + 1)), self.bits.shape[1]), np.uint8)
        bits[:rows.size] = self.bits[rows]
        self.bitrow[roots] = np.arange(rows.size, dtype=np.int64)
        self.bits = bits
        self.bits_used = rows.size

    def row(self, writer: int) -> Optional[ReaderClosure]:
        if writer >= self.bitrow.size or self.bitrow[writer] == MISSING:
            return None
        bitrow = int(self.bitrow[writer])
        if bitrow >= 0:
            slots = np.flatnonzero(np.unpackbits(self.bits[bitrow], count=self.num_slots))
        else:
            start = int(self.start[writer])
            slots = np.sort(self.entries[start:start + self.count[writer]])
        return ReaderClosure(self.slots[slots])

    def invalidate(self, dirty) -> int:
        """Drop every closure whose walk visited a handle marked in
        ``dirty`` (a boolean mask over the handle space); returns how many
        went.  A dependency row holds at least its writer."""
        roots = self.roots()
        if not roots.size:
            return 0
        hit = rows_hit(self.deps, self.dep_start[roots], self.dep_count[roots], dirty)
        doomed = roots[hit]
        self.bitrow[doomed] = MISSING
        self.count[doomed] = 0
        return doomed.size

    def clear(self) -> None:
        self.bitrow.fill(MISSING)
        self.count.fill(0)
        self.used = 0
        self.bits_used = 0
        self.deps_used = 0
