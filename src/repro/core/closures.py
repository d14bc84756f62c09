"""Frozen reader closures: the change report's arena.

:meth:`repro.core.execution.Runtime.changed_handles` answers "which
readers may have moved?" with a fixed sequence of numpy calls because
every writer's reader closure (the readers downstream of it in the
overlay) was frozen, once, into :class:`ReaderClosures` — one arena
indexed by *reader slot* rather than by handle, in one of two row kinds
chosen by size.  This module is where those rows live; it knows nothing
about the runtime that compiles them or the registry that drops them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.core.pullrows import ragged_index

#: ``ReaderClosures.bitrow`` of a writer whose closure is not compiled.
MISSING = -(2**62)

#: Bytes up to which a bitset row serves every closure, however few
#: readers it names: ORing a few hundred bytes costs a report less than
#: the numpy calls of a ragged gather and scatter of index rows, so with
#: up to 2 048 reader slots (a shard's overlay) every row is a bitset row.
BITSET_FLOOR = 256


class ReaderClosure:
    """One writer's closure as :meth:`ReaderClosures.row` hands it out:
    ``readers`` the reader handles, ascending, and ``touched`` (every
    overlay handle the closure's walk visited) its key into the
    invalidation registry."""

    __slots__ = ("readers", "touched")

    def __init__(self, readers, touched: FrozenSet[int]) -> None:
        self.readers = readers
        self.touched = touched


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

    ``bitrow[w] == MISSING`` marks a closure not compiled.  Dict-shaped
    towards the invalidation registry (``pop`` / ``clear`` / ``len``),
    like :class:`~repro.core.pullrows.PullRows`: a dropped row stays
    behind as garbage until its store next fills, when live rows are
    compacted to the front.
    """

    __slots__ = (
        "touched", "slots", "slot_of", "bitrow", "start", "count",
        "entries", "used", "bits", "bits_used",
    )

    def __init__(self) -> None:
        self.touched: Dict[int, FrozenSet[int]] = {}
        self.slots = np.empty(0, dtype=np.int64)
        self.slot_of = np.empty(0, dtype=np.int64)
        self.bitrow = np.empty(0, dtype=np.int64)
        self.start = np.empty(0, dtype=np.int64)
        self.count = np.empty(0, dtype=np.int64)
        self.entries = np.empty(1024, dtype=np.int64)
        self.used = 0
        self.bits = np.zeros((4, 0), dtype=np.uint8)
        self.bits_used = 0

    def __len__(self) -> int:
        return len(self.touched)

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
        if readers.size == self.slots.size:
            return
        self.slot_of[readers] = np.arange(readers.size, dtype=np.int64)
        self.slots = readers
        bits = np.zeros((self.bits.shape[0], (readers.size + 7) // 8), dtype=np.uint8)
        bits[:, :self.bits.shape[1]] = self.bits
        self.bits = bits

    def put(self, writer: int, readers, touched: FrozenSet[int]) -> None:
        """Freeze ``writer``'s closure: ``readers`` (reader handles, any
        order, no duplicates) as a bitset row or an index row."""
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
        self.touched[writer] = touched

    def _make_room(self, extra: int) -> None:
        """Compact the live index rows into an arena with room to double."""
        roots = np.flatnonzero(self.bitrow == -1)
        idx, offsets = ragged_index(self.start[roots], self.count[roots])
        entries = np.empty(max(1024, 2 * (idx.size + extra)), dtype=np.int64)
        entries[:idx.size] = self.entries[idx]
        self.start[roots] = offsets
        self.entries = entries
        self.used = idx.size

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
        touched = self.touched.get(writer)
        if touched is None:
            return None
        bitrow = int(self.bitrow[writer])
        if bitrow >= 0:
            slots = np.flatnonzero(np.unpackbits(self.bits[bitrow], count=self.num_slots))
        else:
            start = int(self.start[writer])
            slots = np.sort(self.entries[start:start + self.count[writer]])
        return ReaderClosure(self.slots[slots], touched)

    def pop(self, writer: int, default=None):
        row = self.row(writer)
        if row is None:
            return default
        del self.touched[writer]
        self.bitrow[writer] = MISSING
        self.count[writer] = 0
        return row

    def clear(self) -> None:
        self.touched.clear()
        self.bitrow.fill(MISSING)
        self.count.fill(0)
        self.used = 0
        self.bits_used = 0
