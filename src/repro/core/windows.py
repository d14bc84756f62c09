"""Sliding windows over content streams (paper Section 2.1).

A query's window parameter ``w`` is either *tuple-based* (the last ``c``
writes of each writer are live) or *time-based* (writes within the last ``T``
time units are live).  Window semantics are per-writer: each writer node in
the overlay owns a :class:`WindowBuffer` holding its live values; evicted
values generate "removal" updates that flow through the overlay exactly like
insertions (Section 2.2.2: "...or if the sliding windows shift and values
drop out of the window").

Buffers come in two flavors per policy: the deque-backed object buffers
(any payload) and preallocated **ring buffers** for scalar raws
(``make_buffer(scalar=True)``), which the columnar runtime requests for
aggregates whose column spec declares numeric streams.  Ring buffers keep
their live values in fixed slots that are overwritten in place, expose the
allocation-free :meth:`WindowBuffer.push` fast path (evicted value or the
:data:`NO_VALUE` sentinel, no per-event list), and so compute eviction
deltas without any per-event container churn.

A columnar runtime over a delta aggregate with scalar raws (SUM, MEAN)
keeps every writer's tuple window in one :class:`TupleRing` — a
``[writers, k]`` float64 matrix with a per-row push count (cursor and fill
in one column) — which a vectorised write kernel pushes whole batches
into (:meth:`TupleRing.fold_sorted`).  Its scalar tuple buffers are then
:class:`RingRow` *views* into that matrix, the only copy of the window
contents: they serve the per-event paths and the oracle like any buffer,
and pickle as the detached per-writer buffer (``make_buffer(scalar=True)``)
holding the same values, so checkpoints never carry the matrix.
"""

from __future__ import annotations

import collections
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

import numpy as np


class _NoValueType:
    """Singleton sentinel type with pickle-stable identity.

    Buffers are pickled whole in shard checkpoints; a plain ``object()``
    sentinel would come back as a *different* object, breaking every
    ``is NO_VALUE`` identity check on the restored state.  ``__reduce__``
    returning the global's name makes unpickling resolve to this module's
    one instance instead.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "NO_VALUE"

    def __reduce__(self):
        return "NO_VALUE"


#: Sentinel returned by :meth:`WindowBuffer.push` when nothing was evicted
#: (distinguishable from a legitimately stored ``None`` payload).
NO_VALUE = _NoValueType()


class Window(ABC):
    """Specification of a sliding window (shared by all writers of a query)."""

    @abstractmethod
    def make_buffer(self, scalar: bool = False) -> "WindowBuffer":
        """Create a fresh per-writer buffer implementing this policy.

        ``scalar=True`` requests ring-buffer storage for numeric raws;
        callers should only pass it when every stream value is a number
        (the columnar runtime keys this off the aggregate's
        ``column_spec.scalar_raws``).
        """

    @abstractmethod
    def expected_size(self, write_rate: float = 1.0) -> float:
        """Average number of live values per writer, used by the cost model
        (Section 4.2 assigns writer nodes ``H(w)``/``L(w)`` for window size
        ``w``)."""


@dataclass(frozen=True)
class TupleWindow(Window):
    """Keep the last ``size`` values of each writer (``ROWS c``)."""

    size: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("window size must be >= 1")

    def make_buffer(self, scalar: bool = False) -> "WindowBuffer":
        if scalar:
            if self.size == 1:
                return _ScalarUnitBuffer()
            return _ScalarTupleBuffer(self.size)
        return _TupleBuffer(self.size)

    def expected_size(self, write_rate: float = 1.0) -> float:
        return float(self.size)


@dataclass(frozen=True)
class TimeWindow(Window):
    """Keep values written within the trailing ``duration`` time units."""

    duration: float = 10.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("window duration must be positive")

    def make_buffer(self, scalar: bool = False) -> "WindowBuffer":
        if scalar:
            return _ScalarTimeBuffer(self.duration)
        return _TimeBuffer(self.duration)

    def expected_size(self, write_rate: float = 1.0) -> float:
        return max(1.0, self.duration * write_rate)


class WindowBuffer(ABC):
    """Per-writer live-value store.

    ``append`` returns the values evicted *by this insertion*;
    ``evict_until`` returns values whose lifetime ended at or before the
    given timestamp (time-based windows only — tuple windows never expire on
    the clock).
    """

    @abstractmethod
    def append(self, value: Any, timestamp: float) -> List[Any]:
        ...

    @abstractmethod
    def evict_until(self, timestamp: float) -> List[Any]:
        ...

    @abstractmethod
    def values(self) -> List[Any]:
        """Current live values, oldest first."""

    @abstractmethod
    def next_expiry(self) -> Optional[float]:
        """Timestamp at which the oldest live value expires, if any."""

    def push(self, value: Any, timestamp: float) -> Any:
        """Allocation-free append for tuple-window buffers.

        Returns the single evicted value, or :data:`NO_VALUE` when the
        insertion evicted nothing.  Only valid for policies that evict at
        most one value per insertion (tuple windows); time-window callers
        must use :meth:`append`.  Ring buffers override this with a
        zero-allocation implementation.
        """
        evicted = self.append(value, timestamp)
        return evicted[0] if evicted else NO_VALUE

    def __len__(self) -> int:
        return len(self.values())


class _TupleBuffer(WindowBuffer):
    def __init__(self, size: int) -> None:
        self._size = size
        self._items: Deque[Any] = collections.deque()

    def append(self, value: Any, timestamp: float) -> List[Any]:
        evicted: List[Any] = []
        self._items.append(value)
        while len(self._items) > self._size:
            evicted.append(self._items.popleft())
        return evicted

    def evict_until(self, timestamp: float) -> List[Any]:
        return []

    def values(self) -> List[Any]:
        return list(self._items)

    def next_expiry(self) -> Optional[float]:
        return None


class _TimeBuffer(WindowBuffer):
    def __init__(self, duration: float) -> None:
        self._duration = duration
        self._items: Deque[Tuple[float, Any]] = collections.deque()

    def append(self, value: Any, timestamp: float) -> List[Any]:
        if self._items and timestamp < self._items[-1][0]:
            raise ValueError(
                "timestamps must be non-decreasing within a writer's stream"
            )
        evicted = self.evict_until(timestamp)
        self._items.append((timestamp, value))
        return evicted

    def evict_until(self, timestamp: float) -> List[Any]:
        cutoff = timestamp - self._duration
        evicted: List[Any] = []
        while self._items and self._items[0][0] <= cutoff:
            evicted.append(self._items.popleft()[1])
        return evicted

    def values(self) -> List[Any]:
        return [value for _, value in self._items]

    def next_expiry(self) -> Optional[float]:
        if not self._items:
            return None
        return self._items[0][0] + self._duration

    def __len__(self) -> int:
        return len(self._items)


class _ScalarUnitBuffer(WindowBuffer):
    """``ROWS 1`` (latest value per writer): a one-slot swap.

    The degenerate but very common tuple window — every insertion simply
    replaces the previous value, so :meth:`push` is a two-operation swap.
    """

    __slots__ = ("_slot",)

    def __init__(self) -> None:
        self._slot: Any = NO_VALUE

    def push(self, value: Any, timestamp: float) -> Any:
        old = self._slot
        self._slot = value
        return old

    def append(self, value: Any, timestamp: float) -> List[Any]:
        old = self.push(value, timestamp)
        return [] if old is NO_VALUE else [old]

    def evict_until(self, timestamp: float) -> List[Any]:
        return []

    def values(self) -> List[Any]:
        return [] if self._slot is NO_VALUE else [self._slot]

    def next_expiry(self) -> Optional[float]:
        return None

    def __len__(self) -> int:
        return 0 if self._slot is NO_VALUE else 1


class _ScalarTupleBuffer(WindowBuffer):
    """Tuple window over scalar raws: a fixed-capacity slot ring.

    Live values occupy preallocated slots overwritten in place, so the
    :meth:`push` fast path performs zero container allocation per event —
    the win over the deque buffer is no eviction-list construction and no
    deque block management on the ingestion hot path.
    """

    __slots__ = ("_size", "_slots", "_start", "_count")

    def __init__(self, size: int) -> None:
        self._size = size
        self._slots: List[Any] = [None] * size
        self._start = 0
        self._count = 0

    def push(self, value: Any, timestamp: float) -> Any:
        if self._count == self._size:
            start = self._start
            slots = self._slots
            old = slots[start]
            slots[start] = value
            start += 1
            self._start = 0 if start == self._size else start
            return old
        self._slots[(self._start + self._count) % self._size] = value
        self._count += 1
        return NO_VALUE

    def append(self, value: Any, timestamp: float) -> List[Any]:
        evicted = self.push(value, timestamp)
        return [] if evicted is NO_VALUE else [evicted]

    def evict_until(self, timestamp: float) -> List[Any]:
        return []

    def values(self) -> List[Any]:
        slots = self._slots
        size = self._size
        start = self._start
        return [slots[(start + i) % size] for i in range(self._count)]

    def next_expiry(self) -> Optional[float]:
        return None

    def __len__(self) -> int:
        return self._count


class TupleRing:
    """The tuple windows of every writer of one runtime, as one matrix.

    Row ``r`` is a writer's window: ``values[r]`` has ``size`` float64
    slots and ``pushed[r]`` counts the values the writer has ever pushed.
    The ``i``-th lands in slot ``i % size``, so the window holds the last
    ``min(pushed, size)`` of them, oldest first from slot ``pushed % size``
    once full (from slot 0 until then) — one column is both cursor and
    fill.  ``cells``/``counts`` are flat memoryviews of the same two
    arrays, for per-event accesses (:class:`RingRow`, the runtime's short
    batches: a Python float or int per element, several times cheaper than
    numpy scalar indexing).
    """

    __slots__ = ("size", "values", "pushed", "cells", "counts")

    def __init__(self, rows: int, size: int) -> None:
        self.size = size
        self.values = np.zeros((rows, size), dtype=np.float64)
        self.pushed = np.zeros(rows, dtype=np.int64)
        self.cells = memoryview(self.values.reshape(-1))
        self.counts = memoryview(self.pushed)

    def fold_sorted(self, rows, vals):
        """Push a whole batch: ``rows`` ascending, each writer's events in
        stream order (a stable sort's), ``vals`` aligned.  Returns
        ``(starts, dv, filled)``: each writer's first index into ``rows``,
        the delta of its window sum folded as the per-event ``dv += value
        - old`` would (``dv += value`` into an empty slot, in stream
        order), and how many values went into empty slots.

        Event ``j`` of a writer that had pushed ``p`` values writes slot
        ``(p + j) % size`` and evicts what it held — the matrix's value for
        ``j < size``, the same writer's event ``j - size`` otherwise — and
        one ``np.add.at`` folds the terms in stream order."""
        size, count = self.size, rows.size
        head = np.empty(count, dtype=bool)
        head[0] = True
        np.not_equal(rows[1:], rows[:-1], out=head[1:])
        starts = head.nonzero()[0]
        group = head.cumsum()
        group -= 1
        writers = rows[starts]
        pushed = self.pushed[writers]
        index = np.arange(count)  # becomes each event's push number
        index += (pushed - starts)[group]
        at = index % size
        old = self.values[rows, at]
        again = rows[size:] == rows[:-size]  # event i + size evicts event i
        repeats = again.any()
        if repeats:
            np.copyto(old[size:], vals[:-size], where=again)
        empty = index < size
        old[empty] = 0.0
        dv = np.zeros(writers.size)
        np.add.at(dv, group, vals - old)
        if repeats:
            keep = np.ones(count, dtype=bool)
            np.logical_not(again, out=keep[:-size])
            rows, at, vals = rows[keep], at[keep], vals[keep]
        self.values[rows, at] = vals
        self.pushed[writers] = pushed + np.bincount(group)
        return starts, dv, np.bincount(group[empty], minlength=writers.size)

    def load(self, row: int, buffer: WindowBuffer) -> None:
        """Copy ``buffer``'s window into ``row`` (a view's slots verbatim)."""
        if buffer.__class__ is RingRow:
            self.values[row] = buffer.ring.values[buffer.row]
            self.pushed[row] = buffer.ring.pushed[buffer.row]
            return
        values = buffer.values()
        self.values[row, : len(values)] = values
        self.pushed[row] = len(values)


class RingRow(WindowBuffer):
    """One writer's tuple window: a view of row ``row`` of a
    :class:`TupleRing` (values come back as floats)."""

    __slots__ = ("ring", "row")

    def __init__(self, ring: TupleRing, row: int) -> None:
        self.ring = ring
        self.row = row

    def push(self, value: Any, timestamp: float) -> Any:
        ring, row = self.ring, self.row
        size, counts = ring.size, ring.counts
        pushed = counts[row]
        cell = row * size + pushed % size
        old = ring.cells[cell] if pushed >= size else NO_VALUE
        ring.cells[cell] = value
        counts[row] = pushed + 1
        return old

    def append(self, value: Any, timestamp: float) -> List[Any]:
        evicted = self.push(value, timestamp)
        return [] if evicted is NO_VALUE else [evicted]

    def evict_until(self, timestamp: float) -> List[Any]:
        return []

    def values(self) -> List[Any]:
        ring, row = self.ring, self.row
        size = ring.size
        pushed = ring.counts[row]
        slots = ring.cells[row * size : (row + 1) * size].tolist()
        if pushed < size:
            return slots[:pushed]
        start = pushed % size
        return slots[start:] + slots[:start]

    def next_expiry(self) -> Optional[float]:
        return None

    def __len__(self) -> int:
        return min(self.ring.counts[self.row], self.ring.size)

    def __reduce__(self):
        # Pickled (and copied) as the detached buffer: checkpoints keep
        # their per-writer shape and never carry the matrix.
        return (_detached, (self.ring.size, self.values()))


def _detached(size: int, values: List[Any]) -> WindowBuffer:
    """The standalone scalar buffer of a ``TupleWindow(size)`` holding
    ``values`` (oldest first) — what a :class:`RingRow` unpickles as."""
    buffer = TupleWindow(size).make_buffer(scalar=True)
    for value in values:
        buffer.push(value, 0.0)
    return buffer


class _ScalarTimeBuffer(WindowBuffer):
    """Time window over scalar raws: a growable slot ring of (ts, value).

    Semantics mirror :class:`_TimeBuffer` exactly — non-decreasing
    timestamps enforced, an append first evicts everything at or past the
    cutoff — but entries live in amortized-doubling preallocated slots
    instead of per-entry deque tuples.
    """

    __slots__ = ("_duration", "_ts", "_vals", "_start", "_count")

    def __init__(self, duration: float) -> None:
        self._duration = duration
        self._ts: List[float] = [0.0] * 16
        self._vals: List[Any] = [None] * 16
        self._start = 0
        self._count = 0

    def _grow(self) -> None:
        capacity = len(self._ts)
        start = self._start
        order = [(start + i) % capacity for i in range(self._count)]
        self._ts = [self._ts[i] for i in order] + [0.0] * capacity
        self._vals = [self._vals[i] for i in order] + [None] * capacity
        self._start = 0

    def append(self, value: Any, timestamp: float) -> List[Any]:
        count = self._count
        if count:
            last = self._ts[(self._start + count - 1) % len(self._ts)]
            if timestamp < last:
                raise ValueError(
                    "timestamps must be non-decreasing within a writer's stream"
                )
        evicted = self.evict_until(timestamp)
        if self._count == len(self._ts):
            self._grow()
        slot = (self._start + self._count) % len(self._ts)
        self._ts[slot] = timestamp
        self._vals[slot] = value
        self._count += 1
        return evicted

    def evict_until(self, timestamp: float) -> List[Any]:
        cutoff = timestamp - self._duration
        evicted: List[Any] = []
        ts = self._ts
        vals = self._vals
        capacity = len(ts)
        start = self._start
        count = self._count
        while count and ts[start] <= cutoff:
            evicted.append(vals[start])
            start = (start + 1) % capacity
            count -= 1
        self._start = start
        self._count = count
        return evicted

    def values(self) -> List[Any]:
        vals = self._vals
        capacity = len(vals)
        start = self._start
        return [vals[(start + i) % capacity] for i in range(self._count)]

    def next_expiry(self) -> Optional[float]:
        if not self._count:
            return None
        return self._ts[self._start] + self._duration

    def __len__(self) -> int:
        return self._count
