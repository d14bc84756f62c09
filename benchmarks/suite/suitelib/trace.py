"""In-memory span tracer for the traced run (``--trace 1``).

Spans are recorded from the suite's own files, around the calls into each
layer's public functions; nothing under ``src/`` is edited.  A span is
``[id, name, start, end, parent, rid]``: ``parent`` is the id of the span
that was open on the same thread when this one started (``None`` at the
root) and ``rid`` is shared by every span of one batch.

A span's *self time* is its duration minus the part of that interval its
child spans cover (children that overlap each other are counted once).
Per-name counts and totals are exact; the spans *stored* for the trace
file are thinned to at most ``STORED_PER_NAME`` per name and thread, so a
file stays well under 4 MB however long the run.

With tracing off, :meth:`Tracer.wrap` returns the function it was given,
so the untraced run pays nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

STORED_PER_NAME = 4000

_clock = time.perf_counter


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[list] = []      # open spans: [id, name, start, rid, children]
        self.rid: Any = None
        self.totals: Dict[str, List[float]] = {}   # name -> [count, total, self]
        self.stored: Dict[str, List[list]] = {}
        self.stride: Dict[str, int] = {}


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = _clock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def set_rid(self, rid: Any) -> None:
        """Request id of the spans this thread opens from now on."""
        if self.enabled:
            self._state().rid = rid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as span ``name`` on every call (or ``fn``
        itself when tracing is off)."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            state = self._state()
            span = self._open(state, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(state, span, _clock())

        return traced

    def add(self, name: str, start: float, end: float, rid: Any = None) -> None:
        """Record a span timed by the caller (e.g. due time → delivery,
        which no single call brackets).  It has no parent."""
        if self.enabled:
            state = self._state()
            self._record(state, next(self._ids), name, start, end, None, rid, end - start)

    def _open(self, state: _ThreadState, name: str) -> list:
        span = [next(self._ids), name, 0.0, state.rid, []]
        state.stack.append(span)
        span[2] = _clock()
        return span

    def _close(self, state: _ThreadState, span: list, end: float) -> None:
        span_id, name, start, rid, children = span
        state.stack.pop()
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[4].append((start, end))
        duration = end - start
        self_time = duration - covered(children, start, end) if children else duration
        self._record(
            state, span_id, name, start, end,
            parent[0] if parent is not None else None, rid, self_time,
        )

    def _record(self, state, span_id, name, start, end, parent, rid, self_time) -> None:
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0.0, 0.0]
            state.stored[name] = []
            state.stride[name] = 1
        totals[0] += 1
        totals[1] += end - start
        totals[2] += self_time
        if totals[0] % state.stride[name] == 0:
            stored = state.stored[name]
            stored.append([span_id, name, start, end, parent, rid])
            if len(stored) >= STORED_PER_NAME:
                del stored[::2]
                state.stride[name] *= 2

    # -- reading -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Exact per-name ``count`` / ``total_s`` / ``self_s`` over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        for state in list(self._states):
            # list(): another thread may record its first span of a name meanwhile
            for name, (count, total, self_time) in list(state.totals.items()):
                row = merged.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                row["count"] += count
                row["total_s"] += total
                row["self_s"] += self_time
        return merged

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Measured cost of recording one span on this machine: the
        difference between a wrapped and a bare no-op call.  Recorded in a
        throwaway tracer so the calibration leaves no spans behind."""
        scratch = Tracer(True)

        def noop():
            return None

        traced = scratch.wrap("calibrate", noop)
        start = _clock()
        for _ in range(calls):
            noop()
        bare = _clock() - start
        start = _clock()
        for _ in range(calls):
            traced()
        return max(0.0, (_clock() - start - bare) / calls)

    def dump(self, path: str, header: Optional[dict] = None) -> None:
        """Write totals and the stored spans (times relative to the
        tracer's origin, microsecond resolution) as JSON."""
        spans = []
        for state in list(self._states):
            for stored in state.stored.values():
                for span_id, name, start, end, parent, rid in stored:
                    spans.append([
                        span_id, name,
                        round(start - self.origin, 6), round(end - self.origin, 6),
                        parent, rid,
                    ])
        spans.sort(key=lambda span: span[2])
        with open(path, "w") as handle:
            json.dump(
                {
                    **(header or {}),
                    "span_format": ["id", "name", "start", "end", "parent", "rid"],
                    "totals": self.totals(),
                    "spans": spans,
                },
                handle,
                separators=(",", ":"),
            )
