"""Slot-backed metrics registry: counters, gauges, log-bucket histograms.

Every metric registered with a :class:`MetricsRegistry` is assigned a
contiguous range of slots in one flat numpy float64 value array.  That
flat layout is the whole trick:

* an increment is one indexed ``+=`` — no dict lookup on the hot path,
  because call sites hold the metric object, which caches its offset;
* a snapshot is one array copy;
* publishing a shard's metrics into a shared-memory slab is one bulk
  assign, and scraping it back is one bulk read (``slab.py``);
* merging shards is elementwise addition of same-schema arrays.

Histograms are fixed-bucket and log-scaled in **microseconds**: bucket 0
counts observations below 1 µs, bucket *i* (1 ≤ i < 47) counts
``[2**(i-1), 2**i)`` µs, and the last bucket is the overflow catch-all
(≥ ~19 hours — nothing a serving path should ever see).  Bucketing an
observation is ``int(us).bit_length()`` — no log calls, no search.
Quantiles are recovered by a cumulative walk with linear interpolation
inside the landing bucket; at 2x-wide buckets the worst-case quantile
error is a factor of 2, which is exactly the resolution a latency SLO
needs (is p99 ~1 ms or ~30 ms?) at 49 slots per histogram.

A registry constructed with ``enabled=False`` hands out process-wide
no-op metric singletons, so the metrics-off cost of an instrumented call
site is one method call that immediately returns — cheap enough that
instrumentation never needs an ``if`` guard of its own.

Metric updates are not locked.  CPython's eval loop makes the indexed
``+=`` races between threads lose at most an update under contention,
which is an acceptable drift for observability counters; everything
whose exactness the serving tier *relies on* (stamps, watermarks, WAL
sequence numbers) stays outside this registry.
"""

from __future__ import annotations

from collections import deque
from time import monotonic

import numpy as np

#: Number of count buckets per histogram (excluding the sum slot).
HIST_BUCKETS = 48
#: Slots a histogram occupies: one running sum (seconds) + the buckets.
_HIST_SLOTS = 1 + HIST_BUCKETS
#: Highest finite bucket index; observations >= 2**(HIST_BUCKETS-2) µs
#: land in the overflow bucket HIST_BUCKETS-1.
_OVERFLOW = HIST_BUCKETS - 1

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

_WIDTHS = {KIND_COUNTER: 1, KIND_GAUGE: 1, KIND_HISTOGRAM: _HIST_SLOTS}


def bucket_index(seconds):
    """Map a duration in seconds to its histogram bucket index."""
    us = int(seconds * 1e6)
    if us < 1:
        return 0
    idx = us.bit_length()
    return idx if idx < _OVERFLOW else _OVERFLOW


def bucket_bounds_us():
    """Upper bounds (exclusive) of each bucket, in µs; last is ``inf``.

    Bucket 0 is ``[0, 1)``, bucket i is ``[2**(i-1), 2**i)`` and the
    overflow bucket has an infinite upper bound.
    """
    bounds = [1.0] + [float(2 ** i) for i in range(1, _OVERFLOW)]
    bounds.append(float("inf"))
    return bounds


def percentile_from_buckets(counts, q):
    """Recover the q-quantile (0..1) in **seconds** from bucket counts.

    Walks the cumulative distribution and linearly interpolates inside
    the landing bucket.  Empty histograms report 0.0 (finite — callers
    asserting "p99 is present and finite" must not trip on an idle
    server), and observations in the overflow bucket report the last
    finite boundary.
    """
    total = 0.0
    for c in counts:
        total += c
    if total <= 0.0:
        return 0.0
    rank = q * total
    bounds = bucket_bounds_us()
    cum = 0.0
    for i, c in enumerate(counts):
        if c <= 0.0:
            continue
        if cum + c >= rank:
            lo = 0.0 if i == 0 else float(2 ** (i - 1))
            hi = bounds[i]
            if hi == float("inf"):  # overflow bucket: clamp to its floor
                return lo / 1e6
            frac = (rank - cum) / c
            return (lo + (hi - lo) * frac) / 1e6
        cum += c
    last = len(counts) - 1
    return (float(2 ** (last - 1)) if last > 0 else 1.0) / 1e6


class Counter:
    """Monotonically increasing float64 slot."""

    __slots__ = ("_reg", "_off", "name", "enabled")

    def __init__(self, reg, off, name):
        self._reg = reg
        self._off = off
        self.name = name
        self.enabled = True

    def inc(self, n=1.0):
        self._reg._values[self._off] += n

    @property
    def value(self):
        return float(self._reg._values[self._off])


class Gauge:
    """Last-write-wins float64 slot."""

    __slots__ = ("_reg", "_off", "name", "enabled")

    def __init__(self, reg, off, name):
        self._reg = reg
        self._off = off
        self.name = name
        self.enabled = True

    def set(self, v):
        self._reg._values[self._off] = float(v)

    def add(self, n=1.0):
        self._reg._values[self._off] += n

    @property
    def value(self):
        return float(self._reg._values[self._off])


class Histogram:
    """Log-bucketed latency histogram over ``_HIST_SLOTS`` slots.

    Slot layout (relative to the metric offset): ``[sum_seconds,
    bucket_0, ..., bucket_47]``.  ``count`` is the bucket total — there
    is deliberately no separate count slot a torn scrape could leave
    inconsistent with the buckets.
    """

    __slots__ = ("_reg", "_off", "name", "enabled")

    def __init__(self, reg, off, name):
        self._reg = reg
        self._off = off
        self.name = name
        self.enabled = True

    def observe(self, seconds):
        values = self._reg._values
        off = self._off
        values[off] += seconds
        values[off + 1 + bucket_index(seconds)] += 1.0

    @property
    def sum(self):
        return float(self._reg._values[self._off])

    @property
    def count(self):
        return float(sum(self.counts()))

    def counts(self):
        off = self._off
        return [float(v) for v in self._reg._values[off + 1:off + 1 + HIST_BUCKETS]]

    def percentile(self, q):
        return percentile_from_buckets(self.counts(), q)

    def summary(self):
        counts = self.counts()
        return {
            "count": float(sum(counts)),
            "sum": self.sum,
            "p50": percentile_from_buckets(counts, 0.50),
            "p95": percentile_from_buckets(counts, 0.95),
            "p99": percentile_from_buckets(counts, 0.99),
        }


class _NullMetric:
    """Shared no-op metric handed out by disabled registries."""

    __slots__ = ()
    enabled = False
    name = "<disabled>"
    sum = 0.0
    count = 0.0
    value = 0.0

    def inc(self, n=1.0):
        pass

    def set(self, v):
        pass

    def add(self, n=1.0):
        pass

    def observe(self, seconds):
        pass

    def counts(self):
        return [0.0] * HIST_BUCKETS

    def percentile(self, q):
        return 0.0

    def summary(self):
        return {"count": 0.0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


_NULL = _NullMetric()


class MetricsRegistry:
    """Ordered registry of metrics over one flat float64 value array.

    Registration order defines slot layout, so two registries that make
    the same ``counter``/``gauge``/``histogram`` calls in the same order
    are layout-compatible: one can :meth:`load_values` an array snapshot
    taken from the other (this is how the front-end decodes a shard's
    shared-memory slab — see ``schema.declare_shard_metrics``).
    """

    def __init__(self, enabled=True):
        self.enabled = bool(enabled)
        self._metrics = {}
        self._order = []  # [(name, kind, offset)] in registration order
        self._n_slots = 0
        self._values = np.zeros(0, dtype=np.float64)

    # -- registration -------------------------------------------------
    def _register(self, name, kind, cls):
        metric = self._metrics.get(name)
        if metric is not None:
            if not self.enabled:
                return metric
            if self._kind_of(name) != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {self._kind_of(name)}"
                )
            return metric
        if not self.enabled:
            self._metrics[name] = _NULL
            self._order.append((name, kind, self._n_slots))
            self._n_slots += _WIDTHS[kind]
            return _NULL
        off = self._n_slots
        self._n_slots += _WIDTHS[kind]
        grown = np.zeros(self._n_slots, dtype=np.float64)
        grown[: len(self._values)] = self._values
        self._values = grown
        metric = cls(self, off, name)
        self._metrics[name] = metric
        self._order.append((name, kind, off))
        return metric

    def _kind_of(self, name):
        for n, kind, _off in self._order:
            if n == name:
                return kind
        return None

    def counter(self, name):
        return self._register(name, KIND_COUNTER, Counter)

    def gauge(self, name):
        return self._register(name, KIND_GAUGE, Gauge)

    def histogram(self, name):
        return self._register(name, KIND_HISTOGRAM, Histogram)

    # -- bulk value plumbing (slab publish/scrape, shard merge) -------
    @property
    def n_slots(self):
        return self._n_slots

    def values_snapshot(self):
        """Copy of the flat value array."""
        return self._values.copy()

    def load_values(self, values):
        """Overwrite the backing array from a scraped snapshot."""
        if not self.enabled:
            return
        if len(values) != self._n_slots:
            raise ValueError(
                f"snapshot has {len(values)} slots, registry declares {self._n_slots}"
            )
        self._values = np.array(values, dtype=np.float64)

    def merge_values(self, values):
        """Elementwise-add a same-schema snapshot into this registry.

        Counters and histogram buckets accumulate across shards; gauges
        sum too (shard gauges are per-shard magnitudes — ring depth,
        engine seconds — whose fleet total is the meaningful roll-up).
        """
        if not self.enabled:
            return
        if len(values) != self._n_slots:
            raise ValueError(
                f"snapshot has {len(values)} slots, registry declares {self._n_slots}"
            )
        self._values = self._values + np.asarray(values, dtype=np.float64)

    # -- snapshots ----------------------------------------------------
    def schema(self):
        """``[(name, kind)]`` in registration (slot) order."""
        return [(name, kind) for name, kind, _off in self._order]

    def snapshot(self, include_buckets=False):
        """Structured ``{name: value-or-summary}`` dict of every metric."""
        out = {}
        for name, kind, _off in self._order:
            metric = self._metrics[name]
            if kind == KIND_HISTOGRAM:
                summary = metric.summary()
                if include_buckets:
                    summary["buckets"] = metric.counts()
                out[name] = summary
            else:
                out[name] = metric.value
        return out


class SlowOpLog:
    """Threshold-gated bounded ring of structured slow-op events.

    ``note()`` is called on every timed operation but only records those
    at or above ``threshold`` seconds, so the steady-state cost is one
    comparison.  The ring is bounded (oldest events fall off) and each
    event is a plain dict — ``{"op", "seconds", "at", **detail}`` —
    suitable for structured logging or the ``metrics()`` snapshot.
    """

    __slots__ = ("threshold", "_ring", "dropped")

    def __init__(self, threshold=0.050, capacity=256):
        self.threshold = float(threshold)
        self._ring = deque(maxlen=int(capacity))
        self.dropped = 0

    def note(self, op, seconds, **detail):
        if seconds < self.threshold:
            return False
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        event = {"op": op, "seconds": float(seconds), "at": monotonic()}
        if detail:
            event.update(detail)
        self._ring.append(event)
        return True

    def snapshot(self):
        return list(self._ring)

    def __len__(self):
        return len(self._ring)
