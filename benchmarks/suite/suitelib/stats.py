"""How the suite turns samples into reported numbers.

Throughput: the timed region is cut into 1-s slices and the median over
the slices of work completed per slice is reported, so one stall (a GC
pause, a neighbour stealing the core) spoils one slice and not the
number.  Latency: a percentile over every sample of the region, with the
sample count.  (Percentiles per slice were tried and dropped: with the
~100 samples a slice holds here they are noisier than the whole region.)
"""

from __future__ import annotations

from statistics import median
from typing import List, Sequence, Tuple

import numpy as np

RATE_SLICE_S = 1.0


def slice_rates(
    stamps: Sequence[float], amounts: Sequence[float], start: float,
    seconds: float, width: float = RATE_SLICE_S,
) -> List[float]:
    """Work per second in each whole slice of ``[start, start + seconds)``.
    ``stamps[i]`` is when operation ``i`` completed, ``amounts[i]`` the
    work it carried.  A region shorter than one slice is one slice."""
    count = max(1, int(seconds / width + 1e-9))
    width = min(width, seconds)
    edges = start + width * np.arange(count + 1)
    totals, _ = np.histogram(stamps, bins=edges, weights=amounts)
    return (totals / width).tolist()


def median_rate(
    stamps: Sequence[float], amounts: Sequence[float], start: float,
    seconds: float, width: float = RATE_SLICE_S,
) -> float:
    return float(median(slice_rates(stamps, amounts, start, seconds, width)))


def edge_rates(
    stamps: Sequence[float], amounts: Sequence[float], edges: Sequence[float],
) -> List[float]:
    """Work per second between consecutive ``edges``: slices of unequal
    length, for a schedule that repeats — one slice per repetition, so
    every slice holds the same work whatever the machine's speed."""
    edges = np.asarray(edges, dtype=np.float64)
    totals, _ = np.histogram(stamps, bins=edges, weights=amounts)
    return (totals / np.diff(edges)).tolist()


def region_percentile(
    stamps: Sequence[float], values: Sequence[float], q: float, start: float,
    seconds: float,
) -> Tuple[float, int]:
    """The ``q``-th percentile of the ``values`` whose stamp falls inside
    ``[start, start + seconds)``, and how many there were.  No samples is
    an error: a metric that silently reads 0 would pass every bound."""
    stamps = np.asarray(stamps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    chosen = values[(stamps >= start) & (stamps < start + seconds)]
    if not len(chosen):
        raise ValueError("no samples inside the timed region")
    return float(np.percentile(chosen, q)), len(chosen)
