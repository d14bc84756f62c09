"""Brute-force reference for ``Sum`` over in-neighbours (no ``repro`` code).

The suite logs what it sent — per writer thread, the indices of the
prebuilt batches in the order they were acknowledged — and recomputes the
expected value of an ego from that log alone: the last ``window`` values
of every writer, summed over the ego's in-neighbours.  Write values are
small integers stored as floats, so every sum is exact and results are
compared with ``==``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def window_sums(
    nodes: np.ndarray, values: np.ndarray, window: int, size: int
) -> np.ndarray:
    """``out[w]`` = sum of the last ``window`` values written to ``w``,
    given the flat event log ``nodes``/``values`` in application order."""
    if len(nodes) == 0:
        return np.zeros(size)
    rev_nodes = nodes[::-1]
    rev_vals = values[::-1]
    order = np.argsort(rev_nodes, kind="stable")
    sorted_nodes = rev_nodes[order]
    first_of_writer = np.r_[True, sorted_nodes[1:] != sorted_nodes[:-1]]
    starts = np.flatnonzero(first_of_writer)
    recency = np.arange(len(sorted_nodes)) - starts[np.cumsum(first_of_writer) - 1]
    keep = recency < window
    return np.bincount(
        sorted_nodes[keep], weights=rev_vals[order][keep], minlength=size
    )


def replay_log(
    write_nodes: np.ndarray,
    write_vals: np.ndarray,
    applied: int,
    window: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat event log of a thread that applied ``applied`` batches cycling
    over the prebuilt ``[batches, rows]`` schedule.  Only the last
    ``window`` cycles can matter, so older batches are dropped."""
    cycle = write_nodes.shape[0]
    first = max(0, applied - window * cycle)
    index = np.arange(first, applied) % cycle
    return write_nodes[index].ravel(), write_vals[index].ravel()


def expected_values(
    edges: Iterable[Tuple[int, int]],
    logs: Sequence[Tuple[np.ndarray, np.ndarray]],
    window: int,
    size: int,
    egos: Sequence[int],
) -> List[float]:
    """Expected ``Sum`` at each ego.  ``logs`` holds one ``(nodes, values)``
    event log per writer thread; threads write disjoint writer sets, so
    per-writer order is preserved inside each log."""
    sums = np.zeros(size)
    for nodes, values in logs:
        sums += window_sums(nodes, values, window, size)
    in_neighbours = {ego: [] for ego in egos}
    for u, v in edges:
        if v in in_neighbours:
            in_neighbours[v].append(u)
    return [float(sum(sums[u] for u in in_neighbours[ego])) for ego in egos]
