"""Int64 column helpers shared by the data graph, the overlay and the
compiled plans: CSR row pointers, ragged-row gathers and distinct values."""

from __future__ import annotations

import numpy as np


def csr_indptr(lengths):
    """The CSR row pointers of rows ``lengths`` long."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def ragged_index(starts, counts):
    """``(idx, offsets)``: flat indices of the ragged rows
    ``starts[i] : starts[i] + counts[i]``, rows in input order, and each
    row's offset into ``idx``."""
    ends = np.cumsum(counts)
    offsets = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    idx = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    return idx, offsets


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending (``np.unique`` imports
    ``numpy.ma``, about 1 MB resident)."""
    ordered = np.sort(values)
    return ordered[np.diff(ordered, prepend=ordered[:1] - 1) != 0]
