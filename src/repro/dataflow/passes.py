"""The Section-4 decision passes over one CSR snapshot of an overlay.

Every dataflow decision — the min-cut of :mod:`repro.dataflow.mincut`, the
greedy pass, the latency-constrained cut and the splitting optimisation —
needs the same whole-overlay facts: each node's push and pull frequency
(§4.1), its weight ``PULL − PUSH`` (§4.3), the P1/P2 peel (§4.5), the
total cost of an assignment and its consistency.  They are computed here,
once, over a :class:`DecisionGraph`: the overlay's in-edge CSR
(:meth:`Overlay.in_csr`), each node's inputs in insertion order, plus
kind codes.

Every float is bit-identical to the per-handle definition: a sum is
accumulated term by term in the order the per-handle sweep adds them
(float addition is not associative): by ``np.cumsum``, never by a pairwise
or reordered reduction.
"""

from __future__ import annotations

import collections
import itertools
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.overlay import KIND_READER, KIND_WRITER, Overlay
from repro.core.pullrows import csr_indptr, ragged_index
from repro.dataflow.costs import CostModel

if TYPE_CHECKING:  # frequencies.py builds on this module
    from repro.dataflow.frequencies import FrequencyModel

#: peel labels
KEPT, PUSHED, PULLED = 0, 1, 2


class DecisionGraph:
    """An overlay's in-edges as an int64 CSR, with kind codes.

    ``src[indptr[v]:indptr[v + 1]]`` are ``v``'s inputs in insertion
    order (:meth:`Overlay.in_csr`), so ``(src, dst)`` lists the edges in
    the order of :meth:`Overlay.edges`.  The topological order is taken on
    first use.
    """

    __slots__ = ("overlay", "num_nodes", "kinds", "fan_in", "indptr", "src", "dst", "_order")

    def __init__(self, overlay: Overlay) -> None:
        n = overlay.num_nodes
        self.overlay = overlay
        self.num_nodes = n
        self.kinds = np.array(overlay.kind_codes(), dtype=np.int8)
        self.indptr, self.src, _ = overlay.in_csr()
        self.fan_in = np.diff(self.indptr)
        self.dst = np.repeat(np.arange(n, dtype=np.int64), self.fan_in)
        self._order: Optional[np.ndarray] = None

    @property
    def order(self) -> np.ndarray:
        """:meth:`Overlay.topological_order` (raises on a cycle)."""
        if self._order is None:
            self._order = np.array(self.overlay.topological_order(), dtype=np.int64)
        return self._order

    def handles(self, kind: int) -> np.ndarray:
        return np.flatnonzero(self.kinds == kind)

    def decidable(self) -> np.ndarray:
        """Every non-writer handle, ascending: the nodes a decision assigns."""
        return np.flatnonzero(self.kinds != KIND_WRITER)


# ---------------------------------------------------------------------------
# §4.1 frequencies
# ---------------------------------------------------------------------------


def push_pull_frequencies(
    graph: DecisionGraph, frequencies: "FrequencyModel"
) -> Tuple[np.ndarray, np.ndarray]:
    """``(f_h, f_l)`` for every handle.

    ``f_h(v)`` is a writer's write frequency, else the sum of its inputs'
    ``f_h`` in ``inputs`` order.  ``f_l(v)`` is a reader's read frequency,
    else the sum of its outputs' ``f_l``, added in reversed topological
    order of the outputs.  Both sweeps run by rounds: a node's sum is taken
    once every term is final.
    """
    n = graph.num_nodes
    labels = graph.overlay.labels
    order = graph.order  # raises on a cycle before any round runs
    fh = np.zeros(n)
    fl = np.zeros(n)
    writers = graph.handles(KIND_WRITER)
    readers = graph.handles(KIND_READER)
    fh[writers] = _lookup(frequencies.write, labels, writers)
    fl[readers] = _lookup(frequencies.read, labels, readers)

    src, dst = graph.src, graph.dst
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    # outputs grouped by source, latest in topological order first
    by_src = np.argsort(src * n - position[dst])
    out_indptr = csr_indptr(np.bincount(src, minlength=n))
    out_dst = dst[by_src]

    for nodes in _rounds(graph.fan_in, out_indptr, out_dst)[1:]:
        _ordered_sums(fh, graph.indptr, src, nodes)
    for nodes in _rounds(np.diff(out_indptr), graph.indptr, src)[1:]:
        _ordered_sums(fl, out_indptr, out_dst, nodes)
    return fh, fl


def _lookup(table: dict, labels: List, handles: np.ndarray) -> np.ndarray:
    keys = map(labels.__getitem__, handles.tolist())
    return np.fromiter(map(table.get, keys, itertools.repeat(0.0)), np.float64, len(handles))


def _rounds(degree: np.ndarray, indptr: np.ndarray, targets: np.ndarray) -> List[np.ndarray]:
    """Kahn's algorithm by rounds: round 0 holds the nodes of ``degree``
    0; a node joins the round after the last of the nodes that list it in
    their ``targets`` row."""
    remaining = degree.copy()
    frontier = np.flatnonzero(remaining == 0)
    rounds = []
    while len(frontier):
        rounds.append(frontier)
        starts = indptr[frontier]
        hit = targets[ragged_index(starts, indptr[frontier + 1] - starts)[0]]
        counts = np.bincount(hit, minlength=len(degree))
        remaining -= counts
        frontier = np.flatnonzero((counts > 0) & (remaining == 0))
    return rounds


def _ordered_sums(values: np.ndarray, indptr: np.ndarray, terms: np.ndarray, nodes: np.ndarray) -> None:
    """``values[v] = 0.0 + values[t0] + values[t1] + …`` over ``v``'s row
    ``t`` of ``terms``, left to right, for every ``v`` in ``nodes``.

    Rows of similar length (up to 8, then by powers of two) share a matrix,
    one row each behind a zero column and padded with zeros; ``np.cumsum``
    along a row adds left to right, and a trailing ``+ 0.0`` changes no bit.
    """
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    bucket = np.maximum(np.frexp(lengths - 1)[1], 3)  # 2**(b-1) < length <= 2**b
    for b in np.flatnonzero(np.bincount(bucket)).tolist():
        pick = np.flatnonzero(bucket == b)
        count = lengths[pick]
        row = np.repeat(np.arange(len(pick)), count)
        column = np.arange(len(row)) - (np.cumsum(count) - count)[row]
        matrix = np.zeros((len(pick), int(count.max()) + 1))
        matrix[row, column + 1] = values[terms[starts[pick][row] + column]]
        values[nodes[pick]] = np.cumsum(matrix, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# §4.3 weights and costs
# ---------------------------------------------------------------------------


def node_weight_column(
    graph: DecisionGraph,
    fh: np.ndarray,
    fl: np.ndarray,
    cost_model: CostModel,
    forced: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """``w(v) = f_l(v)·L(k) − f_h(v)·H(k)`` with ``k = max(1, fan-in)`` for
    every decidable handle (writers read 0).  ``forced`` handles get the
    bound ``Σ|w| + 1``, which no cut can outweigh."""
    decidable = graph.decidable()
    degree = np.maximum(graph.fan_in[decidable], 1)
    push_cost = _cost_table(cost_model.push_cost, degree)
    pull_cost = _cost_table(cost_model.pull_cost, degree)
    weights = np.zeros(graph.num_nodes)
    weights[decidable] = fl[decidable] * pull_cost[degree] - fh[decidable] * push_cost[degree]
    if forced:
        bound = _sequential_sum(np.abs(weights[decidable])) + 1.0
        handles = np.fromiter(forced, np.int64)
        weights[handles[graph.kinds[handles] != KIND_WRITER]] = bound
    return weights


def assignment_cost_of(
    graph: DecisionGraph,
    fh: np.ndarray,
    fl: np.ndarray,
    push: np.ndarray,
    cost_model: CostModel,
    window_size: float = 1.0,
) -> float:
    """``Σ_X PUSH + Σ_Y PULL`` for the decisions ``push``, summed in handle
    order.  Writers pay their mandatory push with the window size as their
    effective fan-in (§4.2)."""
    degree = np.maximum(graph.fan_in, 1)
    terms = np.where(
        push,
        fh * _cost_table(cost_model.push_cost, degree)[degree],
        fl * _cost_table(cost_model.pull_cost, degree)[degree],
    )
    writers = graph.handles(KIND_WRITER)
    terms[writers] = fh[writers] * cost_model.push_cost(max(1, int(window_size)))
    return _sequential_sum(terms)


def consistent(graph: DecisionGraph, push: np.ndarray) -> bool:
    """True iff no edge runs from a pull node into a push node."""
    return not np.any(push[graph.dst] & ~push[graph.src])


def _cost_table(cost: Callable[[int], float], degrees: np.ndarray) -> np.ndarray:
    """``cost(k)`` at every ``k`` in ``degrees``, indexed by ``k``."""
    if not len(degrees):
        return np.zeros(1)
    present = np.flatnonzero(np.bincount(degrees)).tolist()
    table = np.zeros(present[-1] + 1)
    table[present] = [cost(k) for k in present]
    return table


def _sequential_sum(terms: np.ndarray) -> float:
    """``0.0 + terms[0] + terms[1] + …`` left to right."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


# ---------------------------------------------------------------------------
# §4.5 P1/P2
# ---------------------------------------------------------------------------


def peel(weights: List[float], u: np.ndarray, v: np.ndarray) -> List[int]:
    """P1/P2 over dense nodes ``0 .. len(weights)−1`` and edges ``u → v``.

    Returns each node's label: ``PUSHED`` (P1: ``w ≥ 0``, no remaining
    in-edge), ``PULLED`` (P2: ``w ≤ 0``, no remaining out-edge) or
    ``KEPT``.

    A zero-weight node's label depends on which rule reaches it first, so
    the peel is a FIFO: nodes in id order, then each neighbour of a removed
    node that is not already waiting, successors before predecessors, each
    in edge order.
    """
    m = len(weights)
    by_u = np.argsort(u, kind="stable")
    by_v = np.argsort(v, kind="stable")
    out_degree = np.bincount(u, minlength=m)
    in_degree = np.bincount(v, minlength=m)
    succ = v[by_u].tolist()
    pred = u[by_v].tolist()
    succ_ptr = csr_indptr(out_degree).tolist()
    pred_ptr = csr_indptr(in_degree).tolist()
    out_left = out_degree.tolist()
    in_left = in_degree.tolist()

    label = [KEPT] * m
    waiting = bytearray(b"\x01") * m
    queue = collections.deque(range(m))
    popleft, append = queue.popleft, queue.append
    while queue:
        node = popleft()
        waiting[node] = 0
        if label[node]:
            continue
        weight = weights[node]
        if weight >= 0 and not in_left[node]:
            label[node] = PUSHED
        elif weight <= 0 and not out_left[node]:
            label[node] = PULLED
        else:
            continue
        for nxt in succ[succ_ptr[node]:succ_ptr[node + 1]]:
            if not label[nxt]:
                in_left[nxt] -= 1
                if not waiting[nxt]:
                    waiting[nxt] = 1
                    append(nxt)
        for prev in pred[pred_ptr[node]:pred_ptr[node + 1]]:
            if not label[prev]:
                out_left[prev] -= 1
                if not waiting[prev]:
                    waiting[prev] = 1
                    append(prev)
    return label
