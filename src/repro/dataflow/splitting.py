"""Partial pre-computation by splitting aggregation nodes (Section 4.7).

Per-node push/pull decisions can miss a hybrid optimum: an aggregation node
whose inputs mix rarely-updated and hot writers is best served by
pre-aggregating the quiet inputs behind a new push node while pulling the
hot remainder on demand (the paper's Figure 7).

For each aggregation node ``v`` with pull frequency ``f`` and input push
frequencies ``f_1 ≤ … ≤ f_k`` (sorted ascending), splitting the ``l``
quietest inputs into a new node ``v'`` costs::

    cost(l) = (Σ_{i≤l} f_i) · H(l)  +  f · L(k − l + 1)

(``v'`` absorbs the quiet pushes; ``v`` pulls its remaining ``k − l``
inputs plus ``v'``).  We pick the ``l`` minimizing this and split whenever
it beats both unsplit extremes ``min(f_h(v)·H(k), f·L(k))``.  Decisions are
re-run afterwards (the split node is intended to be push and ``v`` pull, but
the global min-cut has the final say).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.overlay import NodeKind, Overlay
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel, compute_push_pull_frequencies


def best_split(
    input_push_freqs: List[float],
    pull_freq: float,
    push_freq: float,
    cost_model: CostModel,
) -> Optional[Tuple[int, float]]:
    """Return ``(l, cost)`` of the best proper split, or ``None``.

    ``input_push_freqs`` must be sorted ascending.  A split is proper when
    ``0 < l < k`` and its cost strictly beats both unsplit alternatives.
    """
    k = len(input_push_freqs)
    if k < 3:
        return None
    unsplit = min(
        push_freq * cost_model.push_cost(k),
        pull_freq * cost_model.pull_cost(k),
    )
    best: Optional[Tuple[int, float]] = None
    prefix = 0.0
    for l in range(1, k):
        prefix += input_push_freqs[l - 1]
        cost = prefix * cost_model.push_cost(l) + pull_freq * cost_model.pull_cost(
            k - l + 1
        )
        if cost < unsplit and (best is None or cost < best[1]):
            best = (l, cost)
    return best


def split_nodes(
    overlay: Overlay,
    frequencies: FrequencyModel,
    cost_model: Optional[CostModel] = None,
    min_fan_in: int = 3,
) -> List[int]:
    """Apply the splitting optimization in place; returns new node handles.

    Only aggregation nodes with all-positive input edges are considered
    (splitting across a negative edge would change semantics).  Frequencies
    are computed once up front; within one pass the decision for a node uses
    the pre-pass frequencies, which is exact because a split only introduces
    nodes *upstream* of the split node and never alters the push frequencies
    of other nodes' existing inputs.
    """
    if cost_model is None:
        cost_model = CostModel.constant_linear()
    fh, fl = compute_push_pull_frequencies(overlay, frequencies)
    created: List[int] = []
    original_nodes = overlay.num_nodes  # nodes added below are not re-examined
    for handle in range(original_nodes):
        kind = overlay.kinds[handle]
        if kind is NodeKind.WRITER:
            continue
        inputs, signs = overlay.in_rows(handle)
        if len(inputs) < min_fan_in:
            continue
        if any(sign < 0 for sign in signs):
            continue
        ordered = sorted(inputs, key=lambda src: (fh[src], src))
        freqs = [fh[src] for src in ordered]
        choice = best_split(freqs, fl[handle], fh[handle], cost_model)
        if choice is None:
            continue
        split_at, _ = choice
        quiet = ordered[:split_at]
        fresh = overlay.add_partial()
        for src in quiet:
            overlay.remove_edge(src, handle)
            overlay.add_edge(src, fresh, 1)
        overlay.add_edge(fresh, handle, 1)
        created.append(fresh)
    return created
