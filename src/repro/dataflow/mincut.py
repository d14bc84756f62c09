"""Optimal dataflow decisions via the DMP → s-t min-cut reduction (§4.3–4.5).

The *difference-maximizing partition* (DMP) problem: given a DAG with node
weights ``w(v)`` (possibly negative), find a partition ``(X, Y)`` with no
edge from ``Y`` to ``X`` maximizing ``Σ_X w − Σ_Y w``.  The dataflow problem
reduces to DMP with ``w(v) = PULL(v) − PUSH(v)``: ``X`` becomes the push
set, ``Y`` the pull set, and the partition constraint is exactly decision
consistency (everything upstream of a push node is push).

The reduction to min-cut (Theorem 4.1): augment with source ``s`` and sink
``t``; ``s → v`` with capacity ``−w(v)`` for pull-leaning nodes, ``v → t``
with capacity ``w(v)`` for push-leaning nodes, and ``∞`` on the original
edges.  After max-flow, nodes residual-reachable from ``s`` form ``Y``.

:func:`decide_dataflow` wires the whole Section-4 pipeline together:
frequencies → weights → P1/P2 pruning → per-component max-flow →
decision annotation, returning the statistics Figure 12 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.overlay import KIND_READER, KIND_WRITER, Overlay
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.maxflow import INF, FlowNetwork
from repro.dataflow.passes import (
    KEPT,
    PUSHED,
    PULLED,
    DecisionGraph,
    assignment_cost_of,
    consistent,
    node_weight_column,
    peel,
    push_pull_frequencies,
)
from repro.dataflow.pruning import connected_components

Node = Hashable


def solve_dmp(
    weights: Dict[Node, float], edges: Iterable[Tuple[Node, Node]]
) -> Tuple[Set[Node], Set[Node]]:
    """Solve one DMP instance exactly; returns ``(X, Y)`` = (push, pull).

    Implements the Theorem 4.1 construction directly (no pruning) — callers
    wanting scale should go through :func:`decide_dataflow`, which prunes
    first and calls this per component.
    """
    nodes = list(weights)
    index = {node: i for i, node in enumerate(nodes)}
    edge_list = [(u, v) for u, v in edges]
    network = FlowNetwork(len(nodes) + 2)
    source = len(nodes)
    sink = len(nodes) + 1
    for node, weight in weights.items():
        if weight < 0:
            network.add_edge(source, index[node], -weight)
        elif weight > 0:
            network.add_edge(index[node], sink, weight)
    for u, v in edge_list:
        network.add_edge(index[u], index[v], INF)
    network.max_flow(source, sink)
    reachable = network.residual_reachable(source)
    pull = {node for node in nodes if index[node] in reachable}
    push = {node for node in nodes if node not in pull}
    return push, pull


def partition_value(
    weights: Dict[Node, float], push: Set[Node], pull: Set[Node]
) -> float:
    """The DMP objective ``Σ_X w − Σ_Y w`` of a partition (for tests)."""
    return sum(weights[n] for n in push) - sum(weights[n] for n in pull)


@dataclass
class DataflowStats:
    """Telemetry from one decision run (Figure 12's series)."""

    nodes_total: int = 0
    graph_nodes_before: int = 0
    virtual_nodes_before: int = 0
    nodes_after_pruning: int = 0
    graph_nodes_after: int = 0
    virtual_nodes_after: int = 0
    num_components: int = 0
    largest_component: int = 0
    push_nodes: int = 0
    pull_nodes: int = 0
    total_cost: float = 0.0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of decision nodes resolved by P1/P2 (Figure 12)."""
        if self.nodes_total == 0:
            return 0.0
        return 1.0 - self.nodes_after_pruning / self.nodes_total


def node_weights(
    overlay: Overlay,
    fh: Sequence[float],
    fl: Sequence[float],
    cost_model: CostModel,
    force_push: Optional[Set[int]] = None,
) -> Dict[int, float]:
    """``w(v) = PULL(v) − PUSH(v)`` for every *decidable* (non-writer) node.

    Writers are excluded: they are always push (Section 2.2.1), and the
    window size enters only their mandatory push cost in
    :func:`assignment_cost`.  ``force_push`` handles continuous-mode
    readers, which get an effectively infinite push benefit so the cut can
    never place them in the pull side.
    """
    graph = DecisionGraph(overlay)
    weights = node_weight_column(
        graph, _column(fh), _column(fl), cost_model, forced=force_push
    )
    decidable = graph.decidable()
    return dict(zip(decidable.tolist(), weights[decidable].tolist()))


def assignment_cost(
    overlay: Overlay,
    fh: Sequence[float],
    fl: Sequence[float],
    cost_model: CostModel,
    window_size: float = 1.0,
) -> float:
    """Total expected cost ``Σ_X PUSH + Σ_Y PULL`` of the current decisions.

    Writers contribute their (mandatory) push cost with the window size as
    their effective fan-in, following Section 4.2.
    """
    graph = DecisionGraph(overlay)
    return assignment_cost_of(
        graph, _column(fh), _column(fl), graph.overlay.push_mask(), cost_model, window_size
    )


def _column(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def decide_dataflow(
    overlay: Overlay,
    frequencies: FrequencyModel,
    cost_model: Optional[CostModel] = None,
    window_size: float = 1.0,
    use_pruning: bool = True,
    force_push_readers: bool = False,
) -> DataflowStats:
    """Annotate the overlay with optimal push/pull decisions (Section 4).

    Returns the run's statistics.  ``force_push_readers`` implements
    continuous-query mode.  Setting ``use_pruning=False`` runs max-flow on
    the full decision graph (tests verify pruning changes nothing).
    """
    forced = overlay.reader_of.values() if force_push_readers else ()
    return decide_forced(
        overlay, frequencies, cost_model, window_size, forced, use_pruning=use_pruning
    )


def decide_forced(
    overlay: Overlay,
    frequencies: FrequencyModel,
    cost_model: Optional[CostModel],
    window_size: float,
    forced: Iterable[int],
    use_pruning: bool = True,
) -> DataflowStats:
    """:func:`decide_dataflow` with an explicit set of handles forced push
    (their whole upstream closure follows, through the cut's ∞ edges).

    One snapshot of the overlay feeds every pass: frequencies, weights and
    P1/P2 run over its columns, and max-flow sees only the components of
    what survives pruning.
    """
    if cost_model is None:
        cost_model = CostModel.constant_linear()
    graph = DecisionGraph(overlay)
    fh, fl = push_pull_frequencies(graph, frequencies)
    weights = node_weight_column(graph, fh, fl, cost_model, forced=set(forced))
    decidable = graph.decidable()
    readers = graph.kinds == KIND_READER

    # the decision graph: decidable nodes, numbered in handle order, and
    # the edges between them (writers are sources only) in edge order
    between = graph.kinds[graph.src] != KIND_WRITER
    src, dst = graph.src[between], graph.dst[between]
    dense = np.full(graph.num_nodes, -1, dtype=np.int64)
    dense[decidable] = np.arange(len(decidable), dtype=np.int64)
    u, v = dense[src], dense[dst]
    weight_list = weights[decidable].tolist()

    stats = DataflowStats(nodes_total=len(decidable))
    stats.graph_nodes_before = int(np.count_nonzero(readers))
    stats.virtual_nodes_before = stats.nodes_total - stats.graph_nodes_before
    if use_pruning:
        label = np.array(peel(weight_list, u, v), dtype=np.int8)
    else:
        label = np.zeros(len(decidable), dtype=np.int8)
    kept = label == KEPT
    stats.nodes_after_pruning = int(np.count_nonzero(kept))
    if use_pruning:
        stats.graph_nodes_after = int(np.count_nonzero(kept & readers[decidable]))
        stats.virtual_nodes_after = stats.nodes_after_pruning - stats.graph_nodes_after

    # max-flow on the components of what is left, in handles and in the
    # containers the per-handle pipeline passed (a set after pruning, a
    # dict without): each component's nodes are numbered in the same order,
    # so Dinic's float residuals, and with them the cut, are the same
    residual = kept[u] & kept[v]
    left = decidable[kept].tolist()
    components = connected_components(
        set(left) if use_pruning else dict.fromkeys(left),
        list(zip(src[residual].tolist(), dst[residual].tolist())),
    )
    stats.num_components = len(components)
    stats.largest_component = max((len(c[0]) for c in components), default=0)
    for members, edges in components:
        comp_push, comp_pull = solve_dmp(
            {node: weight_list[dense[node]] for node in members}, edges
        )
        label[dense[list(comp_push)]] = PUSHED
        label[dense[list(comp_pull)]] = PULLED

    push = graph.kinds == KIND_WRITER
    push[decidable] = label == PUSHED
    overlay.set_decisions(push.tolist())
    stats.push_nodes = int(np.count_nonzero(label == PUSHED))
    stats.pull_nodes = len(decidable) - stats.push_nodes
    stats.total_cost = assignment_cost_of(graph, fh, fl, push, cost_model, window_size)
    if not consistent(graph, push):
        raise AssertionError("min-cut produced inconsistent decisions (bug)")
    return stats
