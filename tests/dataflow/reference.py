"""Per-handle definitions of the Section-4 decision passes: the oracle of
:mod:`repro.dataflow.passes`.

Each function walks the overlay node by node (or edge by edge) as the
paper states the pass.  The array passes must reproduce every output bit
for bit, including each float's summation order and the P1/P2 labels of
zero-weight nodes, which depend on the FIFO order of :func:`prune`.
"""

from __future__ import annotations

import collections
from typing import Dict, List, Set, Tuple

from repro.core.overlay import Decision, NodeKind, Overlay
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.mincut import DataflowStats, solve_dmp
from repro.dataflow.pruning import PruneResult, connected_components


def frequencies(overlay: Overlay, model: FrequencyModel) -> Tuple[List[float], List[float]]:
    """``(f_h, f_l)``: one downstream and one upstream topological sweep.
    Sums run left to right from 0.0 (what ``sum`` does over floats up to
    Python 3.11)."""
    order = overlay.topological_order()
    fh = [0.0] * overlay.num_nodes
    fl = [0.0] * overlay.num_nodes
    for handle in order:
        if overlay.kinds[handle] is NodeKind.WRITER:
            fh[handle] = model.write_freq(overlay.labels[handle])
        else:
            total = 0.0
            for src in overlay.in_rows(handle)[0]:
                total += fh[src]
            fh[handle] = total
    for handle in reversed(order):
        if overlay.kinds[handle] is NodeKind.READER:
            fl[handle] = model.read_freq(overlay.labels[handle])
        for src in overlay.in_rows(handle)[0]:
            fl[src] += fl[handle]
    return fh, fl


def node_weights(
    overlay: Overlay,
    fh: List[float],
    fl: List[float],
    cost_model: CostModel,
    force_push: Set[int] = frozenset(),
) -> Dict[int, float]:
    weights: Dict[int, float] = {}
    for handle in range(overlay.num_nodes):
        if overlay.kinds[handle] is NodeKind.WRITER:
            continue
        degree = max(1, overlay.fan_in(handle))
        push_cost = fh[handle] * cost_model.push_cost(degree)
        pull_cost = fl[handle] * cost_model.pull_cost(degree)
        weights[handle] = pull_cost - push_cost
    if force_push:
        bound = sum(abs(w) for w in weights.values()) + 1.0
        for handle in force_push:
            if handle in weights:
                weights[handle] = bound
    return weights


def assignment_cost(
    overlay: Overlay,
    fh: List[float],
    fl: List[float],
    cost_model: CostModel,
    window_size: float = 1.0,
) -> float:
    total = 0.0
    for handle in range(overlay.num_nodes):
        if overlay.kinds[handle] is NodeKind.WRITER:
            total += fh[handle] * cost_model.push_cost(max(1, int(window_size)))
            continue
        degree = max(1, overlay.fan_in(handle))
        if overlay.decisions[handle] is Decision.PUSH:
            total += fh[handle] * cost_model.push_cost(degree)
        else:
            total += fl[handle] * cost_model.pull_cost(degree)
    return total


def decisions_consistent(overlay: Overlay) -> bool:
    for src, dst, _ in overlay.edges():
        if (
            overlay.decisions[src] is Decision.PULL
            and overlay.decisions[dst] is Decision.PUSH
        ):
            return False
    return True


def prune(weights: Dict, edges) -> PruneResult:
    """P1/P2 as a FIFO over the nodes in ``weights`` order."""
    edge_list = [(u, v) for u, v in edges]
    out_degree: Dict = collections.Counter()
    in_degree: Dict = collections.Counter()
    successors: Dict = collections.defaultdict(list)
    predecessors: Dict = collections.defaultdict(list)
    for u, v in edge_list:
        out_degree[u] += 1
        in_degree[v] += 1
        successors[u].append(v)
        predecessors[v].append(u)

    result = PruneResult()
    removed: Set = set()
    queue = collections.deque(weights)
    queued = set(weights)
    while queue:
        node = queue.popleft()
        queued.discard(node)
        if node in removed:
            continue
        weight = weights[node]
        if weight >= 0 and in_degree[node] == 0:
            result.pushed.add(node)
        elif weight <= 0 and out_degree[node] == 0:
            result.pulled.add(node)
        else:
            continue
        removed.add(node)
        for successor in successors[node]:
            if successor not in removed:
                in_degree[successor] -= 1
                if successor not in queued:
                    queue.append(successor)
                    queued.add(successor)
        for predecessor in predecessors[node]:
            if predecessor not in removed:
                out_degree[predecessor] -= 1
                if predecessor not in queued:
                    queue.append(predecessor)
                    queued.add(predecessor)

    result.remaining_nodes = {n for n in weights if n not in removed}
    result.remaining_edges = [
        (u, v) for u, v in edge_list if u not in removed and v not in removed
    ]
    return result


def decide_dataflow(
    overlay: Overlay,
    model: FrequencyModel,
    cost_model: CostModel,
    window_size: float = 1.0,
    use_pruning: bool = True,
    force_push_readers: bool = False,
) -> DataflowStats:
    """Frequencies → weights → P1/P2 → max-flow per component → one
    :meth:`Overlay.set_decision` per node."""
    fh, fl = frequencies(overlay, model)
    force = set(overlay.reader_of.values()) if force_push_readers else set()
    weights = node_weights(overlay, fh, fl, cost_model, force_push=force)
    decision_edges = [
        (src, dst) for src, dst, _ in overlay.edges() if src in weights and dst in weights
    ]
    stats = DataflowStats(nodes_total=len(weights))
    stats.graph_nodes_before = sum(
        1 for h in weights if overlay.kinds[h] is NodeKind.READER
    )
    stats.virtual_nodes_before = stats.nodes_total - stats.graph_nodes_before
    push: Set[int] = set()
    pull: Set[int] = set()
    if use_pruning:
        pruned = prune(weights, decision_edges)
        push |= pruned.pushed
        pull |= pruned.pulled
        stats.nodes_after_pruning = pruned.nodes_after
        stats.graph_nodes_after = sum(
            1 for h in pruned.remaining_nodes if overlay.kinds[h] is NodeKind.READER
        )
        stats.virtual_nodes_after = pruned.nodes_after - stats.graph_nodes_after
        components = connected_components(pruned.remaining_nodes, pruned.remaining_edges)
    else:
        stats.nodes_after_pruning = len(weights)
        components = connected_components(weights, decision_edges)
    stats.num_components = len(components)
    stats.largest_component = max((len(c[0]) for c in components), default=0)
    for members, edges in components:
        comp_push, comp_pull = solve_dmp({node: weights[node] for node in members}, edges)
        push |= comp_push
        pull |= comp_pull
    for handle in push:
        overlay.set_decision(handle, Decision.PUSH)
    for handle in pull:
        overlay.set_decision(handle, Decision.PULL)
    stats.push_nodes = len(push)
    stats.pull_nodes = len(pull)
    stats.total_cost = assignment_cost(overlay, fh, fl, cost_model, window_size=window_size)
    assert decisions_consistent(overlay)
    return stats
