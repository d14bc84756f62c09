"""Linear-time greedy alternative to the max-flow decisions (Section 4.6).

The paper sketches this fallback for the (never observed in their
experiments) case where pruning leaves a huge connected component.  Nodes
are visited in topological (writers-first) order and assigned one of
*push*, *pull*, or *tentative pull*; tentative decisions resolve when a
downstream node forces them.  The two invariants maintained:

1. a tentative-pull node is never downstream of a (tentative-)pull node,
2. a push node is never downstream of a (tentative-)pull node,

guarantee the final assignment is consistent.  Each edge is examined at
most twice, so the algorithm is linear in the overlay size.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

import numpy as np

from repro.core.overlay import KIND_WRITER, NodeKind, Overlay
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.mincut import DataflowStats
from repro.dataflow.passes import (
    DecisionGraph,
    assignment_cost_of,
    consistent,
    node_weight_column,
    push_pull_frequencies,
)


class _State(enum.Enum):
    PUSH = "push"
    PULL = "pull"
    TENTATIVE = "tentative_pull"


def greedy_dataflow(
    overlay: Overlay,
    frequencies: FrequencyModel,
    cost_model: Optional[CostModel] = None,
    window_size: float = 1.0,
    force_push_readers: bool = False,
) -> DataflowStats:
    """Assign decisions with the Section 4.6 greedy pass.

    Same signature/contract as :func:`repro.dataflow.mincut.decide_dataflow`
    but heuristic: fast and consistent, not necessarily optimal.
    """
    if cost_model is None:
        cost_model = CostModel.constant_linear()
    graph = DecisionGraph(overlay)
    fh, fl = push_pull_frequencies(graph, frequencies)
    force: Optional[Set[int]] = None
    if force_push_readers:
        # Continuous mode: a push reader needs its whole upstream closure
        # push.  The min-cut gets this from its ∞ edges; the greedy must
        # force the closure explicitly or rule 1 (pull input ⇒ pull) would
        # override the reader's forced preference.
        force = set(overlay.reader_of.values())
        stack = list(force)
        while stack:
            handle = stack.pop()
            for src in overlay.in_rows(handle)[0]:
                if src not in force:
                    force.add(src)
                    stack.append(src)
    weights = node_weight_column(graph, fh, fl, cost_model, forced=force).tolist()

    state: Dict[int, _State] = {}
    for handle in graph.order.tolist():
        if overlay.kinds[handle] is NodeKind.WRITER:
            state[handle] = _State.PUSH
            continue
        inputs = overlay.in_rows(handle)[0]
        input_states = [state[src] for src in inputs]
        wants_pull = weights[handle] < 0  # PULL cheaper than PUSH

        if any(s is _State.PULL for s in input_states):
            state[handle] = _State.PULL
            continue
        tentative_inputs = [
            src for src in inputs if state[src] is _State.TENTATIVE
        ]
        if wants_pull:
            if tentative_inputs:
                # Pulling here strands the tentative inputs on the pull side.
                for src in tentative_inputs:
                    state[src] = _State.PULL
                state[handle] = _State.PULL
            else:
                state[handle] = _State.TENTATIVE
            continue
        # Node prefers push.
        if not tentative_inputs:
            state[handle] = _State.PUSH
            continue
        # Greedy local resolution: flip the tentative inputs together with
        # this node to whichever side is cheaper in aggregate.
        # weights = PULL − PUSH: choosing push "loses" max(0, w) per node,
        # choosing pull "loses" max(0, −w); compare total regret.
        push_regret = sum(max(0.0, weights[src]) for src in tentative_inputs) + max(
            0.0, weights[handle]
        )
        pull_regret = sum(max(0.0, -weights[src]) for src in tentative_inputs) + max(
            0.0, -weights[handle]
        )
        if push_regret <= pull_regret:
            for src in tentative_inputs:
                state[src] = _State.PUSH
            state[handle] = _State.PUSH
        else:
            for src in tentative_inputs:
                state[src] = _State.PULL
            state[handle] = _State.PULL

    # leftover tentative decisions become pull (paper's epilogue)
    push = graph.kinds == KIND_WRITER
    for handle, node_state in state.items():
        push[handle] = node_state is _State.PUSH
    overlay.set_decisions(push.tolist())
    decidable = graph.decidable()
    stats = DataflowStats(nodes_total=len(decidable))
    stats.push_nodes = int(np.count_nonzero(push[decidable]))
    stats.pull_nodes = stats.nodes_total - stats.push_nodes
    stats.total_cost = assignment_cost_of(graph, fh, fl, push, cost_model, window_size)
    if not consistent(graph, push):
        raise AssertionError("greedy produced inconsistent decisions (bug)")
    return stats
