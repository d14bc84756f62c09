"""Latency-constrained dataflow decisions (paper Section 4.3, future work).

Throughput-optimal decisions can leave rarely-read nodes fully on-demand,
giving them high read latencies (the paper's node ``g_r`` example in Section
2.2.1 and the discussion under "Query Latencies").  The paper defers
latency-*constrained* optimization to future work; this module implements
the natural formulation:

    minimize   Σ_X PUSH(v) + Σ_Y PULL(v)
    subject to estimated_read_latency(r) <= budget   for every reader r

where a reader's estimated latency is the cost of the pull computation its
decision implies — the summed ``L(fan_in)`` of every pull node in its
upstream closure (push nodes answer in O(1) and stop the recursion).

The solver reuses the min-cut machinery: readers violating the budget are
*forced push* (their whole upstream closure follows, via the cut's ∞ edges),
and the min-cut then re-optimizes everything else.  Forcing is iterated
until all constraints hold — each round only adds force-push readers, so it
terminates in at most |readers| rounds (in practice one or two).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.overlay import Decision, Overlay
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.mincut import DataflowStats, decide_forced


def estimated_read_latency(
    overlay: Overlay, reader_handle: int, cost_model: CostModel
) -> float:
    """Cost of one read at ``reader_handle`` under the current decisions.

    A push reader answers from its PAO (one finalize, costed at 0); a pull
    reader pays ``L(fan_in)`` at itself plus, recursively, at every pull
    node it must evaluate.
    """
    total = 0.0
    stack = [reader_handle]
    seen: Set[int] = set()
    while stack:
        handle = stack.pop()
        if handle in seen:
            continue
        seen.add(handle)
        if overlay.decisions[handle] is Decision.PUSH:
            continue
        total += cost_model.pull_cost(max(1, overlay.fan_in(handle)))
        stack.extend(overlay.in_rows(handle)[0])
    return total


def read_latency_profile(
    overlay: Overlay, cost_model: Optional[CostModel] = None
) -> Dict[int, float]:
    """Estimated read latency for every reader under current decisions."""
    cost_model = cost_model or CostModel.constant_linear()
    return {
        handle: estimated_read_latency(overlay, handle, cost_model)
        for handle in overlay.reader_of.values()
    }


def decide_dataflow_with_latency_budget(
    overlay: Overlay,
    frequencies: FrequencyModel,
    latency_budget: float,
    cost_model: Optional[CostModel] = None,
    window_size: float = 1.0,
    max_rounds: Optional[int] = None,
) -> DataflowStats:
    """Throughput-optimal decisions subject to a per-reader latency cap.

    Runs the unconstrained min-cut first; readers whose estimated pull
    latency exceeds ``latency_budget`` are forced push and the cut re-runs.
    Returns the final round's statistics, with ``stats.pull_nodes`` /
    ``push_nodes`` reflecting the constrained solution.
    """
    if latency_budget < 0:
        raise ValueError("latency_budget must be non-negative")
    cost_model = cost_model or CostModel.constant_linear()
    forced: Set[int] = set()
    rounds = 0
    limit = max_rounds if max_rounds is not None else len(overlay.reader_of) + 1
    while True:
        stats = decide_forced(overlay, frequencies, cost_model, window_size, forced)
        rounds += 1
        violators = {
            handle
            for handle in overlay.reader_of.values()
            if handle not in forced
            and estimated_read_latency(overlay, handle, cost_model) > latency_budget
        }
        if not violators or rounds >= limit:
            return stats
        forced |= violators
