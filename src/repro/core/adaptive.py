"""Adaptive dataflow decisions (paper Section 4.8).

Static push/pull decisions are computed from *expected* read/write
frequencies; real workloads drift.  The paper's adaptive scheme monitors the
**push/pull frontier** — the only nodes whose decision can be flipped
unilaterally without breaking consistency:

* pull nodes all of whose inputs are push (may flip to push), and
* push nodes all of whose consumers are pull, including consumer-less push
  readers (may flip to pull).

For each frontier node, the controller compares the observed push traffic
(``f_h`` estimates; the runtime counts would-be pushes even when they stop
at the frontier) against the observed pull traffic over a sliding window of
events, and flips the decision when the other side would have been cheaper
by a hysteresis factor.  Flipping to push materializes the node's PAO from
its (push) inputs; flipping to pull discards state.

A sweep's flips go through one :meth:`Runtime.set_decisions`, which
invalidates only the compiled plans whose traversal touches a flipped
node, in one scan of the plan stores — an adaptive adjustment never
forces a full plan-cache rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.execution import Runtime
from repro.core.overlay import KIND_WRITER, Decision
from repro.dataflow.costs import CostModel


@dataclass
class AdaptiveConfig:
    """Tuning knobs for the adaptive controller."""

    #: Re-evaluate the frontier every this many processed events.
    check_interval: int = 500
    #: Required cost advantage before flipping (guards against flapping).
    hysteresis: float = 1.3
    #: Minimum observations in the window before a flip is considered.
    min_observations: int = 8


class AdaptiveController:
    """Monitors a runtime and re-decides frontier nodes as traffic drifts."""

    def __init__(
        self,
        runtime: Runtime,
        cost_model: Optional[CostModel] = None,
        config: Optional[AdaptiveConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.cost_model = cost_model or CostModel.constant_linear()
        self.config = config or AdaptiveConfig()
        self._events_since_check = 0
        self.flips = 0
        self._snapshot()

    def _snapshot(self) -> None:
        self._push_base: List[int] = list(self.runtime.observed_push)
        self._pull_base: List[int] = list(self.runtime.observed_pull)

    # ------------------------------------------------------------------

    def tick(self, events: int = 1) -> None:
        """Notify the controller that events were processed.

        Batched entry points tick once with the batch size, so a batch
        crosses the check interval exactly as the per-event loop would.
        """
        self._events_since_check += events
        if self._events_since_check >= self.config.check_interval:
            self.evaluate()

    def frontier(self) -> List[int]:
        """Handles whose decision may be flipped unilaterally: pull nodes
        with no pull input and push nodes with no push consumer, ascending."""
        overlay = self.runtime.overlay
        push = overlay.push_mask()
        indptr, sources, _ = overlay.in_csr()
        targets = np.repeat(np.arange(overlay.num_nodes), np.diff(indptr))
        pull_input = np.zeros(overlay.num_nodes, dtype=bool)
        pull_input[targets[~push[sources]]] = True
        push_consumer = np.zeros(overlay.num_nodes, dtype=bool)
        push_consumer[sources[push[targets]]] = True
        writer = np.array(overlay.kind_codes()) == KIND_WRITER
        return np.flatnonzero(~writer & np.where(push, ~push_consumer, ~pull_input)).tolist()

    def evaluate(self) -> int:
        """Re-decide every frontier node from windowed observations.

        Returns the number of flips performed.  The frontier is computed
        once per sweep (a flip may expose new frontier nodes only in the
        next evaluation round, matching the paper's incremental scheme);
        the sweep's flips are applied together, in sweep order.
        """
        self._events_since_check = 0
        runtime = self.runtime
        overlay = runtime.overlay
        config = self.config
        decisions = overlay.decisions
        flips = {}  # handle -> new decision, in sweep order
        # Grow baselines if the overlay gained nodes since the last check.
        while len(self._push_base) < overlay.num_nodes:
            self._push_base.append(0)
            self._pull_base.append(0)
        for handle in self.frontier():
            pushes = runtime.observed_push[handle] - self._push_base[handle]
            pulls = runtime.observed_pull[handle] - self._pull_base[handle]
            if pushes + pulls < config.min_observations:
                continue
            fan_in = max(1, overlay.fan_in(handle))
            push_cost = pushes * self.cost_model.push_cost(fan_in)
            pull_cost = pulls * self.cost_model.pull_cost(fan_in)
            decision = decisions[handle]
            # An earlier flip in this sweep may have moved this node off the
            # frontier: a flip needs every input (consumer) at the target.
            if decision is Decision.PULL and push_cost * config.hysteresis < pull_cost:
                target, ends = Decision.PUSH, overlay.in_rows(handle)[0]
            elif decision is Decision.PUSH and pull_cost * config.hysteresis < push_cost:
                target, ends = Decision.PULL, overlay.out_rows(handle)[0]
            else:
                continue
            if all(flips.get(end, decisions[end]) is target for end in ends):
                flips[handle] = target
        runtime.set_decisions(flips.items())
        self.flips += len(flips)
        self._snapshot()
        return len(flips)
