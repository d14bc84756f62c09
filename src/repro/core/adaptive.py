"""Adaptive dataflow decisions (paper Section 4.8).

Static push/pull decisions are computed from *expected* read/write
frequencies; real workloads drift.  The paper's adaptive scheme monitors the
**push/pull frontier** — the only nodes whose decision can be flipped
unilaterally without breaking consistency:

* pull nodes all of whose inputs are push (may flip to push), and
* push nodes all of whose consumers are pull, including consumer-less push
  readers (may flip to pull).

The controller counts the stream, not the runtime.  The engine hands it
the node of every write and every read (:meth:`AdaptiveController.count_writes`,
:meth:`AdaptiveController.count_reads`), and it keeps them as a window of
per-node counts keyed by graph node id.  Each evaluation turns the window
into a :class:`~repro.dataflow.frequencies.FrequencyModel` and derives
every overlay node's ``f_h`` and ``f_l`` with
:func:`~repro.dataflow.passes.push_pull_frequencies`, the §4.1 pass the
static decision runs over expected frequencies.  So ``f_h`` at a node is
the window's writes at each writer times the overlay paths from that writer
to the node: every write counts, whatever its delta, and evictions and the
points where the data stops a push do not.  ``f_l`` is the window's reads
at each reader times the paths from the node to that reader.  At a frontier
node these are the pushes it would receive and the pulls it would serve.
The controller flips the decision when the other side would have been
cheaper by a hysteresis factor.  Flipping to push materializes the node's
PAO from its (push) inputs; flipping to pull discards state.

Each evaluation clears the window, and so does the engine's ``redecide``.
A structure event renumbers the overlay's handles but not the graph's
nodes, so the window spans it unchanged.

A sweep's flips go through one :meth:`Runtime.set_decisions`, which
invalidates only the compiled plans whose traversal touches a flipped
node, in one scan of the plan stores — an adaptive adjustment never
forces a full plan-cache rebuild.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.execution import Runtime
from repro.core.overlay import KIND_READER, KIND_WRITER, Decision
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.passes import DecisionGraph, push_pull_frequencies

NodeId = Hashable


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
    """Counts a runtime's stream and re-decides frontier nodes as it drifts.

    The window holds the writes and reads counted since the last
    evaluation, per graph node id.  :meth:`frequencies` turns it into
    every handle's ``f_h`` (the window's writes, each counted once per
    overlay path from its writer, whether or not it moved a value) and
    ``f_l`` (its reads, once per path to their reader); nothing the
    runtime does with the events enters them.
    """

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
        # The window: writes and reads per graph node id since it was
        # last cleared.
        self._writes: Counter = Counter()
        self._reads: Counter = Counter()

    # ------------------------------------------------------------------

    def count_writes(self, nodes: Collection[NodeId]) -> None:
        """Count one write at each of ``nodes`` (graph node ids, repeats
        allowed) and evaluate once the check interval is crossed,
        so a batch crosses it exactly as the per-event loop would."""
        self._count(self._writes, nodes)

    def count_reads(self, nodes: Collection[NodeId]) -> None:
        """:meth:`count_writes` for reads."""
        self._count(self._reads, nodes)

    def _count(self, window: Counter, nodes: Collection[NodeId]) -> None:
        window.update(nodes)
        self._events_since_check += len(nodes)
        if self._events_since_check >= self.config.check_interval:
            self.evaluate()

    def clear(self) -> None:
        """Empty the window."""
        self._writes.clear()
        self._reads.clear()

    def frequencies(self) -> Tuple[np.ndarray, np.ndarray]:
        """The window's ``(f_h, f_l)`` for every handle of the runtime's
        overlay: §4.1's pass with the window's counts as the frequencies."""
        overlay = self.runtime.overlay
        graph = DecisionGraph(overlay)
        model = FrequencyModel(read=self._reads, write=self._writes)
        fh, fl = push_pull_frequencies(graph, model)
        # A dropped reader keeps its kind and label, without edges: it
        # serves none of its node's reads.
        dropped = graph.kinds == KIND_READER
        dropped[list(overlay.reader_of.values())] = False
        fl[dropped] = 0.0
        return fh, fl

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
        """Re-decide every frontier node from the window, then clear it.

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
        fh, fl = self.frequencies()
        self.clear()
        flips = {}  # handle -> new decision, in sweep order
        for handle in self.frontier():
            pushes, pulls = fh[handle], fl[handle]
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
        return len(flips)
