"""EAGrEngine: the top-level compile-and-run pipeline.

This ties the whole paper together.  Given a data graph and an ego-centric
query, the engine:

1. compiles the bipartite writer/reader graph ``AG`` (Section 3.1),
2. constructs an aggregation overlay with the chosen algorithm —
   ``identity`` (no sharing; the two industry baselines), ``vnm``,
   ``vnm_a``, ``vnm_n``, ``vnm_d``, or ``iob`` (Section 3.2),
3. optionally applies the node-splitting optimization (Section 4.7),
4. annotates dataflow decisions — optimal ``mincut``, linear-time
   ``greedy``, or the forced ``all_push`` / ``all_pull`` baselines
   (Sections 4.3–4.6); continuous-mode queries force readers to push,
5. instantiates the :class:`~repro.core.execution.Runtime`, and optionally
   attaches the adaptive decision controller (Section 4.8).

Structure-stream events go through :meth:`EAGrEngine.apply_structure_event`
and are absorbed by the incremental overlay maintainer (Section 3.3), which
the first event builds.

The two baselines of Section 5.1 are spelled::

    all-pull  = EAGrEngine(g, q, overlay_algorithm="identity", dataflow="all_pull")
    all-push  = EAGrEngine(g, q, overlay_algorithm="identity", dataflow="all_push")
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.execution import Runtime
from repro.core.statestore import WriteFrame
from repro.core.overlay import Decision, Overlay
from repro.core.query import EgoQuery
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.greedy import greedy_dataflow
from repro.dataflow.mincut import DataflowStats, decide_dataflow
from repro.dataflow.splitting import split_nodes
from repro.graph.bipartite import build_bipartite
from repro.graph.dynamic_graph import DynamicGraph, GraphError
from repro.graph.streams import StructureEvent
from repro.overlay import construct_overlay
from repro.overlay.dynamic import OverlayMaintainer

NodeId = Hashable

DATAFLOW_MODES = ("mincut", "greedy", "all_push", "all_pull")


class EAGrEngine:
    """Compile an ego-centric aggregate query and serve reads/writes.

    Parameters
    ----------
    graph:
        The data graph (kept live).  Structure changes go through
        :meth:`apply_structure_event`; any other edit of the graph makes
        the engine's next call raise :class:`GraphError`.
    query:
        The ``⟨F, w, N, pred⟩`` specification.
    overlay_algorithm:
        One of ``identity | vnm | vnm_a | vnm_n | vnm_d | iob``.
    dataflow:
        One of ``mincut | greedy | all_push | all_pull``.
    frequencies:
        Expected workload (defaults to uniform 1:1); used for decisions and
        splitting only — execution is workload-agnostic.
    enable_splitting:
        Apply Section 4.7's partial pre-computation before decisions.
    adaptive:
        Attach the Section 4.8 adaptive decision controller.
    value_store:
        Only ``"columnar"``; anything else raises :class:`ValueError`.
        The aggregate picks its store (numpy columns when it declares a
        column spec, object lists otherwise), so there is nothing to
        choose.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        query: EgoQuery,
        overlay_algorithm: str = "vnm_a",
        dataflow: str = "mincut",
        frequencies: Optional[FrequencyModel] = None,
        cost_model: Optional[CostModel] = None,
        enable_splitting: bool = False,
        adaptive: bool = False,
        adaptive_config: Optional[AdaptiveConfig] = None,
        overlay_params: Optional[Dict[str, Any]] = None,
        # Kept only because the benchmark suite's engine workloads still
        # pass value_store="columnar"; it goes once they stop.
        value_store: str = "columnar",
    ) -> None:
        if dataflow not in DATAFLOW_MODES:
            raise ValueError(f"dataflow must be one of {DATAFLOW_MODES}")
        if value_store != "columnar":
            raise ValueError(
                f"value_store must be 'columnar', got {value_store!r}: the "
                "aggregate picks its store"
            )
        self.graph = graph
        self.query = query
        self.dataflow = dataflow
        self.overlay_algorithm = overlay_algorithm
        self.frequencies = frequencies or FrequencyModel.uniform(graph.nodes())
        self.cost_model = cost_model or CostModel.for_aggregate(query.aggregate)

        self.ag = build_bipartite(graph, query.neighborhood, query.predicate)
        self.construction = construct_overlay(
            self.ag,
            overlay_algorithm,
            aggregate=query.aggregate,
            **(overlay_params or {}),
        )
        self.overlay: Overlay = self.construction.overlay

        self.split_handles = []
        if enable_splitting:
            self.split_handles = split_nodes(
                self.overlay, self.frequencies, self.cost_model
            )

        self.decision_stats = self._decide()
        self.runtime = Runtime(self.overlay, query)

        #: The Section 3.3 overlay maintainer, built by the first structure
        #: event: its index of the partials costs a good part of a
        #: construction, which an engine that never sees an event does not
        #: pay.
        self.maintainer: Optional[OverlayMaintainer] = None
        # The graph's structure clock after the engine's own last edit, and
        # as of the last sync: a clock that moved otherwise means the graph
        # was edited behind the engine.
        self._graph_clock = self._synced_clock = graph.clock

        self.controller: Optional[AdaptiveController] = None
        if adaptive:
            self.controller = AdaptiveController(
                self.runtime, self.cost_model, adaptive_config
            )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def _decide(self) -> Optional[DataflowStats]:
        window_size = self.query.window.expected_size()
        if self.dataflow == "all_push":
            self.overlay.set_all_decisions(Decision.PUSH)
            return None
        if self.dataflow == "all_pull":
            self.overlay.set_all_decisions(Decision.PULL)
            return None
        if self.dataflow == "greedy":
            return greedy_dataflow(
                self.overlay,
                self.frequencies,
                self.cost_model,
                window_size=window_size,
                force_push_readers=self.query.continuous,
            )
        return decide_dataflow(
            self.overlay,
            self.frequencies,
            self.cost_model,
            window_size=window_size,
            force_push_readers=self.query.continuous,
        )

    def redecide(self, frequencies: Optional[FrequencyModel] = None) -> None:
        """Re-run dataflow decisions (e.g. after a workload shift) and
        rebuild the runtime state accordingly."""
        if frequencies is not None:
            self.frequencies = frequencies
        self.decision_stats = self._decide()
        # Re-deciding only dirties the handles whose decision flipped;
        # untouched writers/readers keep their compiled plans.
        self.runtime.rebuild(dirty=self.overlay.pop_dirty())
        if self.controller is not None:
            self.controller.clear()

    # ------------------------------------------------------------------
    # event API
    # ------------------------------------------------------------------

    def write(self, node: NodeId, value: Any, timestamp: Optional[float] = None) -> None:
        """Process a content update ("write on ``node``")."""
        self._sync()
        self.runtime.write(node, value, timestamp)
        if self.controller is not None:
            self.controller.count_writes((node,))

    def write_batch(self, writes: Sequence) -> int:
        """Process a batch of writes, coalescing same-writer deltas.

        ``writes`` holds ``(node, value)`` / ``(node, value, timestamp)``
        tuples or WriteEvent-like objects, in stream order.  The runtime
        runs one compiled-plan propagation per touched writer instead of
        one overlay traversal per event; final state matches the
        equivalent per-event loop.  Returns the number of writes applied.
        """
        self._sync()
        if self.controller is None:
            return self.runtime.write_batch(writes)
        if writes.__class__ is not WriteFrame and not isinstance(writes, (list, tuple)):
            writes = list(writes)  # the runtime and the controller both read it
        count = self.runtime.write_batch(writes)
        self.controller.count_writes(_written_nodes(writes))
        return count

    def read(self, node: NodeId) -> Any:
        """Evaluate the query at ``node``: the current ``F(N(node))``."""
        self._sync()
        result = self.runtime.read(node)
        if self.controller is not None:
            self.controller.count_reads((node,))
        return result

    def read_batch(self, nodes: Sequence[NodeId]) -> List[Any]:
        """Evaluate the query at each of ``nodes`` (one structural sync,
        one pass of the runtime's read path for the whole batch)."""
        self._sync()
        if self.controller is None:
            return self.runtime.read_batch(nodes)
        if not isinstance(nodes, (list, tuple)):
            nodes = list(nodes)  # the runtime and the controller both read it
        results = self.runtime.read_batch(nodes)
        self.controller.count_reads(nodes)
        return results

    # ------------------------------------------------------------------
    # change reports and lifecycle (what a serve-layer shard host drives)
    # ------------------------------------------------------------------

    def changed_handles(self):
        """Reader *handles* whose value may have changed since the last
        report (see :meth:`repro.core.execution.Runtime.changed_handles`):
        an ascending int array over :attr:`runtime`'s overlay, valid until
        the next structural change.  ``runtime.labels_of`` maps (a subset
        of) it to node ids — what the serve layer does after intersecting
        with its watch mask.
        """
        self._sync()
        return self.runtime.changed_handles()

    def read_handles(self, handles) -> List[Any]:
        """:meth:`read_batch` for callers already in handle space: the
        values at reader ``handles`` of :attr:`runtime`'s overlay, in order
        (see :meth:`repro.core.execution.Runtime.read_handles`).  No
        structural sync — one could renumber the handles under the caller;
        they are valid from the :meth:`changed_handles` (or any other
        synced call) that produced them until the next structural change.
        """
        results = self.runtime.read_handles(handles)
        if self.controller is not None:
            self.controller.count_reads(self.runtime.labels_of(handles))
        return results

    def read_handle_column(self, handles):
        """:meth:`read_handles` as one float64 array (see
        :meth:`repro.core.execution.Runtime.read_handle_column`; only for
        a runtime whose ``float_reads`` holds)."""
        results = self.runtime.read_handle_column(handles)
        if self.controller is not None:
            self.controller.count_reads(self.runtime.labels_of(handles))
        return results

    def changed_readers(self) -> List[NodeId]:
        """Reader nodes whose value may have changed since the last call.

        Consumes the runtime's pending report — moved writers mapped
        through their frozen reader closures, plus the readers structural
        changes affected — in O(affected readers).  Each candidate once,
        in ascending overlay handle order; the order is an artefact of
        how the set is deduplicated, and nothing may rely on more than
        "each candidate once".  A superset is allowed (consumers diff
        values before acting); an empty list means nothing changed.
        """
        self._sync()
        return self.runtime.changed_readers()

    def changed_report(self):
        """``(stamp, readers)``: the changed-reader set plus the global
        write stamp (see :meth:`repro.core.execution.Runtime.changed_report`).

        The stamp is stable across overlay rebuilds and — when the engine
        is restored from checkpointed window buffers, as the serve layer's
        shard restart does — across process restarts, so it can version
        change notifications durably.  It advances in lockstep with
        ingestion calls — once per ``write_batch`` however the batch
        coalesces — so replaying a logged batch sequence through a fresh
        engine reproduces both the values and the stamps.
        """
        self._sync()
        return self.runtime.changed_report()

    def drain(self) -> None:
        """Synchronous engine: every accepted write is already applied."""

    def close(self) -> None:
        """Synchronous engine: nothing to flush or release.

        Closing flushes rather than drops: every write accepted before
        the call is visible to a final read.  Idempotent.
        """

    def apply_structure_event(self, event: StructureEvent) -> None:
        """Apply one structure-stream event to the data graph.

        The overlay maintainer makes the edit and absorbs it with local
        surgery, keeping :attr:`ag` current (the first event builds it, from
        the ``AG`` the overlay was built from); the next read or write
        re-runs the decisions and recompiles only the plans the surgery
        touched.  A writer keeps its window until its node is removed.  The
        readers whose neighbourhood the event alters — before or after it —
        enter the pending change report: their aggregates can move although
        no writer did.
        """
        self._check_graph()
        if self.maintainer is None:
            self.maintainer = OverlayMaintainer(
                self.graph, self.query.neighborhood, self.overlay, self.ag,
                predicate=self.query.predicate,
            )
        readers = self.maintainer.apply(event)
        self._graph_clock = self.graph.clock
        self.runtime.note_restructured_readers(readers)

    # ------------------------------------------------------------------
    # synchronization after structural changes
    # ------------------------------------------------------------------

    def _check_graph(self) -> None:
        if self.graph.clock != self._graph_clock:
            raise GraphError(
                "the engine's graph was edited directly: structure changes "
                "must go through EAGrEngine.apply_structure_event"
            )

    def _sync(self) -> None:
        clock = self.graph.clock
        if clock == self._synced_clock:
            return
        self._check_graph()
        self._synced_clock = clock
        self.decision_stats = self._decide()
        # Incremental surgery dirties a bounded neighborhood of the
        # overlay; only plans touching it are recompiled.
        self.runtime.rebuild(dirty=self.overlay.pop_dirty())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def counters(self):
        """Operation counters (writes/reads/push/pull) of the runtime."""
        return self.runtime.counters

    @property
    def value_store_backend(self) -> str:
        """The store this engine's aggregate picked (``object`` /
        ``columnar``)."""
        return self.runtime.values.backend

    def sharing_index(self) -> float:
        """``1 − |overlay edges| / |AG edges|`` for the compiled overlay."""
        return self.overlay.sharing_index(self.ag)

    def describe(self) -> str:
        """One-line human-readable summary of the compiled pipeline."""
        return (
            f"EAGrEngine(query={self.query.describe()}, "
            f"overlay={self.overlay_algorithm}, dataflow={self.dataflow}, "
            f"SI={self.sharing_index():.3f}, edges={self.overlay.num_edges})"
        )


def _written_nodes(writes) -> List[NodeId]:
    """The node of each write in a batch ``write_batch`` accepts."""
    if writes.__class__ is WriteFrame:
        return writes.nodes.tolist()
    return [item[0] if item.__class__ is tuple else item.node for item in writes]
