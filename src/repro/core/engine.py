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
6. attaches the incremental overlay maintainer (Section 3.3) and the
   adaptive decision controller (Section 4.8).

The two baselines of Section 5.1 are spelled::

    all-pull  = EAGrEngine(g, q, overlay_algorithm="identity", dataflow="all_pull")
    all-push  = EAGrEngine(g, q, overlay_algorithm="identity", dataflow="all_push")
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.execution import Runtime
from repro.core.overlay import Decision, Overlay
from repro.core.query import EgoQuery
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.greedy import greedy_dataflow
from repro.dataflow.mincut import DataflowStats, decide_dataflow
from repro.dataflow.splitting import split_nodes
from repro.graph.bipartite import build_bipartite
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.streams import StructureEvent, StructureOp
from repro.overlay import construct_overlay
from repro.overlay.dynamic import OverlayMaintainer

NodeId = Hashable

DATAFLOW_MODES = ("mincut", "greedy", "all_push", "all_pull")


class EAGrEngine:
    """Compile an ego-centric aggregate query and serve reads/writes.

    Parameters
    ----------
    graph:
        The data graph (kept live; structure changes flow through
        :meth:`apply_structure_event` or direct graph mutation when a
        maintainer is attached).
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
    maintain:
        Attach the Section 3.3 incremental overlay maintainer to the graph's
        structure stream.
    adaptive:
        Attach the Section 4.8 adaptive decision controller.
    value_store:
        Aggregate-state backend: ``auto`` (columnar numpy columns when the
        aggregate declares a column spec, object lists otherwise), or
        force ``object`` / ``columnar``.  Invisible to callers — reads
        are byte-identical between backends for integer streams.
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
        maintain: bool = False,
        adaptive: bool = False,
        adaptive_config: Optional[AdaptiveConfig] = None,
        auto_redecide: bool = True,
        collect_trace: bool = False,
        overlay_params: Optional[Dict[str, Any]] = None,
        value_store: str = "auto",
    ) -> None:
        if dataflow not in DATAFLOW_MODES:
            raise ValueError(f"dataflow must be one of {DATAFLOW_MODES}")
        self.graph = graph
        self.query = query
        self.dataflow = dataflow
        self.overlay_algorithm = overlay_algorithm
        self.value_store = value_store
        self.frequencies = frequencies or FrequencyModel.uniform(graph.nodes())
        self.cost_model = cost_model or CostModel.for_aggregate(query.aggregate)
        self.auto_redecide = auto_redecide
        self._collect_trace = collect_trace
        self._needs_recompile = False
        # reference_read orders oracle members deterministically; the sort
        # is cached per node and refreshed only when the membership changes.
        self._oracle_members: Dict[NodeId, Tuple[frozenset, List[NodeId]]] = {}

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
        self.runtime = Runtime(
            self.overlay,
            query,
            collect_trace=collect_trace,
            value_store=value_store,
        )

        self.maintainer: Optional[OverlayMaintainer] = None
        self._seen_version = 0
        if maintain:
            self.maintainer = OverlayMaintainer(
                graph, query.neighborhood, self.overlay, predicate=query.predicate
            ).attach()

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
            self.controller._snapshot()

    # ------------------------------------------------------------------
    # event API
    # ------------------------------------------------------------------

    def write(self, node: NodeId, value: Any, timestamp: Optional[float] = None) -> None:
        """Process a content update ("write on ``node``")."""
        self._sync()
        self.runtime.write(node, value, timestamp)
        if self.controller is not None:
            self.controller.tick()

    def write_batch(self, writes: Sequence) -> int:
        """Process a batch of writes, coalescing same-writer deltas.

        ``writes`` holds ``(node, value)`` / ``(node, value, timestamp)``
        tuples or WriteEvent-like objects, in stream order.  The runtime
        runs one compiled-plan propagation per touched writer instead of
        one overlay traversal per event; final state matches the
        equivalent per-event loop.  Returns the number of writes applied.
        """
        self._sync()
        count = self.runtime.write_batch(writes)
        if self.controller is not None:
            self.controller.tick(count)
        return count

    def read(self, node: NodeId) -> Any:
        """Evaluate the query at ``node``: the current ``F(N(node))``."""
        self._sync()
        result = self.runtime.read(node)
        if self.controller is not None:
            self.controller.tick()
        return result

    def read_batch(self, nodes: Sequence[NodeId]) -> List[Any]:
        """Evaluate the query at each of ``nodes`` (one structural sync,
        one pass of the runtime's read path for the whole batch)."""
        self._sync()
        results = self.runtime.read_batch(nodes)
        if self.controller is not None:
            self.controller.tick(len(results))
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
            self.controller.tick(len(results))
        return results

    def read_handle_column(self, handles):
        """:meth:`read_handles` as one float64 array (see
        :meth:`repro.core.execution.Runtime.read_handle_column`; only for
        a runtime whose ``float_reads`` holds)."""
        results = self.runtime.read_handle_column(handles)
        if self.controller is not None:
            self.controller.tick(len(results))
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

        With a maintainer attached the overlay absorbs the change
        incrementally; otherwise the engine recompiles lazily on the next
        read/write.  Either way the readers whose neighbourhood the event
        alters — before or after it — enter the pending change report:
        their aggregates can move although no writer did.
        """
        op = event.op
        endpoints = (event.u,) if event.v is None else (event.u, event.v)
        affected = self._readers_near(endpoints)
        if op is StructureOp.ADD_EDGE:
            self.graph.add_edge(event.u, event.v)
        elif op is StructureOp.REMOVE_EDGE:
            self.graph.remove_edge(event.u, event.v)
        elif op is StructureOp.ADD_NODE:
            self.graph.add_node(event.u)
        elif op is StructureOp.REMOVE_NODE:
            self.graph.remove_node(event.u)
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown structure op: {op}")
        affected |= self._readers_near(endpoints)
        self.runtime.note_restructured_readers(affected)
        self._oracle_members.clear()
        if self.maintainer is None:
            self._needs_recompile = True

    def _readers_near(self, endpoints) -> set:
        """Nodes whose ``N(r)`` may involve one of ``endpoints`` in the
        graph as it stands (the set the overlay maintainer re-derives)."""
        graph = self.graph
        affected_readers = self.query.neighborhood.affected_readers
        near = set()
        for node in endpoints:
            if node in graph:
                near.add(node)
                near |= affected_readers(graph, node)
        return near

    # ------------------------------------------------------------------
    # synchronization after structural changes
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        if self.maintainer is not None:
            if self.maintainer.version != self._seen_version:
                self._seen_version = self.maintainer.version
                if self.auto_redecide and self.dataflow in ("mincut", "greedy"):
                    self.decision_stats = self._decide()
                elif self.dataflow == "all_push":
                    self.overlay.set_all_decisions(Decision.PUSH)
                else:
                    self.overlay.set_all_decisions(Decision.PULL)
                self._oracle_members.clear()
                # Incremental surgery dirties a bounded neighborhood of the
                # overlay; only plans touching it are recompiled.
                self.runtime.rebuild(dirty=self.maintainer.consume_plan_dirty())
        elif self._needs_recompile:
            self._recompile()
            self._needs_recompile = False

    def _recompile(self) -> None:
        """Full re-compilation (no maintainer): rebuild AG, overlay,
        decisions and runtime, preserving writer window buffers and the
        pending change report (carried across by graph node id), the
        write stamp and the logical clock."""
        buffers = self.runtime.buffers
        pending_changes = self.runtime.pop_changed_writer_nodes()
        pending_readers = self.runtime._restructured_readers
        stamp = self.runtime.stamp
        clock = self.runtime.clock
        self._oracle_members.clear()
        self.ag = build_bipartite(
            self.graph, self.query.neighborhood, self.query.predicate
        )
        self.construction = construct_overlay(
            self.ag, self.overlay_algorithm, aggregate=self.query.aggregate
        )
        self.overlay = self.construction.overlay
        self.decision_stats = self._decide()
        self.runtime = Runtime(
            self.overlay,
            self.query,
            buffers=buffers,
            collect_trace=self._collect_trace,
            value_store=self.value_store,
            stamp=stamp,
        )
        self.runtime.clock = clock
        self.runtime.note_changed_writers(pending_changes)
        self.runtime._restructured_readers.update(pending_readers)
        if self.controller is not None:
            self.controller = AdaptiveController(
                self.runtime, self.cost_model, self.controller.config
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def reference_read(self, node: NodeId) -> Any:
        """Brute-force oracle: evaluate ``F(N(node))`` from the live graph."""
        members = self.query.neighborhood(self.graph, node)
        cached = self._oracle_members.get(node)
        if cached is not None and cached[0] == members:
            ordered = cached[1]
        else:
            ordered = sorted(members, key=repr)
            self._oracle_members[node] = (frozenset(members), ordered)
        return self.runtime.reference_read(ordered)

    @property
    def counters(self):
        """Operation counters (writes/reads/push/pull) of the runtime."""
        return self.runtime.counters

    @property
    def value_store_backend(self) -> str:
        """The backend the ``value_store`` mode resolved to (``object`` /
        ``columnar``) for this engine's aggregate."""
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
