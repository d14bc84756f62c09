"""The aggregation overlay graph (paper Section 2.2.1).

An overlay ``OG(V'', E'')`` is a DAG with three node kinds:

* **writer** nodes — one per data-graph node producing content,
* **reader** nodes — one per query node (``pred``-selected),
* **partial aggregation** nodes — introduced by the construction algorithms
  to share partial aggregates across readers.

Edges carry a *sign*: ``+1`` for ordinary contribution, ``-1`` for the
*negative edges* of Section 3.1 that subtract a duplicate contribution
("quasi-biclique" overlays, ``VNM_N``).  Correctness requires the **net
signed path count** from any writer to any reader to be exactly 1 for
``N(r)`` members and 0 otherwise — except for duplicate-insensitive
aggregates, where any positive path count is acceptable and negative edges
are forbidden.  :meth:`Overlay.validate` checks exactly this invariant and is
used throughout the test suite.

Every node additionally carries a dataflow *decision* (push or pull,
Section 2.2.1): push nodes keep their PAO up to date on every update; pull
nodes compute on demand.  Decisions must be *consistent*: no edge may run
from a pull node into a push node.  Decisions default to pull (writers to
push) until :mod:`repro.dataflow` assigns them.
"""

from __future__ import annotations

import enum
import itertools
import operator
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph

NodeId = Hashable


class NodeKind(enum.Enum):
    WRITER = "writer"
    READER = "reader"
    PARTIAL = "partial"


class Decision(enum.Enum):
    PUSH = "push"
    PULL = "pull"


class OverlayError(Exception):
    """Raised on structurally invalid overlay mutations."""


class Overlay:
    """Mutable aggregation overlay graph.

    Node handles are dense integers.  ``inputs[v]`` maps source handle →
    sign; ``outputs[v]`` is the (insertion-ordered) set of destinations.
    A data-graph node that both writes and reads appears as *two* overlay
    nodes (the bipartite split of Section 3.1).
    """

    def __init__(self) -> None:
        self.kinds: List[NodeKind] = []
        self.labels: List[Optional[NodeId]] = []
        self.inputs: List[Dict[int, int]] = []
        self.outputs: List[Dict[int, None]] = []
        self.decisions: List[Decision] = []
        self.writer_of: Dict[NodeId, int] = {}
        self.reader_of: Dict[NodeId, int] = {}
        self._num_edges = 0
        #: Bumped on every structural mutation (nodes/edges); compiled
        #: propagation plans and CSR snapshots key their validity off this.
        self.version = 0
        #: Bumped whenever any node's push/pull decision actually changes.
        self.decision_version = 0
        self._dirty: Set[int] = set()
        #: (version, order) of the last topological order taken
        self._order: Tuple[int, List[int]] = (-1, [])

    # ------------------------------------------------------------------
    # plan-cache dirty tracking
    # ------------------------------------------------------------------

    def mark_dirty(self, handle: int) -> None:
        """Record that ``handle``'s structure or decision changed.

        Consumers (the runtime's plan cache) take the accumulated set via
        :meth:`pop_dirty` and invalidate only the plans touching it.
        """
        self._dirty.add(handle)

    def pop_dirty(self) -> Set[int]:
        """Return and clear the set of handles touched since the last call."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------

    def _new_node(self, kind: NodeKind, label: Optional[NodeId]) -> int:
        handle = len(self.kinds)
        self.kinds.append(kind)
        self.labels.append(label)
        self.inputs.append({})
        self.outputs.append({})
        # Writers are always annotated push (Section 2.2.1); everything else
        # starts pull (safe: nothing is precomputed until decisions run).
        self.decisions.append(Decision.PUSH if kind is NodeKind.WRITER else Decision.PULL)
        self.version += 1
        self._dirty.add(handle)
        return handle

    def add_writer(self, node: NodeId) -> int:
        """Add (or fetch) the writer node for data-graph node ``node``."""
        existing = self.writer_of.get(node)
        if existing is not None:
            return existing
        handle = self._new_node(NodeKind.WRITER, node)
        self.writer_of[node] = handle
        return handle

    def add_reader(self, node: NodeId) -> int:
        """Add (or fetch) the reader node for data-graph node ``node``."""
        existing = self.reader_of.get(node)
        if existing is not None:
            return existing
        handle = self._new_node(NodeKind.READER, node)
        self.reader_of[node] = handle
        return handle

    def add_partial(self) -> int:
        """Add a fresh partial-aggregation (intermediate) node."""
        return self._new_node(NodeKind.PARTIAL, None)

    @property
    def num_nodes(self) -> int:
        return len(self.kinds)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def writer_handles(self) -> Iterator[int]:
        return iter(self.writer_of.values())

    def reader_handles(self) -> Iterator[int]:
        return iter(self.reader_of.values())

    def partial_handles(self) -> Iterator[int]:
        for handle, kind in enumerate(self.kinds):
            if kind is NodeKind.PARTIAL:
                yield handle

    @property
    def num_partials(self) -> int:
        return sum(1 for kind in self.kinds if kind is NodeKind.PARTIAL)

    def kind_codes(self) -> List[int]:
        """Every node's kind as its integer code (``KIND_WRITER`` …)."""
        return list(map(_CODE_BY_ID.__getitem__, map(id, self.kinds)))

    def is_writer(self, handle: int) -> bool:
        return self.kinds[handle] is NodeKind.WRITER

    def is_reader(self, handle: int) -> bool:
        return self.kinds[handle] is NodeKind.READER

    def fan_in(self, handle: int) -> int:
        return len(self.inputs[handle])

    # ------------------------------------------------------------------
    # edge management
    # ------------------------------------------------------------------

    def add_edge(self, src: int, dst: int, sign: int = 1) -> None:
        """Add the edge ``src -> dst`` with the given sign.

        Guards the paper's structural rules: readers never feed other nodes
        ("we do not allow a reader node to directly form an input to an
        aggregator node"), writers never receive input, and at most one edge
        exists per (src, dst) pair — multiple writer→reader *paths* (for
        duplicate-insensitive aggregates) always run through distinct
        intermediate nodes.
        """
        if sign not in (1, -1):
            raise OverlayError("edge sign must be +1 or -1")
        if self.kinds[src] is NodeKind.READER:
            raise OverlayError("reader nodes cannot feed other overlay nodes")
        if self.kinds[dst] is NodeKind.WRITER:
            raise OverlayError("writer nodes cannot receive overlay edges")
        if src == dst:
            raise OverlayError("self loops are not allowed")
        if dst in self.outputs[src]:
            raise OverlayError(f"duplicate edge {src}->{dst}")
        self.inputs[dst][src] = sign
        self.outputs[src][dst] = None
        self._num_edges += 1
        self.version += 1
        self._dirty.add(src)
        self._dirty.add(dst)

    def remove_edge(self, src: int, dst: int) -> int:
        """Remove ``src -> dst``; returns the sign it carried."""
        try:
            sign = self.inputs[dst].pop(src)
        except KeyError:
            raise OverlayError(f"edge {src}->{dst} not present") from None
        del self.outputs[src][dst]
        self._num_edges -= 1
        self.version += 1
        self._dirty.add(src)
        self._dirty.add(dst)
        return sign

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.outputs[src]

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(src, dst, sign)`` for every edge."""
        for dst, srcs in enumerate(self.inputs):
            for src, sign in srcs.items():
                yield (src, dst, sign)

    @property
    def num_negative_edges(self) -> int:
        return sum(map(operator.countOf, map(dict.values, self.inputs), itertools.repeat(-1)))

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def set_decision(self, handle: int, decision: Decision) -> None:
        if self.kinds[handle] is NodeKind.WRITER and decision is not Decision.PUSH:
            raise OverlayError("writer nodes are always push")
        if self.decisions[handle] is decision:
            return
        self.decisions[handle] = decision
        self.decision_version += 1
        self._dirty.add(handle)

    def set_all_decisions(self, decision: Decision) -> None:
        """Annotate every non-writer node (all-push / all-pull baselines)."""
        changed = False
        for handle in range(self.num_nodes):
            if self.kinds[handle] is not NodeKind.WRITER:
                if self.decisions[handle] is not decision:
                    self.decisions[handle] = decision
                    self._dirty.add(handle)
                    changed = True
        if changed:
            self.decision_version += 1

    def set_decisions(self, push: Sequence[bool]) -> None:
        """Annotate every node at once: push where ``push[handle]`` is true,
        pull elsewhere.  ``decision_version`` and the dirty set end as if
        :meth:`set_decision` had been called for each node."""
        decisions = list(map((Decision.PULL, Decision.PUSH).__getitem__, push))
        changed = list(
            itertools.compress(
                range(self.num_nodes), map(operator.is_not, self.decisions, decisions)
            )
        )
        for handle in changed:
            if self.kinds[handle] is NodeKind.WRITER:
                raise OverlayError("writer nodes are always push")
        self.decisions[:] = decisions
        self.decision_version += len(changed)
        self._dirty.update(changed)

    def decisions_consistent(self) -> bool:
        """True iff no edge runs from a pull node into a push node."""
        decisions = self.decisions
        pull = Decision.PULL
        for inputs, decision in zip(self.inputs, decisions):
            if decision is Decision.PUSH:
                for src in inputs:
                    if decisions[src] is pull:
                        return False
        return True

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def topological_order(self) -> List[int]:
        """Writers-first topological order; raises if the overlay has a cycle.

        Taken once per ``version``: every caller at the same version (the
        §4 decision, then the runtime it annotates) gets a copy of one
        order.
        """
        version, order = self._order
        if version == self.version:
            return list(order)
        indegree = list(map(len, self.inputs))
        frontier = [h for h, degree in enumerate(indegree) if not degree]
        order: List[int] = []
        outputs = self.outputs
        pop, push, emit = frontier.pop, frontier.append, order.append
        while frontier:
            handle = pop()
            emit(handle)
            for dst in outputs[handle]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    push(dst)
        if len(order) != self.num_nodes:
            raise OverlayError("overlay contains a cycle")
        self._order = (self.version, order)
        return list(order)

    def upstream(self, handle: int) -> Set[int]:
        """All nodes with a directed path to ``handle`` (exclusive)."""
        seen: Set[int] = set()
        stack = list(self.inputs[handle])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.inputs[node])
        return seen

    def downstream(self, handle: int) -> Set[int]:
        """All nodes reachable from ``handle`` (exclusive)."""
        seen: Set[int] = set()
        stack = list(self.outputs[handle])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.outputs[node])
        return seen

    # ------------------------------------------------------------------
    # semantics: coverage and validation
    # ------------------------------------------------------------------

    def coverage(self, handle: int) -> Dict[int, int]:
        """Net signed multiplicity of each writer reaching ``handle``.

        ``coverage(r)[w] == 2`` means writer ``w`` reaches reader ``r`` along
        two (net) positive paths; a correct duplicate-sensitive overlay has
        every multiplicity equal to 1.
        """
        memo: Dict[int, Dict[int, int]] = {}

        def rec(node: int) -> Dict[int, int]:
            cached = memo.get(node)
            if cached is not None:
                return cached
            if self.kinds[node] is NodeKind.WRITER:
                result = {node: 1}
            else:
                result = {}
                for src, sign in self.inputs[node].items():
                    for writer, mult in rec(src).items():
                        total = result.get(writer, 0) + sign * mult
                        if total:
                            result[writer] = total
                        else:
                            result.pop(writer, None)
            memo[node] = result
            return result

        return dict(rec(handle))

    def validate(
        self,
        ag: BipartiteGraph,
        duplicate_insensitive: bool = False,
    ) -> None:
        """Check the overlay computes exactly the query encoded by ``ag``.

        Raises :class:`OverlayError` on the first violated invariant.  For
        duplicate-sensitive aggregates every writer in ``N(r)`` must reach
        ``r`` with net multiplicity exactly 1 (negative edges may be used to
        cancel extra paths); for duplicate-insensitive aggregates any
        multiplicity >= 1 is fine but negative edges are forbidden.
        """
        self.topological_order()  # raises on cycles
        if duplicate_insensitive and self.num_negative_edges:
            raise OverlayError(
                "duplicate-insensitive overlays must not contain negative edges"
            )
        for reader_node, expected in ag.reader_inputs.items():
            handle = self.reader_of.get(reader_node)
            if handle is None:
                raise OverlayError(f"reader {reader_node!r} missing from overlay")
            cover = self.coverage(handle)
            covered_nodes = {self.labels[w]: mult for w, mult in cover.items()}
            expected_set = set(expected)
            for writer_node in expected_set:
                mult = covered_nodes.pop(writer_node, 0)
                if duplicate_insensitive:
                    if mult < 1:
                        raise OverlayError(
                            f"reader {reader_node!r} misses writer {writer_node!r}"
                        )
                elif mult != 1:
                    raise OverlayError(
                        f"reader {reader_node!r} receives writer {writer_node!r} "
                        f"with net multiplicity {mult} (expected 1)"
                    )
            if covered_nodes:
                extra = sorted(map(repr, covered_nodes))
                raise OverlayError(
                    f"reader {reader_node!r} receives spurious writers: {extra}"
                )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def sharing_index(self, ag: BipartiteGraph) -> float:
        """``1 - |E''| / |E'|`` (Section 3.1); positive when sharing helps."""
        return sharing_index(self.num_edges, ag.num_edges)

    def reader_depths(self) -> Dict[int, int]:
        """Longest writer→reader path length per reader (Section 5.2)."""
        depth = [0] * self.num_nodes
        for handle in self.topological_order():
            for src in self.inputs[handle]:
                if depth[src] + 1 > depth[handle]:
                    depth[handle] = depth[src] + 1
        return {h: depth[h] for h in self.reader_of.values()}

    def memory_estimate(self) -> int:
        """Rough resident-size estimate in bytes (Figure 10(b) metric)."""
        return memory_estimate(self.num_nodes, self.num_edges)

    # ------------------------------------------------------------------
    # compiled representation
    # ------------------------------------------------------------------

    def to_csr(self) -> "OverlayCSR":
        """Freeze the overlay into a CSR (compressed sparse row) snapshot.

        Edge order within each row preserves the dicts' insertion order, so
        anything compiled from the snapshot (propagation plans) replays the
        exact merge order of the dict-based interpreter — important because
        float merges are not associative.
        """
        n = self.num_nodes
        fan_in = list(map(len, self.inputs))
        in_indptr = [0, *itertools.accumulate(fan_in)]
        in_indices = list(itertools.chain.from_iterable(self.inputs))
        in_signs = list(itertools.chain.from_iterable(map(dict.values, self.inputs)))
        out_counts = list(map(len, self.outputs))
        out_indptr = [0, *itertools.accumulate(out_counts)]
        out_indices = list(itertools.chain.from_iterable(self.outputs))
        if -1 in in_signs:
            # an out-edge's sign is its in-edge's: find it by (dst, src) key
            in_keys = np.repeat(np.arange(n, dtype=np.int64), fan_in) * n + in_indices
            by_key = np.argsort(in_keys)
            out_keys = np.asarray(out_indices, dtype=np.int64) * n + np.repeat(
                np.arange(n, dtype=np.int64), out_counts
            )
            out_signs = np.asarray(in_signs, dtype=np.int64)[
                by_key[np.searchsorted(in_keys[by_key], out_keys)]
            ].tolist()
        else:
            out_signs = [1] * len(out_indices)
        push = list(map(int, map(operator.is_, self.decisions, itertools.repeat(Decision.PUSH))))
        kinds = self.kind_codes()
        return OverlayCSR(
            num_nodes=n,
            in_indptr=in_indptr,
            in_indices=in_indices,
            in_signs=in_signs,
            out_indptr=out_indptr,
            out_indices=out_indices,
            out_signs=out_signs,
            push=push,
            kinds=kinds,
            fan_in=fan_in,
            version=self.version,
            decision_version=self.decision_version,
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, ag: BipartiteGraph) -> "Overlay":
        """The trivial no-sharing overlay: direct writer→reader edges.

        This is the structure both industry baselines of Section 5.1 run on
        (all-pull: social-network style on-demand; all-push: CEP style
        materialization); they differ only in dataflow decisions.
        """
        writers, readers, src, dst = identity_rows(ag)
        return cls.from_rows(
            writers, readers, 0, src, dst, np.ones(len(src), dtype=np.int64),
            version=len(writers) + len(readers) + len(src),
        )

    @classmethod
    def from_rows(
        cls,
        writers: List[NodeId],
        readers: List[NodeId],
        num_partials: int,
        src: np.ndarray,
        dst: np.ndarray,
        sign: np.ndarray,
        version: int,
    ) -> "Overlay":
        """The overlay whose edges are the rows ``src → dst`` with
        ``sign``, as if added one by one in row order.

        Handles number the writers, then the readers, then
        ``num_partials`` partial nodes.  Each ``inputs`` dict lists its
        edges in row order, and so does each ``outputs`` dict, which is
        the order edge-by-edge inserts leave them in.  Every handle is
        dirty, decisions are the defaults and ``version`` is taken as
        given.  Every dict holds one int object per handle.  The rows
        must keep :meth:`add_edge`'s rules, or :class:`OverlayError` is
        raised.
        """
        num_writers = len(writers)
        num_nodes = num_writers + len(readers) + num_partials
        if len(src):
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes:
                raise OverlayError("edge endpoints must be handles of the overlay")
            if not ((sign == 1) | (sign == -1)).all():
                raise OverlayError("edge sign must be +1 or -1")
            if ((src >= num_writers) & (src < num_writers + len(readers))).any():
                raise OverlayError("reader nodes cannot feed other overlay nodes")
            if (dst < num_writers).any():
                raise OverlayError("writer nodes cannot receive overlay edges")
            if (src == dst).any():
                raise OverlayError("self loops are not allowed")
        handles = list(range(num_nodes))
        overlay = cls()
        overlay.kinds = (
            [NodeKind.WRITER] * num_writers
            + [NodeKind.READER] * len(readers)
            + [NodeKind.PARTIAL] * num_partials
        )
        overlay.labels = [*writers, *readers, *[None] * num_partials]
        overlay.decisions = [Decision.PUSH] * num_writers + [Decision.PULL] * (
            num_nodes - num_writers
        )
        overlay.writer_of = dict(zip(writers, handles))
        overlay.reader_of = dict(zip(readers, handles[num_writers:]))
        # rows by (dst, row) and by (src, row): one unique int64 key each
        rows = np.arange(len(src), dtype=np.int64)
        span = max(len(src), 1)
        by_dst = np.argsort(dst * span + rows)
        by_src = np.argsort(src * span + rows)
        objects = np.array(handles, dtype=object)
        sources = objects[src[by_dst]].tolist()
        targets = objects[dst[by_src]].tolist()
        in_bounds = [0, *np.cumsum(np.bincount(dst, minlength=num_nodes)).tolist()]
        out_bounds = [0, *np.cumsum(np.bincount(src, minlength=num_nodes)).tolist()]
        inputs = [
            dict.fromkeys(sources[start:end], 1)
            for start, end in zip(in_bounds, in_bounds[1:])
        ]
        negative = sign < 0
        if negative.any():
            signs = sign[by_dst].tolist()
            for handle in set(dst[negative].tolist()):
                start, end = in_bounds[handle], in_bounds[handle + 1]
                inputs[handle] = dict(zip(sources[start:end], signs[start:end]))
        if sum(map(len, inputs)) != len(src):
            raise OverlayError("duplicate edge")
        overlay.inputs = inputs
        overlay.outputs = [
            dict.fromkeys(targets[start:end]) for start, end in zip(out_bounds, out_bounds[1:])
        ]
        overlay._num_edges = len(src)
        overlay.version = version
        overlay._dirty = set(handles)
        return overlay

    def copy(self) -> "Overlay":
        clone = Overlay()
        clone.kinds = list(self.kinds)
        clone.labels = list(self.labels)
        clone.inputs = [dict(d) for d in self.inputs]
        clone.outputs = [dict(d) for d in self.outputs]
        clone.decisions = list(self.decisions)
        clone.writer_of = dict(self.writer_of)
        clone.reader_of = dict(self.reader_of)
        clone._num_edges = self._num_edges
        clone.version = self.version
        clone.decision_version = self.decision_version
        clone._dirty = set()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Overlay(writers={len(self.writer_of)}, readers={len(self.reader_of)}, "
            f"partials={self.num_partials}, edges={self.num_edges})"
        )


#: Integer codes for :class:`NodeKind` in CSR snapshots.
KIND_WRITER, KIND_READER, KIND_PARTIAL = 0, 1, 2
_KIND_CODES = {
    NodeKind.WRITER: KIND_WRITER,
    NodeKind.READER: KIND_READER,
    NodeKind.PARTIAL: KIND_PARTIAL,
}
#: the same codes by member identity (an enum member's hash runs in Python)
_CODE_BY_ID = {id(kind): code for kind, code in _KIND_CODES.items()}


def sharing_index(num_edges: int, ag_edges: int) -> float:
    """``1 - |E''| / |E'|`` of an overlay with ``num_edges`` edges over an
    ``AG`` with ``ag_edges``."""
    if ag_edges == 0:
        return 0.0
    return 1.0 - num_edges / ag_edges


def memory_estimate(num_nodes: int, num_edges: int) -> int:
    """Rough resident-size estimate in bytes of an overlay this large."""
    per_node = 120  # kind + label + dict headers
    per_edge = 100  # two dict entries
    return num_nodes * per_node + num_edges * per_edge


def identity_rows(
    ag: BipartiteGraph,
) -> Tuple[List[NodeId], List[NodeId], np.ndarray, np.ndarray]:
    """The identity overlay's writers (by ``(type name, repr)``), readers
    (in ``ag`` order) and edge rows ``src → dst``: each reader's inputs in
    its member order, reader after reader, as handles."""
    writers = sorted(ag.writers, key=lambda n: (type(n).__name__, repr(n)))
    readers = list(ag.reader_inputs)
    handle_of = dict(zip(writers, range(len(writers))))
    fan_in = np.fromiter(map(len, ag.reader_inputs.values()), np.int64, len(readers))
    src = np.fromiter(
        map(handle_of.__getitem__, itertools.chain.from_iterable(ag.reader_inputs.values())),
        np.int64,
        int(fan_in.sum()),
    )
    dst = np.repeat(np.arange(len(writers), len(writers) + len(readers), dtype=np.int64), fan_in)
    return writers, readers, src, dst


class OverlayCSR:
    """Immutable CSR snapshot of an overlay at a fixed (version, decisions).

    ``in_indptr[v]:in_indptr[v+1]`` slices ``in_indices``/``in_signs`` to
    give node ``v``'s inputs (and symmetrically for outputs); ``push`` and
    ``kinds`` are dense bitmaps.  The plan compiler in
    :mod:`repro.core.execution` walks these flat arrays instead of the
    dict-of-dict representation.
    """

    __slots__ = (
        "num_nodes", "in_indptr", "in_indices", "in_signs",
        "out_indptr", "out_indices", "out_signs",
        "push", "kinds", "fan_in", "version", "decision_version",
    )

    def __init__(
        self,
        num_nodes: int,
        in_indptr: Sequence[int],
        in_indices: Sequence[int],
        in_signs: Sequence[int],
        out_indptr: Sequence[int],
        out_indices: Sequence[int],
        out_signs: Sequence[int],
        push: Sequence[int],
        kinds: Sequence[int],
        fan_in: Sequence[int],
        version: int = 0,
        decision_version: int = 0,
    ) -> None:
        self.num_nodes = num_nodes
        self.in_indptr = list(in_indptr)
        self.in_indices = list(in_indices)
        self.in_signs = list(in_signs)
        self.out_indptr = list(out_indptr)
        self.out_indices = list(out_indices)
        self.out_signs = list(out_signs)
        self.push = list(push)
        self.kinds = list(kinds)
        self.fan_in = list(fan_in)
        self.version = version
        self.decision_version = decision_version

    @property
    def num_edges(self) -> int:
        return len(self.in_indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayCSR(nodes={self.num_nodes}, edges={self.num_edges})"
