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
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.pullrows import csr_indptr
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending (``np.unique`` imports
    ``numpy.ma``, about 1 MB resident)."""
    ordered = np.sort(values)
    return ordered[np.diff(ordered, prepend=ordered[:1] - 1) != 0]


_NO_ROWS = np.zeros(0, dtype=np.int64)


class Overlay:
    """Mutable aggregation overlay graph.

    Node handles are dense integers.  The edges are one table in the
    order they were added: ``src`` / ``dst`` / ``sign`` int64 columns and
    an ``alive`` mask.  :meth:`add_edge` appends a row, :meth:`remove_edge`
    tombstones one, so a node's inputs (outputs) are its live rows by
    ``dst`` (``src``) in row order: an edge removed and re-added comes
    last.  :meth:`in_rows` / :meth:`out_rows` read one node's rows and
    :meth:`in_csr` / :meth:`out_csr` every node's, from a CSR by ``dst``
    and one by ``src``.  A node edited since the CSRs were last merged
    reads its CSR row plus its edits since, kept as lists; the merge runs
    once those edits pass a share of the edges, or on a whole-overlay
    read, and compacts the table once a third of its rows are dead.  A
    data-graph node that both writes and reads appears as *two* overlay
    nodes (the bipartite split of Section 3.1).
    """

    def __init__(self) -> None:
        self.kinds: List[NodeKind] = []
        self.labels: List[Optional[NodeId]] = []
        self.decisions: List[Decision] = []
        self.writer_of: Dict[NodeId, int] = {}
        self.reader_of: Dict[NodeId, int] = {}
        # the edge table: rows [0, _rows) are used, _num_edges of them live
        self._src = np.zeros(0, dtype=np.int64)
        self._dst = np.zeros(0, dtype=np.int64)
        self._sign = np.zeros(0, dtype=np.int64)
        self._alive = np.zeros(0, dtype=bool)
        self._rows = 0
        self._num_edges = 0
        # the CSRs by dst and by src (built on first use) of the rows below
        # _merged; _dead rows were tombstoned since, and _stale after a bulk
        # edit, which patches no node's entries
        self._in = _Index(np.zeros(1, dtype=np.int64), np.zeros((3, 0), dtype=np.int64))
        self._out: Optional[_Index] = None
        self._merged = 0
        self._dead = 0
        self._stale = False
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
        return len(self._index_of(True).node(handle)[0])

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
        if self.has_edge(src, dst):
            raise OverlayError(f"duplicate edge {src}->{dst}")
        row = self._append(1, src, dst, sign)
        for entries, end in ((self._in.patch(dst), src), (self._outputs().patch(src), dst)):
            entries[0].append(row)
            entries[1].append(end)
            entries[2].append(sign)
        self._dirty.add(src)
        self._dirty.add(dst)

    def remove_edge(self, src: int, dst: int) -> int:
        """Remove ``src -> dst``; returns the sign it carried."""
        rows, sources, signs = self._index_of(True).patch(dst)
        try:
            at = sources.index(src)
        except ValueError:
            raise OverlayError(f"edge {src}->{dst} not present") from None
        row, sign = rows.pop(at), signs.pop(at)
        del sources[at]
        outputs = self._outputs().patch(src)
        at = outputs[0].index(row)
        for column in outputs:
            del column[at]
        self._alive[row] = False
        self._dead += 1
        self._num_edges -= 1
        self.version += 1
        self._dirty.add(src)
        self._dirty.add(dst)
        return sign

    def rewire(
        self,
        add: Tuple[np.ndarray, np.ndarray, np.ndarray],
        remove: Tuple[np.ndarray, np.ndarray] = (_NO_ROWS, _NO_ROWS),
    ) -> None:
        """Remove the edges ``remove = (src, dst)`` (each present, none
        twice), then add the edges ``add = (src, dst, sign)`` in that
        order, as :meth:`remove_edge` and :meth:`add_edge` would one by
        one, under the same rules."""
        src, dst, sign = add
        n = self.num_nodes
        if len(src):
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
                raise OverlayError("edge endpoints must be handles of the overlay")
            if not ((sign == 1) | (sign == -1)).all():
                raise OverlayError("edge sign must be +1 or -1")
            if NodeKind.READER in map(self.kinds.__getitem__, _distinct(src).tolist()):
                raise OverlayError("reader nodes cannot feed other overlay nodes")
            if NodeKind.WRITER in map(self.kinds.__getitem__, _distinct(dst).tolist()):
                raise OverlayError("writer nodes cannot receive overlay edges")
            if (src == dst).any():
                raise OverlayError("self loops are not allowed")
        if self._merged < self._rows or self._dead:
            self._merge()
        # the live edges into every node either list reaches, by key
        reached = np.zeros(n, dtype=bool)
        reached[remove[1]] = reached[dst] = True
        rows = self._in.entries[0][reached[self._dst[self._in.entries[0]]]]
        keys = self._dst[rows] * n + self._src[rows]
        by_key = np.argsort(keys)
        keys = keys[by_key]
        gone = remove[1] * n + remove[0]
        kept = np.ones(len(keys), dtype=bool)
        if len(gone):
            slot = np.minimum(np.searchsorted(keys, gone), max(len(keys) - 1, 0))
            if not len(keys) or (keys[slot] != gone).any() or len(_distinct(gone)) != len(gone):
                raise OverlayError("an edge to remove is not present")
            self._alive[rows[by_key[slot]]] = False
            kept[slot] = False
        # the edges left are distinct, so any repeat involves a new one
        keys = np.sort(np.concatenate((keys[kept], dst * n + src)))
        if (keys[1:] == keys[:-1]).any():
            raise OverlayError("duplicate edge")
        self._dead += len(gone)
        self._num_edges -= len(gone)
        self.version += len(gone)
        self._append(len(src), src, dst, sign)
        self._stale = True
        self._dirty.update(_distinct(np.concatenate((*remove, src, dst))).tolist())

    def has_edge(self, src: int, dst: int) -> bool:
        return src in self._index_of(True).patch(dst)[1]

    def in_rows(self, handle: int) -> Tuple[List[int], List[int]]:
        """``handle``'s inputs: their sources and signs, in insertion order."""
        return self._index_of(True).node(handle)

    def out_rows(self, handle: int) -> Tuple[List[int], List[int]]:
        """``handle``'s outputs: their targets and signs, in insertion order."""
        return self._index_of(False).node(handle)

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's inputs as int64 columns ``(indptr, src, sign)``:
        node ``v``'s are ``src[indptr[v]:indptr[v + 1]]``, in insertion
        order."""
        index = self._index(True)
        return index.indptr, index.entries[1], index.entries[2]

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's outputs as int64 columns ``(indptr, dst, sign)``,
        in insertion order."""
        index = self._index(False)
        return index.indptr, index.entries[1], index.entries[2]

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(src, dst, sign)`` for every edge, by ``dst``, each
        node's inputs in insertion order."""
        indptr, src, sign = self.in_csr()
        dst = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(indptr))
        return zip(src.tolist(), dst.tolist(), sign.tolist())

    @property
    def num_negative_edges(self) -> int:
        return int(np.count_nonzero(self._sign[: self._rows][self._alive[: self._rows]] < 0))

    # -- the table -------------------------------------------------------

    def _append(self, count: int, src, dst, sign) -> int:
        """Write ``count`` live rows ``src → dst`` with ``sign`` after the
        table's last; returns the first one's row."""
        start, end = self._rows, self._rows + count
        if end > len(self._src):
            capacity = max(end, 2 * len(self._src))
            for name in ("_src", "_dst", "_sign", "_alive"):
                column = getattr(self, name)
                grown = np.zeros(capacity, dtype=column.dtype)
                grown[:start] = column[:start]
                setattr(self, name, grown)
        # one edge by scalar stores: a slice store costs several times more
        at = slice(start, end) if isinstance(src, np.ndarray) else start
        self._src[at], self._dst[at], self._sign[at], self._alive[at] = src, dst, sign, True
        self._rows = end
        self._num_edges += count
        self.version += count
        return start

    def _index_of(self, inbound: bool) -> "_Index":
        """The CSR by ``dst`` (``inbound``) or by ``src`` for one node's
        read or edit: merged first after a bulk edit, or once the edits
        since pass the limit."""
        if self._stale or self._rows - self._merged + self._dead > max(
            _MERGE_MIN, self._num_edges >> _MERGE_SHIFT
        ):
            self._merge()
        return self._in if inbound else self._outputs()

    def _index(self, inbound: bool) -> "_Index":
        """The merged CSR by ``dst`` (``inbound``) or by ``src``."""
        if self._merged < self._rows or self._dead or len(self._in.indptr) <= self.num_nodes:
            self._merge()
        return self._in if inbound else self._outputs()

    def _merge(self) -> None:
        """Bring the CSR by ``dst`` up to date: drop the entries whose rows
        were tombstoned and add the rows appended since, after each node's
        surviving entries (row order either way).  Compacts the table once
        a third of its rows are dead, and drops the CSR by ``src``."""
        rows = np.concatenate((self._in.entries[0], np.arange(self._merged, self._rows)))
        if self._dead:
            rows = rows[self._alive[rows]]
        if 3 * (self._rows - self._num_edges) > self._rows:
            live = self._alive[: self._rows]
            rows = (np.cumsum(live) - 1)[rows]
            keep = np.flatnonzero(live)
            self._src, self._dst, self._sign = self._src[keep], self._dst[keep], self._sign[keep]
            self._alive = np.ones(len(keep), dtype=bool)
            self._rows = len(keep)
        # the surviving entries are sorted by dst already, so a stable sort
        # only places the new rows
        self._in = self._indexed(rows, self._dst, self._src)
        self._out = None
        self._merged = self._rows
        self._dead = 0
        self._stale = False

    def _outputs(self) -> "_Index":
        """The CSR by ``src`` as of the last merge."""
        if self._out is None:
            self._out = self._indexed(
                np.flatnonzero(self._alive[: self._merged]), self._src, self._dst
            )
        return self._out

    def _indexed(self, rows: np.ndarray, key: np.ndarray, ends: np.ndarray) -> "_Index":
        """The CSR of ``rows`` (in row order within each ``key``) by
        ``key``, each entry with its other end and sign."""
        keys = key[rows]
        rows = rows[np.argsort(keys, kind="stable")]
        return _Index(
            csr_indptr(np.bincount(keys, minlength=self.num_nodes)),
            np.stack((rows, ends[rows], self._sign[rows])),
        )

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
        changed = [
            handle
            for handle, (kind, current) in enumerate(zip(self.kinds, self.decisions))
            if kind is not NodeKind.WRITER and current is not decision
        ]
        for handle in changed:
            self.decisions[handle] = decision
        self._dirty.update(changed)
        self.decision_version += bool(changed)

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

    def push_mask(self) -> np.ndarray:
        """The current decisions as a bool column, push true."""
        return np.fromiter(
            map(operator.is_, self.decisions, itertools.repeat(Decision.PUSH)),
            bool,
            self.num_nodes,
        )

    def decisions_consistent(self) -> bool:
        """True iff no edge runs from a pull node into a push node."""
        push = self.push_mask()
        live = np.flatnonzero(self._alive[: self._rows])
        return not (push[self._dst[live]] & ~push[self._src[live]]).any()

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
        indegree = np.diff(self._index(True).indptr).tolist()
        indptr, targets, _ = self.out_csr()
        indptr, targets = indptr.tolist(), targets.tolist()
        frontier = [h for h, degree in enumerate(indegree) if not degree]
        order: List[int] = []
        pop, push, emit = frontier.pop, frontier.append, order.append
        while frontier:
            handle = pop()
            emit(handle)
            for dst in targets[indptr[handle] : indptr[handle + 1]]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    push(dst)
        if len(order) != self.num_nodes:
            raise OverlayError("overlay contains a cycle")
        self._order = (self.version, order)
        return list(order)

    def upstream(self, handle: int) -> Set[int]:
        """All nodes with a directed path to ``handle`` (exclusive)."""
        return self._reach(handle, self.in_rows)

    def downstream(self, handle: int) -> Set[int]:
        """All nodes reachable from ``handle`` (exclusive)."""
        return self._reach(handle, self.out_rows)

    @staticmethod
    def _reach(handle: int, rows) -> Set[int]:
        seen: Set[int] = set()
        stack = rows(handle)[0]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(rows(node)[0])
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
                for src, sign in zip(*self.in_rows(node)):
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
        indptr, sources, _ = self.in_csr()
        indptr, sources = indptr.tolist(), sources.tolist()
        depth = [0] * self.num_nodes
        for handle in self.topological_order():
            for src in sources[indptr[handle] : indptr[handle + 1]]:
                if depth[src] + 1 > depth[handle]:
                    depth[handle] = depth[src] + 1
        return {h: depth[h] for h in self.reader_of.values()}

    def memory_estimate(self) -> int:
        """Figure 10(b)'s resident-size model, in bytes."""
        return memory_estimate(self.num_nodes, self.num_edges)

    # ------------------------------------------------------------------
    # compiled representation
    # ------------------------------------------------------------------

    def to_csr(self) -> "OverlayCSR":
        """Freeze the overlay into a CSR (compressed sparse row) snapshot
        of Python lists.

        Each row lists the node's edges in insertion order, so anything
        compiled from the snapshot (propagation plans) replays the merge
        order of :meth:`in_rows` — important because float merges are not
        associative.
        """
        in_indptr, in_src, in_sign = self.in_csr()
        out_indptr, out_dst, out_sign = self.out_csr()
        # one int object per handle, shared by every entry naming it
        handles = np.arange(self.num_nodes).astype(object)
        return OverlayCSR(
            num_nodes=self.num_nodes,
            in_indptr=in_indptr.tolist(),
            in_indices=handles[in_src].tolist(),
            in_signs=in_sign.tolist(),
            out_indptr=out_indptr.tolist(),
            out_indices=handles[out_dst].tolist(),
            out_signs=out_sign.tolist(),
            push=self.push_mask().astype(np.int64).tolist(),
            kinds=self.kind_codes(),
            fan_in=np.diff(in_indptr).tolist(),
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
        materialization); they differ only in dataflow decisions.  Writers
        take handles by ``(type name, repr)``, then readers in ``ag``
        order; the rows are each reader's inputs in member order.
        """
        writers = sorted(ag.writers, key=lambda n: (type(n).__name__, repr(n)))
        readers = list(ag.reader_inputs)
        handle_of = dict(zip(writers, range(len(writers))))
        fan_in = np.fromiter(map(len, ag.reader_inputs.values()), np.int64, len(readers))
        src = np.fromiter(
            map(handle_of.__getitem__, itertools.chain.from_iterable(ag.reader_inputs.values())),
            np.int64,
            int(fan_in.sum()),
        )
        dst = np.repeat(
            np.arange(len(writers), len(writers) + len(readers), dtype=np.int64), fan_in
        )
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
        """The overlay whose edge table is the rows ``src → dst`` with
        ``sign``, as if added one by one in row order.

        Handles number the writers, then the readers, then
        ``num_partials`` partial nodes.  Every handle is dirty, decisions
        are the defaults and ``version`` is taken as given.  The rows must
        keep :meth:`add_edge`'s rules, or :class:`OverlayError` is raised.
        """
        num_writers = len(writers)
        handles = list(range(num_writers + len(readers) + num_partials))
        overlay = cls()
        overlay.kinds = (
            [NodeKind.WRITER] * num_writers
            + [NodeKind.READER] * len(readers)
            + [NodeKind.PARTIAL] * num_partials
        )
        overlay.labels = [*writers, *readers, *[None] * num_partials]
        overlay.decisions = [Decision.PUSH] * num_writers + [Decision.PULL] * (
            len(handles) - num_writers
        )
        overlay.writer_of = dict(zip(writers, handles))
        overlay.reader_of = dict(zip(readers, handles[num_writers:]))
        overlay.rewire(
            (
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(sign, dtype=np.int64),
            )
        )
        overlay.version = version
        overlay._dirty = set(handles)
        return overlay

    def copy(self) -> "Overlay":
        """An independent overlay with the same nodes, edges (in the same
        order), decisions and versions, and a clean dirty set."""
        clone = Overlay()
        clone.kinds = list(self.kinds)
        clone.labels = list(self.labels)
        clone.decisions = list(self.decisions)
        clone.writer_of = dict(self.writer_of)
        clone.reader_of = dict(self.reader_of)
        live = np.flatnonzero(self._alive[: self._rows])
        clone._src, clone._dst, clone._sign = self._src[live], self._dst[live], self._sign[live]
        clone._alive = np.ones(len(live), dtype=bool)
        clone._rows = clone._num_edges = len(live)
        clone._stale = True
        clone.version = self.version
        clone.decision_version = self.decision_version
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Overlay(writers={len(self.writer_of)}, readers={len(self.reader_of)}, "
            f"partials={self.num_partials}, edges={self.num_edges})"
        )


class _Index:
    """One direction of an overlay's CSR, as of its last merge: node
    ``v``'s entries are ``entries[:, indptr[v]:indptr[v + 1]]``, in row
    order, each a row, its other end (source or target) and its sign.
    A node edited since the merge reads from ``patched`` instead: its
    entries as lists of rows, ends and signs, taken from the CSR at its
    first edit, with the rows appended since added at the end and the
    rows tombstoned since taken out."""

    __slots__ = ("indptr", "bounds", "entries", "patched")

    def __init__(self, indptr: np.ndarray, entries: np.ndarray) -> None:
        self.indptr = indptr
        self.bounds: Optional[List[int]] = None  # indptr as a list, on first use
        self.entries = entries
        self.patched: Dict[int, List[List[int]]] = {}

    def base(self, handle: int, first: int) -> List[List[int]]:
        """``handle``'s CSR entries from ``entries[first]`` on, as lists."""
        bounds = self.bounds
        if bounds is None:
            bounds = self.bounds = self.indptr.tolist()
        if handle + 1 < len(bounds) and bounds[handle] < bounds[handle + 1]:
            return self.entries[first:, bounds[handle] : bounds[handle + 1]].tolist()
        return [[] for _ in range(3 - first)]

    def patch(self, handle: int) -> List[List[int]]:
        """``handle``'s entries to edit in place: rows, ends, signs."""
        patch = self.patched.get(handle)
        if patch is None:
            patch = self.patched[handle] = self.base(handle, 0)
        return patch

    def node(self, handle: int) -> Tuple[List[int], List[int]]:
        """``handle``'s ends and signs, in row order, as new lists."""
        patch = self.patched.get(handle)
        return tuple(self.base(handle, 1)) if patch is None else (patch[1][:], patch[2][:])


#: A node's read or edit merges the CSRs once more rows were appended and
#: tombstoned since the last merge than ``_MERGE_MIN`` or the
#: ``2 ** -_MERGE_SHIFT`` share of the edges, whichever is larger.
_MERGE_MIN = 256
_MERGE_SHIFT = 2


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
    """Figure 10(b)'s resident-size model of an overlay this large, in
    bytes: not what this table holds."""
    per_node = 120
    per_edge = 100
    return num_nodes * per_node + num_edges * per_edge


class OverlayCSR(NamedTuple):
    """CSR snapshot of an overlay at a fixed (version, decisions), as
    Python lists.

    ``in_indptr[v]:in_indptr[v+1]`` slices ``in_indices``/``in_signs`` to
    give node ``v``'s inputs (and symmetrically for outputs); ``push`` and
    ``kinds`` are dense bitmaps.  The plan compiler in
    :mod:`repro.core.execution` walks these flat lists, one Python int per
    entry, instead of reading the overlay's table node by node.
    """

    num_nodes: int
    in_indptr: List[int]
    in_indices: List[int]
    in_signs: List[int]
    out_indptr: List[int]
    out_indices: List[int]
    out_signs: List[int]
    push: List[int]
    kinds: List[int]
    fan_in: List[int]
    version: int = 0
    decision_version: int = 0

    @property
    def num_edges(self) -> int:
        return len(self.in_indices)
