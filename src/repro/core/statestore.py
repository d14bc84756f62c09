"""Pluggable value stores for runtime PAO state.

The runtime (:mod:`repro.core.execution`) holds one partial aggregate
object per overlay node.  This module abstracts *where* those PAOs live
behind a small list-like protocol so two backends can coexist:

* :class:`ObjectStore` — a plain Python list of PAOs.  Exact seed
  semantics for the aggregates that declare no column spec (TOP-K
  counter tables, user-defined aggregates), and the reference the
  columnar kernels are tested against (``value_store="object"``).
* :class:`ColumnarStore` — dense numpy columns, one per field of the
  aggregate's :class:`~repro.core.aggregates.ColumnSpec` (SUM/COUNT one
  column, MEAN a ``(sum, count)`` pair, MAX/MIN one nan-encoded extremum
  column), indexed by overlay handle — the same dense ids the CSR
  snapshot (:meth:`repro.core.overlay.Overlay.to_csr`) exposes, so the
  batched execution kernels can scatter whole batches with ``np.add.at``
  and reduce pull frontiers with vectorized segment sums.

Backend choice is invisible to callers: both stores answer
``store[handle]`` with exactly the PAO the object backend would hold
(``ColumnarStore.__getitem__`` unpacks columns back into Python scalars),
and ``store[handle] = pao`` / ``store[handle] = None`` round-trip.  The
property tests in ``tests/core/test_statestore.py`` assert read-for-read
equivalence between the backends on integer streams.

Selection is by :func:`make_value_store`, and the rule is a property of
the aggregate, not of the host: ``"auto"`` picks columnar exactly when
the aggregate declares a column spec, ``"object"`` forces the seed
behavior, ``"columnar"`` requests columns but takes the object store for
an aggregate without a spec.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.aggregates import AggregateFunction, ColumnSpec

PAO = Any

#: Valid ``value_store`` modes accepted throughout the stack.
VALUE_STORE_MODES = ("auto", "object", "columnar")


class ValueStoreError(Exception):
    """Raised on invalid value-store configuration."""


class ObjectStore:
    """PAOs as a plain Python list (the seed representation).

    ``data`` exposes the raw list so hot loops can bypass the wrapper's
    ``__getitem__`` indirection entirely — the compiled-plan kernels bind
    ``store.data`` to a local and run at exactly the seed's speed.
    """

    __slots__ = ("data",)

    backend = "object"
    columns: Optional[Tuple] = None

    def __init__(self, num_handles: int = 0) -> None:
        self.data: List[Optional[PAO]] = [None] * num_handles

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, handle: int) -> Optional[PAO]:
        return self.data[handle]

    def __setitem__(self, handle: int, pao: Optional[PAO]) -> None:
        self.data[handle] = pao

    def resize(self, num_handles: int) -> "ObjectStore":
        """Reset to ``num_handles`` empty slots (state is re-derived by the
        runtime's materialization pass, so nothing is preserved)."""
        self.data = [None] * num_handles
        return self


class ColumnarStore:
    """PAOs as dense numpy columns indexed by overlay handle.

    One array per column of the aggregate's spec, identity-filled.  A
    handle whose PAO is logically ``None`` (pull nodes hold no state) is
    tracked in the ``_cleared`` bool mask (1 byte per handle); assigning
    a PAO clears its bit, assigning ``None`` sets it.  The batched
    kernels write straight into ``columns`` — they only ever touch push
    handles, which are always materialized.

    ``data`` returns the store itself: kernels written against
    ``store.data`` fall back to per-element ``__getitem__``/``__setitem__``
    access (used by the interpreted lattice/trace paths), which converts
    between column scalars and Python PAOs at the boundary so arithmetic
    stays IEEE-identical to the object backend.
    """

    __slots__ = ("spec", "columns", "_cleared", "_num_handles", "_unpack", "_pack")

    backend = "columnar"

    def __init__(self, spec: ColumnSpec, num_handles: int = 0) -> None:
        self.spec = spec
        self._unpack = spec.unpack
        self._pack = spec.pack
        self._num_handles = num_handles
        self.columns = tuple(
            np.full(num_handles, fill, dtype=dtype)
            for dtype, fill in zip(spec.dtypes, spec.fills)
        )
        self._cleared = np.ones(num_handles, dtype=bool)

    @property
    def data(self) -> "ColumnarStore":
        return self

    def __len__(self) -> int:
        return self._num_handles

    def __getitem__(self, handle: int) -> Optional[PAO]:
        if self._cleared[handle]:
            return None
        columns = self.columns
        if len(columns) == 1:
            return self._unpack((columns[0][handle],))
        return self._unpack(tuple(column[handle] for column in columns))

    def __setitem__(self, handle: int, pao: Optional[PAO]) -> None:
        if pao is None:
            self.clear(handle)
            return
        for column, value in zip(self.columns, self._pack(pao)):
            column[handle] = value
        self._cleared[handle] = False

    def clear(self, handle: int) -> None:
        """Drop ``handle``'s PAO (reads return ``None``); refill identity."""
        for column, fill in zip(self.columns, self.spec.fills):
            column[handle] = fill
        self._cleared[handle] = True

    def resize(self, num_handles: int) -> "ColumnarStore":
        """Remap the columns to ``num_handles`` overlay handles.

        Called from the runtime's materialization pass after overlay
        surgery: the arrays are reallocated only when the handle space
        actually changed size, every slot reverts to the identity fill and
        to the cleared (``None``) state, and the runtime then re-derives
        live PAOs — matching :class:`ObjectStore.resize` exactly.
        """
        if num_handles != self._num_handles:
            self._num_handles = num_handles
            self.columns = tuple(
                np.full(num_handles, fill, dtype=dtype)
                for dtype, fill in zip(self.spec.dtypes, self.spec.fills)
            )
            self._cleared = np.ones(num_handles, dtype=bool)
        else:
            for column, fill in zip(self.columns, self.spec.fills):
                column.fill(fill)
            self._cleared.fill(True)
        return self


# ---------------------------------------------------------------------------
# columnar write batches
# ---------------------------------------------------------------------------

#: Record layout of a packed write batch: one row per write event.
WRITE_DTYPE = np.dtype([("node", "<i8"), ("value", "<f8"), ("timestamp", "<f8")])


#: Exact column types :meth:`WriteFrame.from_items` packs losslessly.
_INT_ONLY = frozenset((int,))
_FLOAT_TYPES = frozenset((float, np.float64))


def gated_columns(items, width: int) -> Optional[Tuple[tuple, ...]]:
    """The ``width`` columns of ``items`` if every item has exactly
    ``width`` fields, the first a plain ``int`` and the rest ``float``
    (``np.float64`` passes; ints, bools and ``np.float32`` do not), else
    ``None`` — the lossless-packing gate of :meth:`WriteFrame.from_items`,
    run column-wise in C (one transpose, one ``set(map(type, column))``
    per column)."""
    if not items:
        return None
    try:
        if sum(map(len, items)) != width * len(items):
            return None  # an item of another width hides in the batch
        columns = tuple(zip(*items))
    except TypeError:
        return None
    if len(columns) != width or set(map(type, columns[0])) != _INT_ONLY:
        return None
    for column in columns[1:]:
        if not set(map(type, column)) <= _FLOAT_TYPES:
            return None
    return columns


def _writeframe_from_bytes(data: bytes, ingress: float = None) -> "WriteFrame":
    """Unpickle helper for :meth:`WriteFrame.__reduce__` (module-level so
    queue transports can resolve it by name; ``ingress`` defaults so
    frames pickled before the stamp existed still load)."""
    return WriteFrame(np.frombuffer(data, dtype=WRITE_DTYPE), ingress=ingress)


class WriteFrame:
    """A write batch packed as a ``(node, value, timestamp)`` record array.

    The binary data plane's unit of ingress: the serving front-end packs
    integer-keyed batches once (:meth:`from_items`), and the same frame
    then rides the shard transport (raw record bytes behind a fixed
    header), the redo log, and the WAL without being re-encoded.  Consumers that stay
    columnar scatter straight from the column views (:attr:`nodes` /
    :attr:`values` / :attr:`timestamps`); everything else falls back to
    the sequence protocol — iterating a frame yields plain
    ``(int, float, float)`` triples, so any code written against write
    lists (object-store runtimes, replicas, oracles) works unchanged.

    Frames are immutable after construction (views over received buffers
    are read-only by design).  Pickling round-trips through the raw
    record bytes (:meth:`__reduce__`), so a frame entering the WAL or
    any pickle costs one buffer copy, not a per-tuple object walk.
    """

    __slots__ = ("records", "ingress")

    dtype = WRITE_DTYPE

    def __init__(self, records, ingress: Optional[float] = None) -> None:
        self.records = records
        #: Front-end ``time.monotonic()`` at ``write_batch`` acceptance
        #: (``None`` on un-stamped frames, e.g. recovery replays) — the
        #: T0 of the end-to-end write→notify latency measurement.  The
        #: stamp rides along the frame everywhere the records do, but is
        #: *not* part of the batch's identity (equality, WAL folding and
        #: byte parity all ignore it).
        self.ingress = ingress

    @classmethod
    def from_items(cls, items) -> Optional["WriteFrame"]:
        """Pack ``items`` (``(node, value, timestamp)`` triples) or return
        ``None`` when the batch is not losslessly packable.

        The gate is strict so the pickle fallback keeps exact semantics:
        nodes must be plain ``int`` (graph keys; bools and numpy ints are
        rejected), values and timestamps must be ``float`` (``np.float64``
        passes; ints and ``np.float32`` do not).  Both the gate and the
        pack run column-wise in C — one transpose, one ``set(map(type,
        column))`` per column, one array assignment per column — because
        a per-item Python loop here would cost as much as the
        ``pickle.dumps`` the frame exists to avoid (:func:`gated_columns`).
        """
        columns = gated_columns(items, 3)
        if columns is None:
            return None
        nodes, values, stamps = columns
        records = np.empty(len(nodes), dtype=WRITE_DTYPE)
        records["node"] = nodes
        records["value"] = values
        records["timestamp"] = stamps
        return cls(records)

    @classmethod
    def concat(cls, frames) -> "WriteFrame":
        """One frame holding every row of ``frames`` in order.

        The merged frame keeps the *oldest* ingress stamp of its inputs:
        a coalesced batch is exactly as late as its longest-waiting
        member, so the latency histogram must not be flattered by the
        newest arrival."""
        if len(frames) == 1:
            return frames[0]
        stamps = [f.ingress for f in frames if f.ingress is not None]
        return cls(
            np.concatenate([frame.records for frame in frames]),
            ingress=min(stamps) if stamps else None,
        )

    # -- column views (the zero-deserialization scatter input) --------------

    @property
    def nodes(self):
        return self.records["node"]

    @property
    def values(self):
        return self.records["value"]

    @property
    def timestamps(self):
        return self.records["timestamp"]

    # -- sequence protocol (universal triple fallback) -----------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, index):
        row = self.records[index]
        return (int(row["node"]), float(row["value"]), float(row["timestamp"]))

    def tolist(self) -> List[Tuple[int, float, float]]:
        """The batch as plain ``(int, float, float)`` triples."""
        return list(
            zip(
                self.records["node"].tolist(),
                self.records["value"].tolist(),
                self.records["timestamp"].tolist(),
            )
        )

    # -- wire form -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.records.nbytes

    def tobytes(self) -> bytes:
        return self.records.tobytes()

    def __reduce__(self):
        return (_writeframe_from_bytes, (self.records.tobytes(), self.ingress))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteFrame({len(self.records)} rows)"


def resolve_value_store(aggregate: AggregateFunction, mode: str = "auto") -> str:
    """The backend ``mode`` resolves to for ``aggregate``."""
    if mode not in VALUE_STORE_MODES:
        raise ValueStoreError(
            f"value_store must be one of {VALUE_STORE_MODES}, got {mode!r}"
        )
    if mode == "object":
        return "object"
    spec = getattr(aggregate, "column_spec", None)
    if spec is None:
        return "object"
    return "columnar"


def make_value_store(aggregate: AggregateFunction, num_handles: int, mode: str = "auto"):
    """Instantiate the value store ``mode`` resolves to (see module doc)."""
    if resolve_value_store(aggregate, mode) == "columnar":
        return ColumnarStore(aggregate.column_spec, num_handles)
    return ObjectStore(num_handles)
