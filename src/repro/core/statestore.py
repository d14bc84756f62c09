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
* :class:`SharedColumnarStore` — the same columns, but mapped into a
  named ``multiprocessing.shared_memory`` segment so *other processes*
  can attach by name and read (or fill) the identical state zero-copy.
  The serving layer keeps each shard's aggregate state here: the worker
  process creates (or re-attaches) the segment and writes through the
  usual kernels, while the front-end attaches read-only and answers
  reads without a queue round-trip, validated by the store's seqlock
  stamp (:meth:`SharedColumnarStore.read_seq`).  Byte-parity with
  :class:`ColumnarStore` is asserted by the statestore property suite.

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
an aggregate without a spec, and ``"shared"`` requests shared-memory
columns with the same rule.
"""

from __future__ import annotations

import os as _os
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.aggregates import AggregateFunction, ColumnSpec

PAO = Any

#: Valid ``value_store`` modes accepted throughout the stack.
VALUE_STORE_MODES = ("auto", "object", "columnar", "shared")


# ---------------------------------------------------------------------------
# shared-memory segment helpers
# ---------------------------------------------------------------------------
#
# ``multiprocessing.shared_memory`` registers segments with the resource
# tracker — the crash-safety backstop that unlinks leaked segments when
# the process tree dies.  Spawn workers share their parent's tracker, and
# the tracker's cache is a *set* per resource type, so the registrations
# a create-then-attach sequence produces (on Python < 3.13 attaching also
# registers) deduplicate to one entry.  What does **not** deduplicate is
# unregistration: every ``SharedMemory.unlink()`` sends one UNREGISTER,
# and the second one for the same name crashes the tracker loop with a
# ``KeyError`` and leaves "leaked shared_memory objects" warnings at
# shutdown.  The discipline here is therefore: attaches keep their
# (deduplicated) registration — losing it would disarm the backstop —
# and every segment is unlinked **exactly once**, by name, through
# :func:`unlink_segment`, which no-ops (without touching the tracker) on
# a name that is already gone.  On Python >= 3.13 attaches opt out of
# tracking directly, which additionally protects foreign-tree attachers
# (their own tracker would otherwise unlink the segment on their exit).


def attach_segment(name: str):
    """Attach to an existing named segment (see tracker note above)."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13: attach without registering at all
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # older: the (deduplicated) registration stays
        return shared_memory.SharedMemory(name=name)


def create_segment(name: Optional[str], size: int):
    """Create a named segment (tracker-registered: crash-safe backstop)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name, create=True, size=max(size, 8))


def segment_exists(name: str) -> bool:
    """Probe whether a named segment is currently attachable (the shared
    leak-check primitive for benches and the fault harness)."""
    try:
        segment = attach_segment(name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def unlink_segment(name: str) -> bool:
    """Exactly-once, by-name unlink; ``True`` when the segment existed.

    Serving front-ends call this for crash-safe cleanup: the segment is
    destroyed by *name* regardless of which (possibly dead) process
    created it, and a name that is already gone returns ``False`` without
    sending the tracker a second UNREGISTER (the double-unlink warning
    path this module exists to avoid).
    """
    try:
        segment = attach_segment(name)
    except FileNotFoundError:
        return False
    try:
        segment.unlink()
        if getattr(segment, "_track", True) is False:  # pragma: no cover
            # 3.13+ tracked-out attach: unlink() skipped the UNREGISTER,
            # but the creator's registration must still be retired.
            from multiprocessing import resource_tracker

            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        pass
    finally:
        segment.close()
    return True


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


#: Header layout of a :class:`SharedColumnarStore` segment: int64 slots
#: ``[magic, capacity, num_handles, seq, num_columns, reserved x3]``.
_SHM_MAGIC = 0x45414752  # "EAGR"
_SHM_HEADER_SLOTS = 8
_SHM_HEADER_BYTES = _SHM_HEADER_SLOTS * 8
_SHM_ALIGN = 16

_shm_name_counter = [0]


def _auto_shm_name() -> str:
    """A collision-resistant default segment name for this process."""
    _shm_name_counter[0] += 1
    return "eagr{:x}_{:x}_{}".format(
        _os.getpid(), int.from_bytes(_os.urandom(4), "little"), _shm_name_counter[0]
    )


def _shm_layout(spec: ColumnSpec, capacity: int):
    """``(total_bytes, column_offsets, cleared_offset)`` for ``capacity``."""
    offsets = []
    cursor = _SHM_HEADER_BYTES
    for dtype in spec.dtypes:
        itemsize = np.dtype(dtype).itemsize
        cursor = (cursor + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN
        offsets.append(cursor)
        cursor += capacity * itemsize
    cursor = (cursor + _SHM_ALIGN - 1) // _SHM_ALIGN * _SHM_ALIGN
    cleared_offset = cursor
    cursor += capacity  # bool mask, 1 byte per handle
    return cursor, tuple(offsets), cleared_offset


class SharedColumnarStore(ColumnarStore):
    """:class:`ColumnarStore` whose columns live in a named shm segment.

    Same ``ValueStore`` contract and byte-identical read semantics — the
    element accessors, batched scatter kernels and vectorized pull
    segments all operate on the columns exactly as they do for the
    process-private store; only the allocation differs (numpy views over
    a ``multiprocessing.shared_memory`` mapping instead of owned arrays).

    Construction is **create-or-adopt**: with a ``name``, an existing
    segment of compatible layout is re-attached and reset (how a
    restarted shard worker reclaims its predecessor's segment — the
    engine's materialization pass re-derives every value right after),
    otherwise the segment is created.  :meth:`attach` is the passive
    counterpart for readers (the serving front-end): attach by name,
    never reset, never unlink.

    Concurrency contract — one writer, many readers: writers bracket
    multi-column mutations with :meth:`begin_batch` / :meth:`end_batch`,
    which bump the header's seqlock stamp to an odd value for the
    duration; a reader samples :meth:`read_seq` before and after its
    gather and retries on a mismatch or an odd stamp, so it never acts
    on a torn batch.  Lifecycle: :meth:`close` drops this process's
    mapping, :meth:`unlink` destroys the segment (owner's duty; serving
    front-ends also unlink *by name* for crash-safe cleanup when the
    owning worker died — see :func:`unlink_segment`).

    Not picklable by design: state travels between processes through the
    segment itself (or, for durability, through the window buffers a
    :class:`~repro.serve.messages.ShardCheckpoint` carries).
    """

    __slots__ = ("_segment", "_header", "_capacity", "name", "owner")

    backend = "shared"

    def __init__(
        self,
        spec: ColumnSpec,
        num_handles: int = 0,
        name: Optional[str] = None,
        capacity: Optional[int] = None,
    ) -> None:
        capacity = max(num_handles, capacity or 0, 1)
        segment = None
        if name is not None:
            try:
                segment = attach_segment(name)
            except FileNotFoundError:
                segment = None
            if segment is not None:  # adopt: validate, then reset below
                header = np.frombuffer(
                    segment.buf, dtype=np.int64, count=_SHM_HEADER_SLOTS
                )
                if (
                    int(header[0]) != _SHM_MAGIC
                    or int(header[4]) != spec.num_columns
                    or int(header[1]) < capacity
                ):
                    del header
                    segment.close()
                    unlink_segment(name)
                    segment = None
                else:
                    capacity = int(header[1])
                    del header
        created = segment is None
        if created:
            size, _, _ = _shm_layout(spec, capacity)
            segment = create_segment(name or _auto_shm_name(), size)
        self._init_views(spec, segment, capacity, owner=True)
        header = self._header
        header[0] = _SHM_MAGIC
        header[1] = capacity
        header[2] = num_handles
        header[3] = 0  # seqlock: even = quiescent
        header[4] = spec.num_columns
        self._num_handles = num_handles
        self._reset_fills()

    def _init_views(self, spec: ColumnSpec, segment, capacity: int, owner: bool) -> None:
        """Bind header/column/mask views over ``segment`` (no resets)."""
        self.spec = spec
        self._unpack = spec.unpack
        self._pack = spec.pack
        self._segment = segment
        self.name = segment.name
        self.owner = owner
        self._capacity = capacity
        _total, offsets, cleared_offset = _shm_layout(spec, capacity)
        buf = segment.buf
        self._header = np.frombuffer(buf, dtype=np.int64, count=_SHM_HEADER_SLOTS)
        self.columns = tuple(
            np.frombuffer(buf, dtype=dtype, count=capacity, offset=offset)
            for dtype, offset in zip(spec.dtypes, offsets)
        )
        self._cleared = np.frombuffer(
            buf, dtype=np.bool_, count=capacity, offset=cleared_offset
        )

    @classmethod
    def attach(cls, spec: ColumnSpec, name: str) -> "SharedColumnarStore":
        """Attach read-mostly to an existing segment (no reset, no unlink).

        Raises ``FileNotFoundError`` when no segment of that name exists
        and :class:`ValueStoreError` on a layout mismatch.
        """
        segment = attach_segment(name)
        header = np.frombuffer(segment.buf, dtype=np.int64, count=_SHM_HEADER_SLOTS)
        magic, capacity, num_handles, _seq, ncols = (
            int(header[i]) for i in range(5)
        )
        del header
        if magic != _SHM_MAGIC or ncols != spec.num_columns:
            segment.close()
            raise ValueStoreError(
                f"segment {name!r} does not hold a compatible column layout"
            )
        store = cls.__new__(cls)
        store._init_views(spec, segment, capacity, owner=False)
        store._num_handles = num_handles
        return store

    # -- seqlock (torn-read protection for cross-process readers) ----------

    def read_seq(self) -> int:
        """Current seqlock stamp (odd: a write batch is in flight)."""
        return int(self._header[3])

    def begin_batch(self) -> None:
        """Mark a multi-column mutation in progress (stamp goes odd)."""
        self._header[3] += 1

    def end_batch(self) -> None:
        """Publish the mutation (stamp returns even)."""
        self._header[3] += 1

    # -- lifecycle ----------------------------------------------------------

    def _reset_fills(self) -> None:
        for column, fill in zip(self.columns, self.spec.fills):
            column[: self._capacity] = fill
        self._cleared[: self._capacity] = True

    def resize(self, num_handles: int) -> "SharedColumnarStore":
        """Remap to ``num_handles`` handles (same reset semantics as
        :meth:`ColumnarStore.resize`).

        Growth beyond the segment's capacity reallocates a **fresh
        segment** under a new auto-generated name (the old one is
        unlinked when owned) — attached peers must re-attach.  The
        serving layer sizes segments to the shard overlay at build time
        and never grows them; peer-visible growth only arises in
        single-process use (overlay surgery in tests/tools).
        """
        if num_handles > self._capacity:
            if not self.owner:
                raise ValueStoreError(
                    "cannot grow an attached SharedColumnarStore beyond "
                    f"capacity {self._capacity} (re-attach after the owner "
                    "resizes)"
                )
            spec = self.spec
            self.close()
            unlink_segment(self.name)
            size, _, _ = _shm_layout(spec, num_handles)
            segment = create_segment(_auto_shm_name(), size)
            self._init_views(spec, segment, num_handles, owner=True)
            header = self._header
            header[0] = _SHM_MAGIC
            header[1] = num_handles
            header[4] = spec.num_columns
            header[3] = 0
        self._num_handles = num_handles
        self._header[2] = num_handles
        self._reset_fills()
        return self

    def close(self) -> None:
        """Drop this process's mapping (idempotent; segment survives)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        # Numpy views pin the exported buffer; drop them before closing.
        self._header = None
        self.columns = ()
        self._cleared = None
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view escaped; freed at exit
            pass

    def unlink(self) -> None:
        """Destroy the segment (idempotent; owner's responsibility)."""
        name = self.name
        self.close()
        unlink_segment(name)

    def __reduce__(self):
        raise TypeError(
            "SharedColumnarStore is not picklable: attach by name instead"
        )


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
    then rides the shm ring (raw record bytes behind a fixed header), the
    redo log, and the WAL without being re-encoded.  Consumers that stay
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
    return "shared" if mode == "shared" else "columnar"


def make_value_store(
    aggregate: AggregateFunction,
    num_handles: int,
    mode: str = "auto",
    shm_name: Optional[str] = None,
):
    """Instantiate the value store ``mode`` resolves to (see module doc).

    ``shm_name`` names (or adopts) the shared segment when ``mode``
    resolves to ``shared``; it is ignored otherwise.
    """
    resolved = resolve_value_store(aggregate, mode)
    if resolved == "shared":
        return SharedColumnarStore(aggregate.column_spec, num_handles, name=shm_name)
    if resolved == "columnar":
        return ColumnarStore(aggregate.column_spec, num_handles)
    return ObjectStore(num_handles)
