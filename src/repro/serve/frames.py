"""Binary frame codec for the serve data plane.

The serving layer's hot path moves two kinds of payloads: write batches
(front-end → shard, through the shard transport's request pipe) and
change notifications (shard → front-end → subscriber).  Whatever packs
losslessly travels as *binary frames* — raw numpy record bytes behind
tiny fixed headers — so a steady-state columnar batch flows client →
request pipe → scatter → notification → subscriber without a single
``pickle.dumps``/``loads``; the batch's own packability is the only
selector.

Wire format of a request payload (the first byte always tags the codec):

* ``K_PICKLE`` (``0x00``): the remaining bytes are a pickled request
  tuple — the universal fallback carrying control ops (reads, drains,
  checkpoints, stop) and any write batch that fails the packing gate
  (non-``int`` node keys, non-``float`` values, heterogeneous rows).
* ``K_WRITE`` (``0x01``): a 40-byte header ``<B7xqqqd`` (kind, padding,
  ``seq``, ``batch_no`` with ``-1`` encoding ``None``, row count, and the
  front-end's monotonic ingress timestamp with ``0.0`` encoding ``None``
  — the T0 of the write→notify latency measurement) followed by the raw
  bytes of a
  :class:`~repro.core.statestore.WriteFrame` record array — decoded with
  one ``np.frombuffer`` view, zero per-row work.

Egress has no codec of its own: change reports and journaled notifications travel as
:class:`ChangeFrame` / :class:`NoteFrame` objects whose pickling reduces
to their raw record bytes (``__reduce__``), so crossing an ``mp``
connection or entering the notification journal costs one buffer copy.
That residual framing (the queue transport's own pickling of a
bytes-carrying frame) is *below* the codec layer: the codec counters
exported by ``server_stats()`` count what this module chose, and the
steady-state columnar path chooses pickle exactly zero times.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.statestore import WriteFrame
from repro.serve.messages import OP_WRITE, Notification

# -- payload codec kinds (first byte of every request payload) --------------
K_PICKLE = 0
K_WRITE = 1

# -- gateway control kinds (first byte of a TCP wire payload) ----------------
# The network gateway (:mod:`repro.serve.gateway`) speaks length-prefixed
# frames whose payloads reuse this codec: ``K_WRITE``/``K_PICKLE`` carry
# write batches exactly as the shard transport does (the request id rides
# the header's ``seq`` slot), and the kinds below carry the control plane.  Control
# bodies are pickled tuples — the gateway is a trusted-perimeter edge (same
# trust domain as the shard transport), not an internet-facing protocol.
K_HELLO = 2  # client -> gateway: (request_id, client_id)
K_SUBSCRIBE = 3  # client -> gateway: (request_id, subscriber, nodes, resume_from)
K_ACK = 4  # client -> gateway: (request_id, subscriber, stamp)
K_ERROR = 5  # gateway -> client: (request_id, error_kind, message, subscriber)
K_OK = 6  # gateway -> client: (request_id, result)
K_READ = 7  # client -> gateway: (request_id, nodes)
K_NOTES = 8  # gateway -> client: (subscriber, NoteFrame | Notification)

#: Every wire frame is ``uint32 LE payload length | payload``.
LENGTH_PREFIX = struct.Struct("<I")

#: Sanity bound on a single wire frame (a corrupt or hostile length
#: prefix must not trigger a giant allocation).
MAX_FRAME_BYTES = 1 << 26

_K_PICKLE_BYTE = bytes([K_PICKLE])

#: Header of a ``K_WRITE`` payload: kind, 7 pad bytes, seq, batch_no
#: (``-1`` encodes ``None``: a redo replay below the merge floor), count,
#: ingress timestamp (``0.0`` encodes ``None``: an un-stamped frame).
WRITE_HEADER = struct.Struct("<B7xqqqd")

#: Record layout of a :class:`NoteFrame` (one row per notification).
NOTE_DTYPE = np.dtype(
    [("ego", "<i8"), ("value", "<f8"), ("stamp", "<i8"), ("batch", "<i8")]
)


# ---------------------------------------------------------------------------
# request payload codec
# ---------------------------------------------------------------------------


def encode_pickle(request: Any) -> bytes:
    """Pack any request tuple as a ``K_PICKLE`` payload (the fallback)."""
    return _K_PICKLE_BYTE + pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)


def encode_write(seq: int, batch_no: Optional[int], frame: WriteFrame) -> bytes:
    """Pack an ``OP_WRITE`` carrying a :class:`WriteFrame` as ``K_WRITE``."""
    ingress = frame.ingress
    return (
        WRITE_HEADER.pack(
            K_WRITE,
            seq,
            -1 if batch_no is None else batch_no,
            len(frame),
            0.0 if ingress is None else ingress,
        )
        + frame.records.tobytes()
    )


def decode(payload: bytes) -> Any:
    """One request payload back into a request tuple.

    ``K_WRITE`` payloads decode with a single ``np.frombuffer`` over the
    received bytes (the pipe read hands the consumer an owned copy, so the
    views stay valid for the request's lifetime); the items slot of the
    returned tuple is a :class:`WriteFrame` the shard scatters from
    directly.
    """
    if payload[0] == K_WRITE:
        _kind, seq, batch_no, count, ingress = WRITE_HEADER.unpack_from(payload)
        records = np.frombuffer(
            payload, dtype=WriteFrame.dtype, count=count, offset=WRITE_HEADER.size
        )
        frame = WriteFrame(records, ingress=None if ingress == 0.0 else ingress)
        return (OP_WRITE, seq, None if batch_no < 0 else batch_no, frame)
    return pickle.loads(memoryview(payload)[1:])


# ---------------------------------------------------------------------------
# gateway control-frame codec
# ---------------------------------------------------------------------------


def encode_control(kind: int, body: Any) -> bytes:
    """Pack one gateway control frame: kind byte + pickled body tuple."""
    return bytes([kind]) + pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)


def decode_control(payload: bytes) -> Any:
    """The body tuple of a control payload (the kind byte is stripped;
    dispatch on ``payload[0]`` before calling this)."""
    return pickle.loads(memoryview(payload)[1:])


def frame_bytes(payload: bytes) -> bytes:
    """One complete wire frame: length prefix + payload."""
    return LENGTH_PREFIX.pack(len(payload)) + payload


# ---------------------------------------------------------------------------
# egress frames
# ---------------------------------------------------------------------------


def _changeframe_from_bytes(
    ego_bytes: bytes, value_bytes: bytes, batch: int, ingress: float = None
):
    return ChangeFrame(
        np.frombuffer(ego_bytes, dtype=np.int64),
        np.frombuffer(value_bytes, dtype=np.float64),
        batch,
        ingress=ingress,
    )


class ChangeFrame:
    """A shard's changed-ego report for one write batch, columnar.

    The packed form of an ``R_WRITE`` reply's change rows (a plain
    ``(ego, value, batch)`` list carries the ones that fail the gate):
    ``egos``/``values`` are parallel int64/float64 arrays of every
    *watched* ego whose finalized value changed, and ``batch`` is the
    shard runtime's global write stamp for the batch.  Subscriber
    fan-out happens front-side (against the ledger's ego → watchers
    registry), so the frame stays one row per changed ego no matter
    how many subscribers watch it.
    """

    __slots__ = ("egos", "values", "batch", "ingress")

    def __init__(self, egos, values, batch: int, ingress: Optional[float] = None) -> None:
        self.egos = egos
        self.values = values
        self.batch = batch
        #: The triggering write batch's front-end ingress timestamp,
        #: carried through the shard so the front-end can close the
        #: write→notify latency loop (``None`` on un-stamped batches).
        self.ingress = ingress

    def __len__(self) -> int:
        return len(self.egos)

    @property
    def nbytes(self) -> int:
        return self.egos.nbytes + self.values.nbytes

    def __reduce__(self):
        return (
            _changeframe_from_bytes,
            (self.egos.tobytes(), self.values.tobytes(), self.batch, self.ingress),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChangeFrame({len(self.egos)} egos, batch={self.batch})"


def _noteframe_from_bytes(subscriber, shard: int, data: bytes, ingress: float = None):
    records = np.frombuffer(data, dtype=NOTE_DTYPE)
    stamps = records["stamp"]
    return NoteFrame(
        subscriber, shard, records, int(stamps[0]), int(stamps[-1]), ingress
    )


class NoteFrame:
    """A contiguous run of one subscriber's notifications, columnar.

    The binary counterpart of a list of
    :class:`~repro.serve.messages.Notification` objects: one record per
    notification (``ego``, finalized ``value``, per-subscriber delivery
    ``stamp``, shard ``batch`` tag), plus the subscriber and shard ids
    shared by every row.  Stamps within a frame are contiguous and the
    frame exposes ``.stamp`` (its *last* stamp) so the notification
    journal can treat it as one monotone entry; :meth:`after` slices a
    resume suffix and :meth:`upto` an acknowledged prefix without
    materializing objects.  Subscribers get the raw records from
    ``Subscription.poll_batch()`` and pay :meth:`notifications` only on
    demand.

    ``first_stamp`` and ``stamp`` are plain slots, set when the frame is
    built or sliced and read off the records once when it is decoded:
    the journal consults them several times per append, evict and
    replay, and none of those touches the record array.
    """

    __slots__ = ("subscriber", "shard", "records", "first_stamp", "stamp", "ingress")

    def __init__(
        self,
        subscriber,
        shard: int,
        records,
        first_stamp: int,
        stamp: int,
        ingress: Optional[float] = None,
    ) -> None:
        self.subscriber = subscriber
        self.shard = shard
        self.records = records
        #: The frame's first stamp and its *last* (highest) stamp — the
        #: journal-order key; ``stamp - first_stamp + 1 == len(self)``.
        self.first_stamp = first_stamp
        self.stamp = stamp
        #: Ingress timestamp of the triggering write batch (``None`` on
        #: un-stamped frames — recovery replays, journal resumes from a
        #: prior process whose monotonic clock is meaningless here).
        self.ingress = ingress

    @classmethod
    def build(cls, subscriber, shard, egos, values, first_stamp, batch, ingress=None):
        """One frame from parallel ego/value arrays, stamping rows
        ``first_stamp, first_stamp+1, ...`` (the journal contract)."""
        count = len(egos)
        records = np.empty(count, dtype=NOTE_DTYPE)
        records["ego"] = egos
        records["value"] = values
        records["stamp"] = np.arange(first_stamp, first_stamp + count, dtype=np.int64)
        records["batch"] = batch
        return cls(
            subscriber, shard, records, first_stamp, first_stamp + count - 1, ingress
        )

    # -- journal protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def after(self, stamp: int) -> Optional["NoteFrame"]:
        """The suffix with stamps ``> stamp`` (``None`` when empty)."""
        first = self.first_stamp
        if first > stamp:
            return self
        if self.stamp <= stamp:
            return None
        # stamps are contiguous: the cut index is arithmetic, not a search
        return NoteFrame(
            self.subscriber,
            self.shard,
            self.records[stamp - first + 1 :],
            stamp + 1,
            self.stamp,
            self.ingress,
        )

    def upto(self, stamp: int) -> Optional["NoteFrame"]:
        """The prefix with stamps ``<= stamp`` (``None`` when empty)."""
        if self.stamp <= stamp:
            return self
        first = self.first_stamp
        if first > stamp:
            return None
        return NoteFrame(
            self.subscriber,
            self.shard,
            self.records[: stamp - first + 1],
            first,
            stamp,
            self.ingress,
        )

    # -- materialization (on demand only) ------------------------------------

    def notifications(self) -> List[Notification]:
        """The frame as :class:`Notification` objects (allocates)."""
        subscriber = self.subscriber
        shard = self.shard
        records = self.records
        return [
            Notification(subscriber, ego, value, stamp, shard, batch)
            for ego, value, stamp, batch in zip(
                records["ego"].tolist(),
                records["value"].tolist(),
                records["stamp"].tolist(),
                records["batch"].tolist(),
            )
        ]

    @property
    def nbytes(self) -> int:
        return self.records.nbytes

    def __reduce__(self):
        return (
            _noteframe_from_bytes,
            (self.subscriber, self.shard, self.records.tobytes(), self.ingress),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NoteFrame({self.subscriber!r}, shard={self.shard}, "
            f"stamps=[{self.first_stamp}..{self.stamp}])"
        )


# ---------------------------------------------------------------------------
# batch merging — the one segment-merging function in serve/: the
# ledger's ``B`` fold (hence coalescing, cold recovery and the replica)
# and the reshard residue both call it
# ---------------------------------------------------------------------------


def merge_items(batches: Sequence) -> Any:
    """Concatenate write batches, staying columnar when possible.

    Each element is either a :class:`WriteFrame` or a list of triples;
    a single batch passes through untouched, an all-frame run
    concatenates into one frame (array concat, no per-row objects,
    keeping the oldest ingress stamp), anything mixed — a batch that
    failed the packing gate coalesced with packable ones under
    backpressure, or reshard residue — materializes into a plain list
    and rides the pickle codec.  Every shape is a valid ``OP_WRITE``
    payload.
    """
    if not batches:
        return []
    if len(batches) == 1:
        return batches[0]
    if all(batch.__class__ is WriteFrame for batch in batches):
        return WriteFrame.concat(list(batches))
    merged: List = []
    for batch in batches:
        if batch.__class__ is WriteFrame:
            merged.extend(batch.tolist())
        else:
            merged.extend(batch)
    return merged
