"""The shard transport: how requests reach a worker and how its state is
read back.  One module knows; everything else holds a transport.

A transport has a **front half**, owned by the front-end for the life of
the shard (it survives worker replacement), and a picklable **worker
half** (:meth:`worker_half`) that travels to each worker incarnation:

======================  ===================================================
front half              ``reset`` · ``try_send`` / ``send`` / ``wake`` ·
                        ``read_local`` · ``metric_values`` ·
                        ``depth_stats`` · ``close`` (+ ``replies``, ``io``,
                        ``segments``)
worker half             ``attach`` · ``recv`` / ``poll`` / ``reply`` /
                        ``published`` · ``close``
======================  ===================================================

There are exactly two implementations, and both carry the *same request
tuples* in the same FIFO order, so every ordering guarantee of
:mod:`repro.serve.messages` is transport-independent.  Which one a shard
gets (``transport="auto"``) is a property of the query, not of the
host: the ring needs the shard's state in shared columns, so an
aggregate without a :class:`~repro.core.aggregates.ColumnSpec` (TOP-K,
user aggregates — they keep an :class:`~repro.core.statestore.ObjectStore`)
rides the queue, and every other aggregate rides the ring.  In-process
shards have no transport at all (their executor calls the host
directly) and report ``"queue"``.

* :class:`QueueTransport` — a bounded pipe of request frames.  Queue
  depth is the backpressure window.  ``poll`` never yields (the worker
  applies one batch per request), ``published`` stores nothing but, like
  the ring's, lets the worker drop empty write acknowledgements (the
  queue is FIFO and ``R_WRITE`` has one consumer, the front-end's
  ``_deliver``, which returns at once on an empty report), nothing can be
  read locally, and shard metrics cost an ``OP_STATS`` round trip.
* :class:`RingTransport` — a shared-memory ingress ring
  (:class:`~repro.serve.shm.ShmRing`) of codec-tagged frames, a doorbell
  pipe the worker parks on when the ring is empty, the shard's value
  columns in a shared segment the front-end gathers push readers from
  zero-copy, and a metrics slab scraped with zero IPC.  ``poll`` hands
  the worker the frames that queued up behind the one it is applying
  (consumer-side merging), and ``published`` stores the shard's
  *processed-through* watermark in the ring header — which is what lets
  :meth:`RingTransport.read_local` give read-your-writes without a round
  trip.

Both carry the same frames (:mod:`repro.serve.frames`: packed write
batches as raw ``K_WRITE`` record bytes, everything else ``K_PICKLE``),
and both send replies back over one OS pipe of length-prefixed pickles
(:class:`Replies` is the front end's reader).  Nothing is handed to a
helper thread: a request is encoded and written — into the ring or the
request pipe — on the thread that sends it, and a reply is pickled and
written on the worker's loop thread.  A frame larger than the free pipe
buffer therefore blocks its sender until the other side reads it; the
front-end's lock order (``serve/server.py``) shows why that cannot
close a cycle.  A blocked request write re-checks worker liveness once
a second, so a dead worker surfaces as ``RuntimeError`` from ``send``
and ``False`` from ``try_send``, never as a hang.

The request pipe, the reply pipe and the doorbell belong to one worker
incarnation — a killed process can leave any of them holding half a
frame — so :meth:`reset` replaces them; the named segments persist and
are rewound or re-attached instead.  The front-end names every segment
and unlinks it **by name** in :meth:`close`, so stores created by
workers that have since died uncleanly are destroyed too.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.statestore import WriteFrame
from repro.serve import frames as _frames
from repro.serve.messages import OP_HANDLES, OP_STATS, OP_WRITE, ServeError

NodeId = Any
Alive = Callable[[], bool]


def io_counters() -> Dict[str, int]:
    """Fresh ingress codec/byte counters for one worker incarnation.

    ``ring_stalls`` counts rejected pushes (ring full / depth bound hit
    — the frame parks in the outbox) and ``doorbell_rings`` the actual
    wake-up bytes sent; both stay 0 off the ring.
    """
    return {
        "ingress_bytes": 0,
        "write_frames_binary": 0,
        "write_frames_pickle": 0,
        "control_frames": 0,
        "ring_stalls": 0,
        "doorbell_rings": 0,
    }


def tally_request(io: Dict[str, int], request: Tuple) -> None:
    """Count one accepted request that moved as an object, not as bytes
    (the in-process executor's).

    Only binary frames have a meaningful byte count there (their raw
    record bytes); pickled requests count codec-only.
    """
    if request[0] == OP_WRITE:
        items = request[3]
        if items.__class__ is WriteFrame:
            io["write_frames_binary"] += 1
            io["ingress_bytes"] += items.nbytes
        else:
            io["write_frames_pickle"] += 1
    else:
        io["control_frames"] += 1


def encode_request(request: Tuple) -> Tuple[bytes, str]:
    """``(frame payload, codec-counter key)`` for one request tuple."""
    if request[0] == OP_WRITE and request[3].__class__ is WriteFrame:
        return (
            _frames.encode_write(request[1], request[2], request[3]),
            "write_frames_binary",
        )
    return (
        _frames.encode_pickle(request),
        "write_frames_pickle" if request[0] == OP_WRITE else "control_frames",
    )


# ---------------------------------------------------------------------------
# pipe framing
# ---------------------------------------------------------------------------

#: every pipe frame is this length prefix plus the payload.
_LENGTH = struct.Struct("<Q")


def _read_exact(fd: int, size: int) -> bytes:
    """Blocking read of exactly ``size`` bytes; ``EOFError`` when the
    other end closed first."""
    data = os.read(fd, size)
    if len(data) == size:
        return data
    chunks = [data]
    size -= len(data)
    while size:
        if not data:
            raise EOFError("pipe closed mid-frame")
        data = os.read(fd, min(size, 1 << 16))
        chunks.append(data)
        size -= len(data)
    return b"".join(chunks)


def _recv_frame(fd: int) -> bytes:
    """The next frame's payload off a blocking pipe end."""
    (size,) = _LENGTH.unpack(_read_exact(fd, _LENGTH.size))
    return _read_exact(fd, size)


def _send_reply(fd: int, reply: Tuple) -> None:
    """Pickle and write one reply on the worker's loop thread (blocking:
    the front-end's drainer empties the pipe)."""
    payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_LENGTH.pack(len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


class Replies:
    """The front end's read side of one worker incarnation's reply pipe.

    Read by one thread, the executor's drainer, which parks in
    ``multiprocessing.connection.wait`` on this object (it has a
    ``fileno``) and the worker's sentinel.  The descriptor is
    non-blocking and :meth:`take` keeps a partial frame for the next
    call, so a worker killed halfway through a reply leaves bytes
    behind, never a blocked reader.
    """

    def __init__(self, conn) -> None:
        self._conn = conn  # owns the descriptor (closed with it)
        self._fd = conn.fileno()
        os.set_blocking(self._fd, False)
        self._buffer = bytearray()

    def fileno(self) -> int:
        return self._fd

    def take(self) -> List[Tuple]:
        """Every complete reply readable now, in order (``[]`` when only
        part of one has arrived); ``EOFError`` once the worker's end is
        closed and nothing complete is left."""
        buffer = self._buffer
        closed = False
        while True:
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                closed = True
                break
            buffer += chunk
            if len(chunk) < 1 << 16:
                break  # a short read emptied the pipe
        replies = []
        at, end = 0, len(buffer)
        with memoryview(buffer) as view:
            while end - at >= _LENGTH.size:
                (size,) = _LENGTH.unpack_from(view, at)
                start = at + _LENGTH.size
                if end - start < size:
                    break
                replies.append(pickle.loads(view[start:start + size]))
                at = start + size
        del buffer[:at]
        if closed and not replies:
            raise EOFError("worker closed its reply pipe")
        return replies


def _reply_pipe(ctx) -> Tuple[Replies, Any]:
    """``(front-end reader, worker's write end)`` of a fresh reply pipe."""
    recv_end, send_end = ctx.Pipe(duplex=False)
    return Replies(recv_end), send_end


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


class QueueTransport:
    """Bounded pipe of request frames (see module docstring).

    ``call(op)`` performs one awaited control request against this
    transport's shard (the front-end's seq/pending plumbing); ``depth``
    bounds the frames in flight — sent, not yet received by the worker —
    ``0`` meaning unbounded.  A shared semaphore counts them: a sender
    takes a slot, the worker frees it on receipt.
    """

    kind = "queue"
    #: no named shared-memory segments.
    segments: Optional[Dict[str, str]] = None

    def __init__(
        self, ctx, shard_id: int, depth: int, call: Callable[[int], Any]
    ) -> None:
        self._ctx = ctx
        self.shard_id = shard_id
        self._depth = depth
        self._call = call
        #: one frame on the request pipe at a time.
        self._send_lock = threading.Lock()

    def reset(self) -> None:
        """Fresh channels and counters for a new worker incarnation
        (the executor calls this before it spawns one)."""
        ctx = self._ctx
        with self._send_lock:
            self._requests_recv, requests = ctx.Pipe(duplex=False)
            self._requests = requests  # owns the descriptor below
            self._fd = requests.fileno()
            os.set_blocking(self._fd, False)
            self._writable = select.poll()
            self._writable.register(self._fd, select.POLLOUT)
            self._slots = ctx.BoundedSemaphore(self._depth) if self._depth else None
            self.replies, self._replies_send = _reply_pipe(ctx)
            self.io = io_counters()

    def worker_half(self) -> "_QueueWorker":
        """The incarnation's worker half; takes the request pipe's read
        end and the reply pipe's write end with it, so once the worker
        is started this process holds neither (a dead worker then reads
        as a broken pipe or an EOF, not as silence)."""
        half = _QueueWorker(self._requests_recv, self._slots, self._replies_send)
        self._requests_recv = self._replies_send = None
        return half

    def _write(self, payload: bytes, codec: str, alive: Alive) -> None:
        """Write one frame on the calling thread (a slot already taken).

        A frame larger than the free pipe buffer waits for the worker to
        read; the wait re-checks liveness once a second, and a dead
        worker raises ``RuntimeError`` instead of hanging.
        """
        view = memoryview(_LENGTH.pack(len(payload)) + payload)
        with self._send_lock:
            fd = self._fd
            while view:
                try:
                    view = view[os.write(fd, view):]
                except BlockingIOError:
                    if not self._writable.poll(1000) and not alive():
                        raise RuntimeError(
                            f"shard {self.shard_id} worker died with a "
                            "request frame in its pipe"
                        ) from None
                except OSError as error:  # EPIPE: nobody reads any more
                    raise RuntimeError(
                        f"shard {self.shard_id} worker died ({error})"
                    ) from None
            io = self.io
            io[codec] += 1
            io["ingress_bytes"] += len(payload)

    def try_send(self, request: Tuple, alive: Alive) -> bool:
        """Non-blocking on the depth bound: ``False`` when ``depth``
        frames are in flight, or when the worker turns out dead."""
        slots = self._slots
        if slots is not None and not slots.acquire(False):
            return False
        try:
            self._write(*encode_request(request), alive)
        except RuntimeError:
            return False
        return True

    def send(
        self, request: Tuple, alive: Alive, timeout: Optional[float] = None
    ) -> bool:
        """Blocking send: waits for a slot (backpressure), then for pipe
        space.

        Both waits re-check worker liveness once a second, so a crashed
        shard surfaces as ``RuntimeError`` instead of an unbounded hang;
        ``False`` when ``timeout`` ran out before a slot freed up.
        """
        slots = self._slots
        if slots is not None:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not slots.acquire(timeout=1.0):
                if not alive():
                    raise RuntimeError(
                        f"shard {self.shard_id} worker died with a full "
                        "request queue"
                    )
                if deadline is not None and time.monotonic() >= deadline:
                    return False
        self._write(*encode_request(request), alive)
        return True

    def wake(self) -> None:
        """No-op: the frame itself wakes the worker blocked on the pipe."""

    def read_local(
        self,
        nodes: Sequence[NodeId],
        positions: List[int],
        results: List[Any],
        target_batch: int,
        alive: Alive,
    ) -> List[int]:
        """Nothing is readable front-side: every position is left over."""
        return positions

    def metric_values(self, alive: Alive):
        """The shard's flat metric array via an ``OP_STATS`` round trip
        (the only route that costs a control message)."""
        if not alive():
            return None
        try:
            return self._call(OP_STATS).get("metrics_values")
        except ServeError:
            return None

    def depth_stats(self) -> Optional[Dict[str, Any]]:
        return None

    def close(self) -> None:
        """Nothing named to release."""


class _QueueWorker:
    """Worker half of :class:`QueueTransport`."""

    def __init__(self, requests, slots, replies) -> None:
        self._requests = requests
        self._slots = slots
        self._replies = replies

    def attach(self, spec, host) -> "_QueueWorker":
        return self

    def recv(self) -> Tuple:
        payload = _recv_frame(self._requests.fileno())
        if self._slots is not None:
            self._slots.release()
        return _frames.decode(payload)

    def poll(self) -> None:
        """Never: the queue worker applies one batch per request."""
        return None

    def reply(self, reply: Tuple) -> None:
        _send_reply(self._replies.fileno(), reply)

    def published(self, batch_no: int, stamp: int) -> bool:
        """Nothing to store, yet ``True``: requests are FIFO and only the
        front-end's ``_deliver`` consumes an ``R_WRITE``, which returns at
        once on an empty report — so an empty write acknowledgement is
        pure codec traffic here, exactly as behind the ring's watermark."""
        return True

    def close(self) -> None:
        self._requests.close()
        self._replies.close()


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------


class RingTransport:
    """Shared-memory ingress ring + shared value columns + metrics slab.

    ``try_send``/``send`` serialize on a push lock so the ring stays
    single-producer even with concurrent server threads (reads,
    subscribes, the background flusher).  Unlike the queue — whose
    blocking ``send`` only notices a dead worker once the queue fills —
    sends here fail fast whenever the worker is gone: ring space says
    nothing about liveness, and a frame pushed at a corpse would
    silently never apply (the front-end's redo log still has it).

    Parameters
    ----------
    name:
        Segment-name stem; the ring, value store and metrics slab are
        ``{name}r{shard}`` / ``v`` / ``m``.
    depth:
        In-flight frame bound — the queue transport's depth semantics.
        Byte capacity alone would let a fast producer enqueue hundreds
        of small batches, defeating the outbox coalescing that keeps a
        lagging worker fed with few, large batches; 0 means unbounded.
    read_ok:
        Whether push readers may be answered from the shared columns.
    metrics_slots:
        Size of the shard metrics schema, or 0 with the metrics plane
        off (no slab).
    """

    kind = "shm"

    def __init__(
        self,
        ctx,
        name: str,
        shard_id: int,
        ring_bytes: int,
        depth: int,
        aggregate,
        read_ok: bool,
        metrics_slots: int,
        reply_timeout: float,
        call: Callable[[int], Any],
    ) -> None:
        from repro.serve.shm import ShmRing

        self._ctx = ctx
        self.shard_id = shard_id
        self._depth = depth
        self._aggregate = aggregate
        self._read_ok = read_ok
        self._reply_timeout = reply_timeout
        self._call = call
        self.segments = {
            "ring": f"{name}r{shard_id}",
            "store": f"{name}v{shard_id}",
        }
        self._ring = ShmRing(self.segments["ring"], capacity=ring_bytes, create=True)
        self._slab = None
        if metrics_slots:
            from repro.obs import MetricsSlab

            self.segments["metrics"] = f"{name}m{shard_id}"
            self._slab = MetricsSlab.create(self.segments["metrics"], metrics_slots)
        self._push_lock = threading.Lock()
        #: serializes the attach between reader threads (a raced attach
        #: would leak the loser's mapping).
        self._attach_lock = threading.Lock()
        #: (attached value store or None, {node: (handle, is_push)}) of
        #: the live worker incarnation, fetched lazily.
        self._view: Optional[Tuple[Any, Dict[NodeId, Tuple[int, bool]]]] = None
        self._bell = None

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Rewind for a new worker incarnation (none may be running).

        Frames the dead worker abandoned are superseded by the
        front-end's redo replay: the successor starts from an empty ring
        and republishes its watermark once it has restored its
        checkpoint.  The value segment stays — the successor adopts it
        by name and re-materializes every column — but the cached handle
        map and read attachment go: a worker rebuilt for a larger reader
        set recreates the segment, larger, under the *same* name.
        """
        with self._push_lock:
            self._ring.reset()
            self._bell_pending = False
            if self._bell is not None:
                self._bell.close()
            self.replies, self._replies_send = _reply_pipe(self._ctx)
            # Doorbell: the worker parks on this pipe when the ring is
            # empty; wake() rings it only while the worker is parked.
            self._bell_recv, self._bell = self._ctx.Pipe(duplex=False)
            self.io = io_counters()
        self._detach()

    def _detach(self) -> None:
        with self._attach_lock:
            view, self._view = self._view, None
        if view is not None and view[0] is not None:
            view[0].close()

    def worker_half(self) -> "_RingWorker":
        """The incarnation's worker half; takes the doorbell's read end
        and the reply pipe's write end with it, so this process keeps
        neither end of its own pipes."""
        half = _RingWorker(self._replies_send, self._bell_recv)
        self._bell_recv = self._replies_send = None
        return half

    def close(self) -> None:
        """Unlink every segment this transport named (idempotent)."""
        from repro.core.statestore import unlink_segment

        self._detach()
        if self._bell is not None:
            self._bell.close()
        self._ring.unlink()
        if self._slab is not None:
            self._slab.close()
            self._slab.unlink()
        unlink_segment(self.segments["store"])

    # -- ingress ------------------------------------------------------------

    def _push(self, payload: bytes, codec: str) -> bool:
        """Push one frame; the wake-up is *deferred* to :meth:`wake`.

        Ringing per push would wake the worker mid-multicast and let the
        scheduler preempt the producing front-end between shard pushes
        (the queue transport's worker wakes on the request frame itself,
        so a multicast round there pays one wake-up per shard push).  Deferring
        the doorbell to the end of the caller's submission round keeps
        the producer's burst intact: one syscall per round, workers wake
        to a ring already holding everything.
        """
        with self._push_lock:
            ring = self._ring
            if (self._depth and ring.pending_frames >= self._depth) or (
                not ring.try_push(payload)
            ):
                self.io["ring_stalls"] += 1
                return False
            self._bell_pending = True
            io = self.io
            io[codec] += 1
            io["ingress_bytes"] += len(payload)
        return True

    def try_send(self, request: Tuple, alive: Alive) -> bool:
        """Non-blocking push; ``False`` when the ring is full or the
        worker is dead (writes then park in the outbox, exactly like a
        backed-up queue shard)."""
        if not alive():
            return False
        return self._push(*encode_request(request))

    def send(
        self, request: Tuple, alive: Alive, timeout: Optional[float] = None
    ) -> bool:
        """Blocking push: waits for ring space, fails fast on a corpse;
        ``False`` when ``timeout`` ran out first."""
        payload, codec = encode_request(request)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if not alive():
                raise RuntimeError(
                    f"shard {self.shard_id} worker died; ingress ring "
                    "abandoned until restart"
                )
            if self._push(payload, codec):
                return True
            self.wake()  # ring full: make sure the worker is draining it
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.0005)

    def wake(self) -> None:
        """Wake the worker for every frame pushed since the last wake.

        The byte is sent only while the worker is parked (or parking) on
        the doorbell — ``ring.waiting()`` — so pipe traffic is bounded at
        one byte per park cycle and a busy worker, which never drains the
        pipe, cannot back it up into a blocking ``send_bytes``.  The
        announce-then-recheck order in the worker makes the gate safe: a
        worker that misses our frame during its recheck has already set
        the flag we test here.  Its 0.5 s poll timeout is the final
        backstop, so a missed wake costs latency, never progress.
        """
        if not self._bell_pending:
            return
        with self._push_lock:
            if not self._bell_pending:
                return
            self._bell_pending = False
        if not self._ring.waiting():
            return  # worker is processing; it will see the frames itself
        try:
            self._bell.send_bytes(b"!")
            self.io["doorbell_rings"] += 1
        except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
            pass

    # -- reading state back -------------------------------------------------

    def wait_applied(self, target_batch: int, alive: Alive) -> None:
        """Block until the watermark covers ``target_batch``.

        The wait is bounded two ways, so a worker that dies between the
        caller's liveness check and the watermark publication can never
        hang this thread: every spin iteration re-checks worker liveness
        (fail fast with :class:`ServeError`, not the reply timeout), and
        an absolute deadline of ``reply_timeout`` catches a live-but-
        wedged worker.  Death is confirmed against the watermark once
        more before raising — a worker that applied the final batch and
        *then* exited left complete columns behind, and reads from them
        are correct.
        """
        ring = self._ring
        self.wake()
        if ring.applied() >= target_batch:
            return
        deadline = time.monotonic() + self._reply_timeout
        while ring.applied() < target_batch:
            if not alive():
                if ring.applied() >= target_batch:
                    return  # applied everything, then exited: columns complete
                raise ServeError(
                    f"shard {self.shard_id}: worker died before applying "
                    f"batch {target_batch}"
                )
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"shard {self.shard_id}: timed out waiting for batch "
                    f"{target_batch} to apply"
                )
            time.sleep(0.0002)

    def _live_view(self):
        """``(store, handle map)`` of the live worker: its ``OP_HANDLES``
        answer, fetched once per incarnation over the ring (so it trails
        every boot-time rebuild), and the value columns attached by the
        segment name the shard itself reported.  ``store`` is ``None``
        when that segment is not attachable."""
        view = self._view
        if view is None:
            from repro.core.statestore import SharedColumnarStore, ValueStoreError

            store_name, hmap = self._call(OP_HANDLES)
            with self._attach_lock:
                if self._view is None:
                    try:
                        store = SharedColumnarStore.attach(
                            self._aggregate.column_spec,
                            store_name or self.segments["store"],
                        )
                    except (FileNotFoundError, ValueStoreError):
                        store = None
                    self._view = (store, hmap)
                view = self._view
        return view

    def read_local(
        self,
        nodes: Sequence[NodeId],
        positions: List[int],
        results: List[Any],
        target_batch: int,
        alive: Alive,
    ) -> List[int]:
        """Serve what we can from the shard's shared columns.

        Waits for the watermark to cover ``target_batch`` (read-your-
        writes without a round trip), gathers the column scalars under
        the store's seqlock stamp — retrying if a concurrent batch
        landed mid-gather — finalizes locally into ``results``, and
        returns the positions that still need a shard-side ``OP_READ``:
        pull readers, cleared slots (adaptive flips), or the whole list
        when the fast path is off (time windows advance expiry
        shard-side; adaptive shards need the read traffic as their
        observed-pull signal) or the worker is dead (the request path
        surfaces the death fast).  Raises :class:`ServeError` when the
        worker dies before covering the watermark.
        """
        if not self._read_ok or not alive():
            return positions
        self.wait_applied(target_batch, alive)
        store, hmap = self._live_view()
        if store is None:
            return positions
        leftover: List[int] = []
        fast: List[Tuple[int, int]] = []
        for position in positions:
            info = hmap.get(nodes[position])
            if info is None or not info[1]:
                leftover.append(position)
            else:
                fast.append((position, info[0]))
        if not fast:
            return leftover
        columns = store.columns
        cleared_mask = store._cleared
        aggregate = self._aggregate
        unpack = aggregate.column_spec.unpack
        # Bounded validation retries: under sustained write pressure a
        # large gather can overlap a scatter on every attempt; after a
        # few failed validations the shard answers via OP_READ instead
        # of spinning toward the reply timeout.
        for _attempt in range(8):
            stamp = store.read_seq()
            if stamp % 2 == 0:
                gathered = [
                    tuple(column[handle] for column in columns)
                    for _position, handle in fast
                ]
                cleared = [bool(cleared_mask[handle]) for _p, handle in fast]
                if store.read_seq() == stamp:
                    break
            time.sleep(0.0002)
        else:
            return leftover + [position for position, _handle in fast]
        finalize = aggregate.finalize
        for (position, _handle), scalars, is_cleared in zip(fast, gathered, cleared):
            if is_cleared:
                # Unmaterialized slot (e.g. an adaptive flip to pull since
                # the handle map was fetched): let the shard answer.
                leftover.append(position)
            else:
                results[position] = finalize(unpack(scalars))
        return leftover

    def metric_values(self, alive: Alive):
        """Slab scrape: zero IPC, no worker perturbation (``None`` with
        the metrics plane off)."""
        return None if self._slab is None else self._slab.scrape()

    def depth_stats(self) -> Optional[Dict[str, Any]]:
        return self._ring.depth_stats()


class _RingWorker:
    """Worker half of :class:`RingTransport`.

    Pickled with only the incarnation's reply pipe and doorbell;
    :meth:`attach` maps the named segments (``spec.shm``) once the
    worker process has built its host.
    """

    def __init__(self, replies, doorbell) -> None:
        self._replies = replies
        self._doorbell = doorbell

    def attach(self, spec, host) -> "_RingWorker":
        from repro.serve.shm import ShmRing

        self._ring = ShmRing(spec.shm["ring"], create=False)
        self._host = host
        # Metrics slab: front-end-created segment this worker
        # bulk-publishes its registry values into after every applied
        # group (and before parking).
        self._slab = None
        slab_name = spec.shm.get("metrics")
        if slab_name is not None and host._metrics_on:
            from repro.obs import MetricsSlab

            try:
                self._slab = MetricsSlab.attach(
                    slab_name, host.metrics_registry.n_slots
                )
            except Exception:  # noqa: BLE001
                pass  # scrape degrades; never kill the worker
        return self

    def _publish_metrics(self) -> None:
        if self._slab is not None:
            self._slab.publish(self._host.metrics_values())

    def recv(self) -> Tuple:
        """Next request, parking on the doorbell while the ring is empty
        (kernel-blocking, not poll-burning: a spinning worker would
        steal the cycles the front-end needs to produce)."""
        ring = self._ring
        while True:
            frame = ring.try_pop()
            if frame is None:
                # Announce first, re-check the ring (closing the
                # producer's push-then-check race), then block.
                ring.set_waiting(True)
                frame = ring.try_pop()
                if frame is None:
                    metrics = self._host.metrics
                    metrics["shard_parks"].inc()
                    self._publish_metrics()  # idle worker: keep the scrape fresh
                    doorbell = self._doorbell
                    try:
                        if doorbell.poll(0.5):
                            metrics["shard_doorbell_wakeups"].inc()
                            while doorbell.poll(0):  # swallow queued rings
                                doorbell.recv_bytes()
                    except (EOFError, OSError):
                        pass  # sender closed: frames (incl. OP_STOP) still drain
                    ring.set_waiting(False)
                    continue
                ring.set_waiting(False)
            return _frames.decode(frame)

    def poll(self) -> Optional[Tuple]:
        """A request already waiting behind the current one, or ``None``."""
        frame = self._ring.try_pop()
        return None if frame is None else _frames.decode(frame)

    def reply(self, reply: Tuple) -> None:
        _send_reply(self._replies.fileno(), reply)

    def published(self, batch_no: int, stamp: int) -> bool:
        """Store the processed-through watermark; ``True``: an empty
        write acknowledgement would now be pure codec traffic."""
        self._ring.publish_applied(batch_no, stamp)
        self._publish_metrics()
        return True

    def close(self) -> None:
        """Drop the views (the segments survive — unlinking is the
        front-end's job)."""
        if self._slab is not None:
            self._slab.close()
        self._ring.close()
        self._replies.close()


def open_transports(
    kind: str,
    num_shards: int,
    query,
    adaptive: bool,
    mp_context: str,
    queue_depth: int,
    ring_bytes: int,
    metrics_slots: int,
    reply_timeout: float,
    call: Callable[[int, int], Any],
) -> List[Any]:
    """One transport per shard of a process deployment.

    ``kind`` is the resolved transport (``"queue"`` or ``"shm"``);
    ``call(shard_id, op)`` is the front-end's awaited control request.
    """
    import multiprocessing

    ctx = multiprocessing.get_context(mp_context)
    if kind == "queue":
        return [
            QueueTransport(ctx, shard_id, queue_depth, partial(call, shard_id))
            for shard_id in range(num_shards)
        ]
    from repro.core.windows import TimeWindow

    name = "eagr{:x}_{:x}".format(os.getpid(), int.from_bytes(os.urandom(4), "little"))
    read_ok = not isinstance(query.window, TimeWindow) and not adaptive
    return [
        RingTransport(
            ctx,
            name,
            shard_id,
            ring_bytes,
            queue_depth,
            query.aggregate,
            read_ok,
            metrics_slots,
            reply_timeout,
            partial(call, shard_id),
        )
        for shard_id in range(num_shards)
    ]
