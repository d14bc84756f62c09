"""The shard transport: how requests reach a worker process and how its
replies come back.  One module knows; everything else holds a transport.

:class:`QueueTransport` has a **front half**, owned by the front-end for
the life of the shard (it survives worker replacement), and a picklable
**worker half** (:meth:`QueueTransport.worker_half`) that travels to
each worker incarnation:

======================  ===================================================
front half              ``reset`` · ``try_send`` / ``send`` ·
                        ``metric_values`` (+ ``replies``, ``io``)
worker half             ``recv`` / ``reply`` · ``close``
======================  ===================================================

Requests are the tuples of :mod:`repro.serve.messages`, in FIFO order,
encoded as frames (:mod:`repro.serve.frames`: packed write batches as
raw ``K_WRITE`` record bytes, everything else ``K_PICKLE``) on a bounded
request pipe.  A shared semaphore bounds the frames in flight — the
backpressure window.  Replies come back over one OS pipe of
length-prefixed pickles (:class:`Replies` is the front end's reader);
shard metrics cost an ``OP_STATS`` round trip.  In-process shards have
no transport at all (their executor calls the host directly).

Nothing is handed to a helper thread: a request is encoded and written
on the thread that sends it, and a reply is pickled and written on the
worker's loop thread.  A frame larger than the free pipe buffer
therefore blocks its sender until the worker reads it; the front-end's
lock order (``serve/server.py``) shows why that cannot close a cycle.
A blocked request write re-checks worker liveness once a second, so a
dead worker surfaces as ``RuntimeError`` from ``send`` and ``False``
from ``try_send``, never as a hang.

Both pipes belong to one worker incarnation — a killed process can
leave either holding half a frame — so :meth:`QueueTransport.reset`
replaces them.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.statestore import WriteFrame
from repro.serve import frames as _frames
from repro.serve.messages import OP_STATS, OP_WRITE, ServeError

Alive = Callable[[], bool]


def io_counters() -> Dict[str, int]:
    """Fresh ingress codec/byte counters for one worker incarnation."""
    return {
        "ingress_bytes": 0,
        "write_frames_binary": 0,
        "write_frames_pickle": 0,
        "control_frames": 0,
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
# the transport
# ---------------------------------------------------------------------------


class QueueTransport:
    """Bounded pipe of request frames (see module docstring).

    ``call(op)`` performs one awaited control request against this
    transport's shard (the front-end's seq/pending plumbing); ``depth``
    bounds the frames in flight — sent, not yet received by the worker —
    ``0`` meaning unbounded.  A shared semaphore counts them: a sender
    takes a slot, the worker frees it on receipt.
    """

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

    def metric_values(self, alive: Alive):
        """The shard's flat metric array via an ``OP_STATS`` round trip;
        ``None`` when the worker is dead or does not answer."""
        if not alive():
            return None
        try:
            return self._call(OP_STATS).get("metrics_values")
        except ServeError:
            return None


class _QueueWorker:
    """Worker half of :class:`QueueTransport`."""

    def __init__(self, requests, slots, replies) -> None:
        self._requests = requests
        self._slots = slots
        self._replies = replies

    def recv(self) -> Tuple:
        payload = _recv_frame(self._requests.fileno())
        if self._slots is not None:
            self._slots.release()
        return _frames.decode(payload)

    def reply(self, reply: Tuple) -> None:
        _send_reply(self._replies.fileno(), reply)

    def close(self) -> None:
        self._requests.close()
        self._replies.close()


def open_transports(
    num_shards: int, mp_context: str, queue_depth: int, call: Callable[[int, int], Any]
) -> List[QueueTransport]:
    """One transport per shard of a process deployment; ``call(shard_id,
    op)`` is the front-end's awaited control request."""
    import multiprocessing

    ctx = multiprocessing.get_context(mp_context)
    return [
        QueueTransport(ctx, shard_id, queue_depth, partial(call, shard_id))
        for shard_id in range(num_shards)
    ]
