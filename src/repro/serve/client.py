"""Client for the serve tier's TCP gateway.

Two layers over one wire protocol (see :mod:`repro.serve.gateway`):

* :class:`AsyncEAGrClient` — the asyncio client.  One connection, one
  receive task; requests are correlated by request id, notification
  frames fan out to per-subscriber :class:`AsyncSubscriptionStream`\\ s.
* :class:`EAGrClient` — a synchronous facade for ordinary callers: it
  runs an event loop on a daemon thread and exposes the familiar
  blocking surface (``write_batch`` / ``read_batch`` / ``subscribe`` /
  streams with ``get(timeout=...)``), so swapping an in-process
  ``EAGrServer`` for a remote gateway is a one-line change.

Write batches are encoded client-side with the same
:class:`~repro.core.statestore.WriteFrame` packing the shard transport
uses — when the batch qualifies for the columnar fast path the gateway
hands the received frame to ``EAGrServer.accept`` without ever
materializing triples.  Non-packable batches fall back to the pickle
payload transparently.

A write returns when the gateway's ``K_OK`` arrives, and ``K_OK`` means
*accepted*: the batch is routed and logged, and fsynced when the server
has a write-ahead log.  The shard apply and the notifications follow
asynchronously.  A read sent after the write returns still observes it.

Resume tokens double as reconnect cursors: every stream tracks the last
stamp it has seen (:attr:`~AsyncSubscriptionStream.resume_token`), and a
client that lost its connection reconnects with
``subscribe(..., resume_from=stream.resume_token)`` to continue gap-free
and duplicate-free — the server's journal replays the missed window with
the original stamps.

Acks are flow control: the gateway bounds un-acked bytes per connection
and pauses streams at the bound.  With ``auto_ack=True`` (the default)
the client acknowledges every notification frame on receipt, so a
consumer that keeps reading never pauses; pass ``auto_ack=False`` to ack
manually (``stream.ack()``) and let the gateway's backpressure hold the
un-consumed window in the server's journal instead of in client memory.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.core.statestore import WriteFrame
from repro.serve.frames import (
    K_ACK,
    K_ERROR,
    K_HELLO,
    K_NOTES,
    K_OK,
    K_READ,
    K_SUBSCRIBE,
    LENGTH_PREFIX,
    NoteFrame,
    decode_control,
    encode_control,
    encode_pickle,
    encode_write,
)
from repro.serve.journal import ResumeGapError
from repro.serve.messages import OP_WRITE, Notification, ServeError


class GatewayClosed(ServeError):
    """The gateway connection is gone (EOF, reset, or local close)."""


def _map_error(kind: str, message: str) -> Exception:
    """An error frame back into the exception the server-side call raised."""
    from repro.serve.gateway import GatewayError

    if kind == "ResumeGapError":
        return ResumeGapError(message)
    if kind == "ServeError":
        return ServeError(message)
    if kind == "GatewayError":
        return GatewayError(message)
    return GatewayError(f"{kind}: {message}")


class AsyncSubscriptionStream:
    """Client-side view of one subscriber's notification stream.

    Mirrors the server-side :class:`~repro.serve.server.Subscription`
    surface (``snapshot`` / ``get`` / ``poll`` / ``poll_batch``) with the
    delivery queue fed by the connection's receive task.  A connection
    loss surfaces as :class:`GatewayClosed` from the next read — never a
    silent end-of-stream — and :attr:`resume_token` is exactly what a
    replacement client passes as ``resume_from`` to continue.
    """

    def __init__(self, client: "AsyncEAGrClient", subscriber: Hashable,
                 auto_ack: bool) -> None:
        self._client = client
        self.subscriber = subscriber
        self.auto_ack = auto_ack
        self.snapshot: Dict[Any, Any] = {}
        #: server-side stamp horizon at subscribe time (stamps at or
        #: below this cannot be resumed from after an ack/overflow).
        self.last_stamp = 0
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._buffer: List[Notification] = []
        #: last stamp seen on this stream — the reconnect cursor.
        self.resume_token = 0

    # -- feeding (receive task only) -----------------------------------

    def _push(self, item: Any) -> None:
        if not isinstance(item, BaseException):
            self.resume_token = item.stamp
        self._queue.put_nowait(item)

    # -- consuming -----------------------------------------------------

    def _materialize(self, item: Any) -> Notification:
        if isinstance(item, BaseException):
            self._queue.put_nowait(item)  # sticky: every later read fails too
            raise item
        if item.__class__ is NoteFrame:
            notes = item.notifications()
            self._buffer.extend(notes[1:])
            return notes[0]
        return item

    async def get(self, timeout: Optional[float] = None) -> Optional[Notification]:
        """Next notification; ``None`` on timeout (absolute deadline)."""
        if self._buffer:
            return self._buffer.pop(0)
        try:
            if timeout is None:
                item = await self._queue.get()
            else:
                item = await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None
        return self._materialize(item)

    async def poll(self) -> List[Notification]:
        """Drain everything currently received, without blocking."""
        drained: List[Notification] = list(self._buffer)
        self._buffer.clear()
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return drained
            if isinstance(item, BaseException):
                self._queue.put_nowait(item)
                if drained:
                    return drained
                raise item
            if item.__class__ is NoteFrame:
                drained.extend(item.notifications())
            else:
                drained.append(item)

    async def ack(self, stamp: Optional[int] = None) -> None:
        """Acknowledge through ``stamp`` (default: everything seen)."""
        await self._client.ack(
            self.subscriber, self.resume_token if stamp is None else stamp
        )


class AsyncEAGrClient:
    """Asyncio client for one :class:`~repro.serve.gateway.GatewayServer`."""

    def __init__(self, host: str, port: int, *,
                 client_id: Optional[Hashable] = None) -> None:
        self._host = host
        self._port = port
        self.client_id = client_id
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._recv_task: Optional[asyncio.Task] = None
        self._send_lock = asyncio.Lock()
        self._rid = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._streams: Dict[Hashable, AsyncSubscriptionStream] = {}
        self._closed_exc: Optional[BaseException] = None
        self.server_info: Optional[dict] = None

    # -- lifecycle -----------------------------------------------------

    async def connect(self) -> dict:
        """Open the connection, HELLO, return the gateway's info dict."""
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._recv_task = asyncio.get_running_loop().create_task(self._recv())
        self.server_info = await self._request(
            lambda rid: encode_control(K_HELLO, (rid, self.client_id))
        )
        return self.server_info

    async def close(self) -> None:
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._recv_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:  # noqa: BLE001 - already dead
                pass
        self._fail_all(GatewayClosed("client closed"))

    def drop(self) -> None:
        """Abort the transport without goodbye — a simulated network cut.

        The gateway sees a reset and routes every stream through the
        server's ``disconnect`` path; a new client can then resume with
        each stream's :attr:`~AsyncSubscriptionStream.resume_token`."""
        if self._writer is not None:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()

    # -- requests ------------------------------------------------------

    def _next_rid(self) -> int:
        self._rid += 1
        return self._rid

    async def _send(self, payload: bytes) -> None:
        if self._closed_exc is not None:
            raise GatewayClosed(str(self._closed_exc))
        data = LENGTH_PREFIX.pack(len(payload)) + payload
        async with self._send_lock:
            self._writer.write(data)
            await self._writer.drain()

    async def _request(self, build) -> Any:
        rid = self._next_rid()
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            await self._send(build(rid))
            return await future
        finally:
            self._pending.pop(rid, None)

    async def write_batch(self, writes: Sequence) -> int:
        """Send one write batch; returns the count once the gateway has
        accepted it (fsynced, with a write-ahead log).  Its notifications
        follow asynchronously; a later read observes it."""
        items = writes if isinstance(writes, list) else list(writes)
        frame = WriteFrame.from_items(items) if items else None

        def build(rid: int) -> bytes:
            if frame is not None:
                return encode_write(rid, None, frame)
            return encode_pickle((OP_WRITE, rid, None, items))

        return await self._request(build)

    async def read_batch(self, nodes: Sequence) -> List[Any]:
        nodes = list(nodes)
        return await self._request(
            lambda rid: encode_control(K_READ, (rid, nodes))
        )

    async def subscribe(
        self,
        nodes: Optional[Sequence] = None,
        *,
        subscriber: Optional[Hashable] = None,
        resume_from: Optional[int] = None,
        auto_ack: bool = True,
    ) -> AsyncSubscriptionStream:
        """Open (or extend/resume) a notification stream.

        ``subscriber`` defaults to this client's ``client_id``.  With
        ``resume_from=N`` the stream replays every missed notification
        with stamp ``> N`` before splicing into live delivery; raises
        :class:`~repro.serve.journal.ResumeGapError` if the server no
        longer retains that window.
        """
        if subscriber is None:
            subscriber = self.client_id
        if subscriber is None:
            raise ValueError("no subscriber id: pass subscriber= or client_id=")
        stream = self._streams.get(subscriber)
        extends = stream is not None
        if not extends:
            stream = AsyncSubscriptionStream(self, subscriber, auto_ack)
            self._streams[subscriber] = stream
        stream.auto_ack = auto_ack
        nodes = list(nodes) if nodes is not None else None
        reply = await self._request(
            lambda rid: encode_control(
                K_SUBSCRIBE, (rid, subscriber, nodes, resume_from)
            )
        )
        stream.snapshot.update(reply["snapshot"])
        stream.last_stamp = reply["last_stamp"]
        if resume_from is not None:
            stream.resume_token = max(stream.resume_token, resume_from)
        elif not extends:  # an extended stream's unsent stamps still come
            stream.resume_token = max(stream.resume_token, reply["last_stamp"])
        return stream

    async def ack(self, subscriber: Hashable, stamp: int) -> int:
        """Acknowledge notifications through ``stamp`` (releases gateway
        flow-control credit and truncates the server-side journal)."""
        return await self._request(
            lambda rid: encode_control(K_ACK, (rid, subscriber, stamp))
        )

    # -- the receive task ----------------------------------------------

    async def _recv(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(LENGTH_PREFIX.size)
                (length,) = LENGTH_PREFIX.unpack(header)
                payload = await self._reader.readexactly(length)
                kind = payload[0]
                if kind == K_OK:
                    rid, result = decode_control(payload)
                    future = self._pending.get(rid)
                    if future is not None and not future.done():
                        future.set_result(result)
                elif kind == K_ERROR:
                    rid, ekind, message, subscriber = decode_control(payload)
                    exc = _map_error(ekind, message)
                    if rid is not None:
                        future = self._pending.get(rid)
                        if future is not None and not future.done():
                            future.set_exception(exc)
                    elif subscriber is not None:
                        stream = self._streams.get(subscriber)
                        if stream is not None:
                            stream._push(exc)
                elif kind == K_NOTES:
                    subscriber, item = decode_control(payload)
                    stream = self._streams.get(subscriber)
                    if stream is not None:
                        stream._push(item)
                        if stream.auto_ack:
                            await self._send(
                                encode_control(
                                    K_ACK, (None, subscriber, item.stamp)
                                )
                            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - connection loss
            self._fail_all(
                exc
                if isinstance(exc, GatewayClosed)
                else GatewayClosed(f"connection lost: {exc!r}")
            )

    def _fail_all(self, exc: BaseException) -> None:
        if self._closed_exc is None:
            self._closed_exc = exc
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(exc)
        for stream in self._streams.values():
            stream._push(exc)


class SyncSubscriptionStream:
    """Blocking facade over :class:`AsyncSubscriptionStream`."""

    def __init__(self, client: "EAGrClient",
                 stream: AsyncSubscriptionStream) -> None:
        self._client = client
        self._stream = stream
        self.subscriber = stream.subscriber

    @property
    def snapshot(self) -> Dict[Any, Any]:
        return self._stream.snapshot

    @property
    def resume_token(self) -> int:
        return self._stream.resume_token

    def get(self, timeout: Optional[float] = None) -> Optional[Notification]:
        """Next notification, blocking up to ``timeout``; ``None`` on
        timeout.  Raises :class:`GatewayClosed` if the connection died."""
        return self._client._run(self._stream.get(timeout))

    def poll(self) -> List[Notification]:
        return self._client._run(self._stream.poll())

    def ack(self, stamp: Optional[int] = None) -> None:
        self._client._run(self._stream.ack(stamp))


class EAGrClient:
    """Synchronous gateway client: ``EAGrServer``'s surface over TCP.

    Runs an asyncio loop on a daemon thread and bridges every call with
    ``run_coroutine_threadsafe``.  Connects in the constructor::

        client = EAGrClient(host, port, client_id="dash-1")
        client.write_batch([(u, v, 1.0, ts)])
        stream = client.subscribe([ego])
        note = stream.get(timeout=5.0)
        client.close()

    Also usable as a context manager.  Thread-safe: calls from multiple
    threads serialize through the loop.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: Optional[Hashable] = None,
        connect_timeout: float = 30.0,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="eagr-client", daemon=True
        )
        self._thread.start()
        self._async = AsyncEAGrClient(host, port, client_id=client_id)
        self._closed = False
        try:
            self.server_info = self._run(
                self._async.connect(), timeout=connect_timeout
            )
        except BaseException:
            self.close()
            raise

    def _run(self, coro, timeout: Optional[float] = None) -> Any:
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    # -- surface -------------------------------------------------------

    def write_batch(self, writes: Sequence) -> int:
        return self._run(self._async.write_batch(writes))

    def read_batch(self, nodes: Sequence) -> List[Any]:
        return self._run(self._async.read_batch(nodes))

    def subscribe(
        self,
        nodes: Optional[Sequence] = None,
        *,
        subscriber: Optional[Hashable] = None,
        resume_from: Optional[int] = None,
        auto_ack: bool = True,
    ) -> SyncSubscriptionStream:
        stream = self._run(
            self._async.subscribe(
                nodes,
                subscriber=subscriber,
                resume_from=resume_from,
                auto_ack=auto_ack,
            )
        )
        return SyncSubscriptionStream(self, stream)

    def ack(self, subscriber: Hashable, stamp: int) -> int:
        return self._run(self._async.ack(subscriber, stamp))

    def drop(self) -> None:
        """Abort the TCP transport (test helper: simulated network cut)."""
        self._loop.call_soon_threadsafe(self._async.drop)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._run(self._async.close(), timeout=10.0)
        except Exception:  # noqa: BLE001 - connection already gone
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        # run_forever has returned; release the loop's resources.
        if not self._loop.is_running():
            self._loop.close()

    def __enter__(self) -> "EAGrClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
