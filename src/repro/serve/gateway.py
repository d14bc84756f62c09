"""The serve tier's network edge: an asyncio TCP gateway over EAGrServer.

Until this module, every "client" of the serving stack was a Python
caller inside the front-end's address space.  :class:`GatewayServer`
turns the engine-with-a-server-shaped-API into a system with an actual
edge: it owns (a reference to) an :class:`~repro.serve.server.EAGrServer`
and multiplexes many concurrent TCP connections onto it, speaking the
length-prefixed binary protocol of :mod:`repro.serve.frames` — write
batches ride the wire as the same ``K_WRITE`` payloads the shm ingress
ring carries, and subscription streams come back as pickled-to-raw-bytes
:class:`~repro.serve.frames.NoteFrame` batches.  One gateway, one event
loop thread, no thread-per-connection, no thread-per-subscription.

Wire protocol (see ``PERFORMANCE.md`` for the frame table)::

    frame   := uint32 LE payload length | payload
    payload := kind byte | body

``K_WRITE``/``K_PICKLE`` payloads are write batches (the client's request
id rides the header's ``seq`` slot); ``K_HELLO``/``K_SUBSCRIBE``/
``K_READ``/``K_ACK`` are client control frames, ``K_OK``/``K_ERROR``
replies and ``K_NOTES`` the server-push stream.  A frame that does not
decode — a ``K_WRITE`` whose length disagrees with its row count, a
control body of the wrong shape, an unpicklable ``K_PICKLE`` — is a
protocol error: the gateway answers ``K_ERROR``, counts it in
``gw_protocol_errors`` and hangs up.

Control bodies (and ``K_PICKLE`` write batches) are **pickled**, and
unpickling runs code the sender chooses: the gateway is a
trusted-perimeter edge — the same trust domain as the shard transports —
not an internet-facing protocol.  Listen only on trusted interfaces; the
default host is ``127.0.0.1``.

The ``K_OK`` of a write means *accepted*: routed and logged by
:meth:`EAGrServer.accept`, and fsynced when the server has a write-ahead
log.  The shard apply and the notifications it triggers follow
asynchronously (the server's background flusher runs them); a read sent
after the ``K_OK`` still observes the write.

Flow control is the server's journal, not a buffer in the gateway.
Each connection has a bounded in-flight budget (``max_inflight_bytes``):
notification bytes written to the socket count against it and an
``K_ACK`` from the client releases them.  When a slow consumer exhausts
the budget the gateway **pauses** its streams — it stops polling them;
the journals, bounded by ``journal_capacity``, keep recording — and
**resumes** with ``subscribe(resume_from=last_sent)`` once acks drain
the budget below the low-water mark.  A paused stream is
indistinguishable from a slow network: gap-free, duplicate-free, and
the gateway's memory stays O(connections × max_inflight_bytes) no matter
how far behind a consumer falls.  A pause or a slow socket that outlives
the journal's retention window surfaces as a ``ResumeGapError`` error
frame — never a silent gap.

A dropped socket goes through :meth:`EAGrServer.disconnect`: the live
handles are cut off but the journals keep recording, so a client that
reconnects and subscribes with its resume token (the last stamp it saw)
continues exactly where the connection died.
"""

from __future__ import annotations

import asyncio
import threading
import time as _time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.core.statestore import WriteFrame
from repro.serve.frames import (
    K_ACK,
    K_ERROR,
    K_HELLO,
    K_NOTES,
    K_OK,
    K_PICKLE,
    K_READ,
    K_SUBSCRIBE,
    K_WRITE,
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    WRITE_HEADER,
    decode,
    decode_control,
    encode_control,
    frame_bytes,
)
from repro.serve.journal import ResumeGapError
from repro.serve.messages import OP_WRITE
from repro.serve.server import EAGrServer, ServeError


class GatewayError(ServeError):
    """A protocol violation or gateway-side failure."""


class _Stream:
    """One subscriber's server-push stream over one connection."""

    __slots__ = (
        "subscriber",
        "subscription",
        "lock",
        "paused",
        "dead",
        "last_sent",
        "ledger",
    )

    def __init__(self, subscriber: Hashable) -> None:
        self.subscriber = subscriber
        self.subscription = None
        #: serializes resume/subscribe transitions on this stream.
        self.lock = asyncio.Lock()
        self.paused = False
        #: set when a resume hit a journal gap: the client must
        #: re-subscribe explicitly (it was told so via K_ERROR).
        self.dead = False
        #: last stamp written to the socket — the resume cursor.
        self.last_sent = 0
        #: (stamp, wire bytes) per sent item, released by client acks.
        self.ledger = deque()


class _Connection:
    """Per-socket state (all mutation happens on the loop thread)."""

    __slots__ = (
        "reader",
        "writer",
        "streams",
        "inflight",
        "send_lock",
        "closed",
        "default_subscriber",
        "peer",
        "wake",
        "armed",
        "pump",
    )

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.streams: Dict[Hashable, _Stream] = {}
        #: notification bytes on the wire but not yet acked.
        self.inflight = 0
        self.send_lock = asyncio.Lock()
        #: the pump's wake-up, and whether one is already on its way:
        #: delivery threads set ``armed`` and schedule ``wake.set`` only
        #: when it was clear, the pump clears it before each drain.
        self.wake = asyncio.Event()
        self.armed = False
        #: the connection's one notification pump (started with its
        #: first stream).
        self.pump: Optional[asyncio.Task] = None
        self.closed = False
        self.default_subscriber: Optional[Hashable] = None
        try:
            self.peer = writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport quirk
            self.peer = None


class GatewayServer:
    """TCP front door for one :class:`~repro.serve.server.EAGrServer`.

    Parameters
    ----------
    server:
        The front-end to expose.  The gateway runs every write batch's
        :meth:`EAGrServer.accept` on one worker thread, so acceptance
        order across connections is the order that thread runs them in;
        reads, subscribes and acks run on a small shared pool.

    Notifications leave through **one pump per connection**, however
    many streams it carries: each stream's delivery hook arms at most one
    wake-up per connection per round (a flag the pump clears before it
    drains), and a round drains every stream and sends all their frames
    with one ``writelines`` and one ``drain`` — the per-stream ledgers,
    resume cursors and the connection's in-flight budget advance per
    item exactly as they would stream by stream.  A fire-and-forget
    ``K_ACK`` (request id ``None``) releases its credit at once, on the
    loop; the journal truncations it asks for are queued, and one
    executor call per round applies every queued one (the newest stamp
    per subscriber).  An ack with a request id still runs, and replies,
    on its own.
    host / port:
        Listen address.  ``port=0`` picks a free port; :meth:`start`
        returns the bound ``(host, port)``.  Control frames are pickled:
        bind a trusted interface only.
    max_inflight_bytes:
        Per-connection flow-control budget: notification bytes sent but
        not yet acked.  A connection at the budget has its streams
        paused (journal-backed) until acks drain it below
        ``low_water_bytes``.
    low_water_bytes:
        Resume threshold (default ``max_inflight_bytes // 2``).
    max_frame_bytes:
        Reject any wire frame larger than this (protocol error).
    """

    def __init__(
        self,
        server: EAGrServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight_bytes: int = 1 << 20,
        low_water_bytes: Optional[int] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        from repro.obs import declare_gateway_metrics

        if max_inflight_bytes < 1:
            raise ValueError("max_inflight_bytes must be >= 1")
        self._server = server
        self._host = host
        self._port = port
        self._max_inflight = max_inflight_bytes
        self._low_water = (
            max_inflight_bytes // 2 if low_water_bytes is None else low_water_bytes
        )
        self._max_frame = max_frame_bytes
        self._gm = declare_gateway_metrics(server._registry)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._asyncio_server = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._connections: Set[_Connection] = set()
        self.address: Optional[Tuple[str, int]] = None
        self._closed = False
        # One writer thread: acceptance order across every connection is
        # the order this executor runs them in.
        self._write_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="eagr-gw-write"
        )
        self._call_pool = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="eagr-gw-call"
        )
        #: fire-and-forget acks not yet applied: subscriber -> stamp, and
        #: whether the call applying them is already scheduled.
        self._acks: Dict[Hashable, int] = {}
        self._acks_due = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start the event-loop thread, return ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(started,), name="eagr-gateway", daemon=True
        )
        self._thread.start()
        started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def _run(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self._host, self._port)
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self._startup_error = exc
            started.set()
            loop.close()
            return
        self._asyncio_server = server
        self.address = server.sockets[0].getsockname()[:2]
        started.set()
        try:
            loop.run_until_complete(self._stop.wait())
            loop.run_until_complete(self._shutdown())
        finally:
            loop.close()

    async def _shutdown(self) -> None:
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        for conn in list(self._connections):
            await self._teardown(conn)
        # Reap the per-connection reader tasks (and any stragglers) so
        # the loop closes without "Task was destroyed but it is pending".
        tasks = [
            task
            for task in asyncio.all_tasks(self._loop)
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def close(self) -> None:
        """Stop accepting, drop every connection, join the loop thread.

        Idempotent.  The underlying :class:`EAGrServer` is *not* closed —
        the gateway is a view over it, and journals keep recording so
        clients of a restarted gateway can resume."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._thread is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
            self._thread.join(timeout=10.0)
        self._write_pool.shutdown(wait=False)
        self._call_pool.shutdown(wait=False)

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connections(self) -> int:
        """Live connection count (approximate under churn)."""
        return len(self._connections)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self._gm["gw_connections_opened"].inc()
        self._gm["gw_connections_active"].add(1)
        try:
            while True:
                header = await reader.readexactly(LENGTH_PREFIX.size)
                (length,) = LENGTH_PREFIX.unpack(header)
                if length > self._max_frame:
                    self._gm["gw_protocol_errors"].inc()
                    await self._send_error(
                        conn, None, "GatewayError",
                        f"frame of {length} bytes exceeds the "
                        f"{self._max_frame}-byte bound",
                    )
                    break
                payload = await reader.readexactly(length)
                self._gm["gw_frames_in"].inc()
                self._gm["gw_bytes_in"].inc(LENGTH_PREFIX.size + length)
                try:
                    await self._dispatch(conn, payload)
                except ConnectionError:
                    raise
                except Exception as exc:  # noqa: BLE001 - a malformed frame
                    # Whatever did not decode or unpack: answered, counted
                    # and hung up on, like the oversized frame above.
                    self._gm["gw_protocol_errors"].inc()
                    await self._send_error(
                        conn, None, "GatewayError",
                        f"malformed frame: {type(exc).__name__}: {exc}",
                    )
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                await self._teardown(conn)
            except asyncio.CancelledError:
                # Shutdown's cancel sweep caught us mid-teardown; the
                # server-side disconnects it skipped are moot — the
                # journals outlive the gateway either way.
                pass

    async def _teardown(self, conn: _Connection) -> None:
        """Route a vanished client through the server's disconnect path:
        live handles are cut off, journals keep recording, and a later
        subscribe with the client's resume token replays the gap."""
        if conn.closed:
            return
        conn.closed = True
        self._connections.discard(conn)
        self._gm["gw_connections_active"].add(-1)
        if conn.pump is not None:
            conn.pump.cancel()
        for stream in conn.streams.values():
            subscription = stream.subscription
            stream.subscription = None
            if subscription is not None:
                subscription.on_delivery = None
            self._gm["gw_streams_active"].add(-1)
            try:
                await self._loop.run_in_executor(
                    self._call_pool, self._server.disconnect, stream.subscriber
                )
            except Exception:  # noqa: BLE001 - server may be closing too
                pass
        conn.streams.clear()
        try:
            conn.writer.close()
        except Exception:  # noqa: BLE001 - already dead
            pass

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, conn: _Connection, payload: bytes) -> None:
        kind = payload[0]
        if kind in (K_WRITE, K_PICKLE):
            await self._do_write(conn, payload)
        elif kind == K_HELLO:
            await self._do_hello(conn, decode_control(payload))
        elif kind == K_SUBSCRIBE:
            await self._do_subscribe(conn, decode_control(payload))
        elif kind == K_READ:
            await self._do_read(conn, decode_control(payload))
        elif kind == K_ACK:
            await self._do_ack(conn, decode_control(payload))
        else:
            self._gm["gw_protocol_errors"].inc()
            await self._send_error(
                conn, None, "GatewayError", f"unknown frame kind {kind}"
            )

    async def _do_write(self, conn: _Connection, payload: bytes) -> None:
        if payload[0] == K_WRITE:
            # The header's row count must account for every byte: a
            # short or padded payload (or a count of -1, which
            # ``np.frombuffer`` reads as "the rest") is malformed.
            count = WRITE_HEADER.unpack_from(payload)[3]
            if len(payload) != WRITE_HEADER.size + count * WriteFrame.dtype.itemsize:
                raise GatewayError(
                    f"K_WRITE of {len(payload)} bytes does not hold {count} rows"
                )
        request = decode(payload)
        if (
            request.__class__ is not tuple
            or len(request) != 4
            or request[0] != OP_WRITE
        ):
            raise GatewayError("not a write request")
        _op, rid, _batch_no, items = request
        try:
            count = await self._loop.run_in_executor(
                self._write_pool, self._apply_write, items
            )
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            await self._send_error(conn, rid, type(exc).__name__, str(exc))
            return
        await self._send(conn, encode_control(K_OK, (rid, count)))

    def _apply_write(self, items: Any) -> int:
        # A decoded K_WRITE carries a WriteFrame view over the received
        # payload; accept takes it directly.  The K_OK goes out once the
        # batch is accepted; its fan-out runs on the server's flusher.
        if items.__class__ is not WriteFrame and items.__class__ is not list:
            items = list(items)
        return self._server.accept(items)

    async def _do_hello(self, conn: _Connection, body: Tuple) -> None:
        rid, client_id = body
        conn.default_subscriber = client_id
        await self._send(
            conn,
            encode_control(
                K_OK,
                (
                    rid,
                    {
                        "server": "eagr-gateway",
                        "num_shards": self._server.num_shards,
                    },
                ),
            ),
        )

    async def _do_read(self, conn: _Connection, body: Tuple) -> None:
        rid, nodes = body
        try:
            values = await self._loop.run_in_executor(
                self._call_pool, self._server.read_batch, list(nodes)
            )
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            await self._send_error(conn, rid, type(exc).__name__, str(exc))
            return
        await self._send(conn, encode_control(K_OK, (rid, values)))

    async def _do_subscribe(self, conn: _Connection, body: Tuple) -> None:
        rid, subscriber, nodes, resume_from = body
        if subscriber is None:
            subscriber = conn.default_subscriber
        if subscriber is None:
            await self._send_error(
                conn, rid, "GatewayError",
                "no subscriber id: pass one explicitly or HELLO first",
            )
            return
        stream = conn.streams.get(subscriber)
        if stream is None:
            stream = _Stream(subscriber)
            conn.streams[subscriber] = stream
            self._gm["gw_streams_active"].add(1)
            if conn.pump is None:
                conn.pump = self._loop.create_task(self._pump(conn))
        async with stream.lock:
            try:
                subscription = await self._loop.run_in_executor(
                    self._call_pool,
                    lambda: self._server.subscribe(
                        subscriber, nodes, resume_from
                    ),
                )
            except ResumeGapError as exc:
                self._gm["gw_resume_gaps"].inc()
                await self._send_error(
                    conn, rid, "ResumeGapError", str(exc), subscriber
                )
                return
            except Exception as exc:  # noqa: BLE001 - surfaced to the client
                await self._send_error(
                    conn, rid, type(exc).__name__, str(exc), subscriber
                )
                return
            last = self._server.last_stamp(subscriber)
            if resume_from is not None:
                stream.last_sent = resume_from
                stream.paused = False
            elif not stream.paused:
                # Fresh subscribe (or watch extension): anything already
                # unread on the subscription is about to be pumped;
                # the cursor trails the pump from here.
                stream.last_sent = min(stream.last_sent, last)
            # A paused stream stays paused: its handle's cursor passed
            # the remainder the pause dropped, which only the resume
            # from ``last_sent`` reads again.
            stream.dead = False
            if not stream.paused:
                self._attach(conn, stream, subscription)
        await self._send(
            conn,
            encode_control(
                K_OK,
                (
                    rid,
                    {
                        "snapshot": subscription.snapshot,
                        "last_stamp": last,
                        "resume_horizon": self._server.resume_horizon(
                            subscriber
                        ),
                    },
                ),
            ),
        )

    async def _do_ack(self, conn: _Connection, body: Tuple) -> None:
        rid, subscriber, stamp = body
        if subscriber is None:
            subscriber = conn.default_subscriber
        stream = conn.streams.get(subscriber)
        if stream is not None:
            released = 0
            ledger = stream.ledger
            while ledger and ledger[0][0] <= stamp:
                released += ledger.popleft()[1]
            conn.inflight -= released
        if rid is None:
            # Fire and forget: the credit is back, the truncation waits
            # for this round's one executor call.
            self._acks[subscriber] = max(stamp, self._acks.get(subscriber, stamp))
            if not self._acks_due:
                self._acks_due = True
                self._loop.create_task(self._apply_acks())
            await self._maybe_resume(conn)
            return
        try:
            dropped = await self._loop.run_in_executor(
                self._call_pool, self._server.ack, subscriber, stamp
            )
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            await self._send_error(conn, rid, type(exc).__name__, str(exc))
            return
        await self._send(conn, encode_control(K_OK, (rid, dropped)))
        await self._maybe_resume(conn)

    async def _apply_acks(self) -> None:
        """Apply every queued fire-and-forget ack in one executor call."""
        acks = self._acks
        self._acks = {}
        self._acks_due = False
        await self._loop.run_in_executor(self._call_pool, self._ack_all, acks)

    def _ack_all(self, acks: Dict[Hashable, int]) -> None:
        for subscriber, stamp in acks.items():
            try:
                self._server.ack(subscriber, stamp)
            except Exception:  # noqa: BLE001 - nobody asked for a reply
                pass

    # ------------------------------------------------------------------
    # the notification pump (one task per connection, event-driven)
    # ------------------------------------------------------------------

    def _attach(self, conn: _Connection, stream: _Stream, subscription) -> None:
        """Point the server's delivery hook at the connection's pump."""
        stream.subscription = subscription
        loop = self._loop
        wake = conn.wake

        def hook() -> None:
            if conn.armed:
                return  # this round's wake-up is already on its way
            conn.armed = True
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:  # loop closed: gateway shutting down
                pass

        subscription.on_delivery = hook
        # Cover deliveries that landed between subscribe() returning and
        # the hook attach: one unconditional wake-up.
        wake.set()

    async def _pump(self, conn: _Connection) -> None:
        try:
            while not conn.closed:
                await conn.wake.wait()
                conn.wake.clear()
                conn.armed = False
                # One round is one socket write: every stream drains, the
                # budget and each resume cursor advance per item, and the
                # frames leave together.
                frames = []
                notes = 0
                exhausted = False
                for stream in list(conn.streams.values()):
                    subscription = stream.subscription
                    if subscription is None:
                        continue  # paused or mid-transition
                    try:
                        items = subscription.poll_batch()
                    except ResumeGapError as exc:
                        # The socket was slower than the journal is long.
                        stream.subscription = None
                        subscription.on_delivery = None
                        await self._lost(conn, stream, exc)
                        continue
                    subscriber = stream.subscriber
                    ledger = stream.ledger
                    for item in items:
                        frame = frame_bytes(
                            encode_control(K_NOTES, (subscriber, item))
                        )
                        frames.append(frame)
                        stamp = item.stamp
                        ledger.append((stamp, len(frame)))
                        conn.inflight += len(frame)
                        stream.last_sent = stamp
                        notes += len(item) if hasattr(item, "__len__") else 1
                        if conn.inflight >= self._max_inflight:
                            exhausted = True
                            break
                    if exhausted:
                        break
                if frames:
                    await self._send_frames(conn, frames)
                    self._gm["gw_notes_sent"].inc(notes)
                if exhausted:
                    # Budget exhausted: drop the drained remainder
                    # (the resume reads it again from the journal)
                    # and pause every stream on this connection.
                    self._pause_all(conn)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, RuntimeError):
            # Socket died under the pump: the read loop (or close())
            # notices too; tear down once, here, if it hasn't.
            self._loop.create_task(self._teardown(conn))

    def _pause_all(self, conn: _Connection) -> None:
        """Stop polling every live stream.  No server call and no await:
        a subscribe or resume awaiting the server meanwhile sees the
        pause when it continues."""
        for stream in conn.streams.values():
            subscription = stream.subscription
            if subscription is not None:
                stream.paused = True
                stream.subscription = None
                subscription.on_delivery = None
                self._gm["gw_stream_pauses"].inc()

    async def _maybe_resume(self, conn: _Connection) -> None:
        if conn.inflight > self._low_water or conn.closed:
            return
        for stream in list(conn.streams.values()):
            if stream.paused:
                await self._resume_stream(conn, stream)

    async def _resume_stream(self, conn: _Connection, stream: _Stream) -> None:
        async with stream.lock:
            if not stream.paused or stream.dead or conn.closed:
                return
            resume_from = stream.last_sent
            try:
                subscription = await self._loop.run_in_executor(
                    self._call_pool,
                    lambda: self._server.subscribe(
                        stream.subscriber, None, resume_from
                    ),
                )
            except ResumeGapError as exc:
                await self._lost(conn, stream, exc)
                return
            except Exception:  # noqa: BLE001 - server closing
                return
            stream.paused = False
            self._gm["gw_stream_resumes"].inc()
            self._attach(conn, stream, subscription)

    async def _lost(self, conn: _Connection, stream: _Stream, exc) -> None:
        """The stream fell behind the journal's window: tell the client
        (it must re-subscribe and re-baseline), never deliver a hole."""
        self._gm["gw_resume_gaps"].inc()
        stream.paused = False
        stream.dead = True
        await self._send_error(
            conn, None, "ResumeGapError", str(exc), stream.subscriber
        )

    # ------------------------------------------------------------------
    # socket writes
    # ------------------------------------------------------------------

    async def _send(self, conn: _Connection, payload: bytes) -> None:
        await self._send_frames(conn, [frame_bytes(payload)])

    async def _send_frames(self, conn: _Connection, frames) -> None:
        """Write complete wire frames back to back: one lock hold, one
        ``writelines``, one ``drain`` (and one latency sample) however many."""
        t0 = _time.monotonic()
        async with conn.send_lock:
            conn.writer.writelines(frames)
            await conn.writer.drain()
        self._gm["gw_send_seconds"].observe(_time.monotonic() - t0)
        self._gm["gw_frames_out"].inc(len(frames))
        self._gm["gw_bytes_out"].inc(sum(map(len, frames)))

    async def _send_error(
        self,
        conn: _Connection,
        rid: Optional[int],
        kind: str,
        message: str,
        subscriber: Optional[Hashable] = None,
    ) -> None:
        try:
            await self._send(
                conn, encode_control(K_ERROR, (rid, kind, message, subscriber))
            )
        except (ConnectionError, RuntimeError):
            pass
