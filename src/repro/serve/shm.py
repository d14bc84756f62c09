"""Shared-memory transport primitives for the serving tier.

:class:`ShmRing` is the per-shard **ingress ring**: a single-producer /
single-consumer byte ring in a named ``multiprocessing.shared_memory``
segment.  The front-end (one logical producer; concurrent server threads
serialize on the transport's push lock) appends length-prefixed request
frames; the shard worker polls and consumes them in FIFO order —
the same total order the queue transport's request pipe gives, minus
its pipe syscalls and per-message wakeups.

Framing is seqlock-style: a frame's payload bytes are written first and
the ring's ``tail`` cursor — the publication point — is stored *after*
them, so the consumer never observes a partially written frame (``head``
and ``tail`` are monotone byte offsets in aligned int64 header slots,
read and written through a ``memoryview`` cast to ``"q"``: one aligned
8-byte load or store each, a single machine access on the supported
platforms — ``struct.pack_into`` would not do, it zero-fills the slot
before writing the value and a concurrent reader can see the zero).
The consumer advances ``head`` only after fully copying a frame out.

The header also carries the shard's **applied watermark**: after applying
a write batch the worker publishes ``(applied batch_no, runtime write
stamp)`` here, which is what lets the front-end (a) answer reads from the
shard's shared value columns only once every batch it routed has landed
(read-your-writes without a queue round-trip) and (b) run ``drain``-style
barriers against a dead-cheap shared counter instead of a request/reply
exchange.

Lifecycle mirrors the value store: the front-end creates rings (and
unlinks them at close — crash-safe cleanup lives with the front-end), the
worker attaches by name; :meth:`ShmRing.reset` rewinds the cursors when a
shard is restarted so the replacement worker starts from an empty ring.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.core.statestore import attach_segment, create_segment, unlink_segment

#: Header int64 slots: capacity, head, tail, applied batch_no, write
#: stamp, consumer-waiting flag.
_SLOT_CAPACITY = 0
_SLOT_HEAD = 1
_SLOT_TAIL = 2
_SLOT_APPLIED = 3
_SLOT_STAMP = 4
_SLOT_WAITING = 5
_SLOT_PUSHED = 6
_SLOT_POPPED = 7
_HEADER_SLOTS = 8
_HEADER_BYTES = _HEADER_SLOTS * 8

_LEN = struct.Struct("<q")


class RingClosed(Exception):
    """Raised when operating on a closed (unmapped) ring."""


class ShmRing:
    """SPSC length-prefixed byte ring over a named shm segment.

    Parameters
    ----------
    name:
        Segment name.  With ``create=True`` the segment is created (the
        front-end side); with ``create=False`` it is attached (the worker
        side).
    capacity:
        Data-area bytes (excluding the header).  The ring refuses frames
        larger than the capacity outright — the caller's coalescing /
        blocking logic handles sustained overload, exactly as it does for
        a full request queue.
    """

    def __init__(self, name: str, capacity: int = 1 << 20, create: bool = True) -> None:
        if create:
            self._segment = create_segment(name, _HEADER_BYTES + capacity)
        else:
            self._segment = attach_segment(name)
        self._buf = self._segment.buf
        #: the header as int64 slots (see the module docstring).
        self._slots = self._buf[:_HEADER_BYTES].cast("q")
        if create:
            self._slots[_SLOT_CAPACITY] = capacity
            self.reset()
        else:
            capacity = self._slots[_SLOT_CAPACITY]
        self.name = self._segment.name
        self.capacity = int(capacity)

    # -- header accessors ---------------------------------------------------

    def _load(self, slot: int) -> int:
        slots = self._slots
        if slots is None:
            raise RingClosed(f"ring {self.name} is closed")
        return slots[slot]

    def _store(self, slot: int, value: int) -> None:
        slots = self._slots
        if slots is None:
            raise RingClosed(f"ring {self.name} is closed")
        slots[slot] = value

    def publish_applied(self, batch_no: int, stamp: int) -> None:
        """Worker side: announce the highest processed batch, plus the
        runtime's write stamp (diagnostic — correlates the watermark with
        notification ``batch`` tags; the read barrier consumes only the
        batch number, the pair is not read atomically)."""
        self._store(_SLOT_STAMP, stamp)
        self._store(_SLOT_APPLIED, batch_no)

    def applied(self) -> int:
        """Front-end side: the shard's applied-batch watermark (-1 while
        the worker is still booting)."""
        return self._load(_SLOT_APPLIED)

    def stamp(self) -> int:
        """The shard runtime's published global write stamp."""
        return self._load(_SLOT_STAMP)

    @property
    def pending_frames(self) -> int:
        """Frames currently enqueued.

        The transport bounds this at its queue depth: an effectively
        bottomless byte ring would remove the backpressure that makes the
        front-end *coalesce* consecutive batches for a lagging shard, and
        per-batch fixed costs (unpickle, plan dispatch, scatter setup)
        would then dominate the worker — bounded in-flight frames keep
        the queue transport's batching behavior, byte capacity merely
        guards against jumbo frames.
        """
        return self._load(_SLOT_PUSHED) - self._load(_SLOT_POPPED)

    def depth_stats(self) -> dict:
        """One-shot occupancy snapshot for the metrics plane.

        Reads only header slots — no lock, no effect on either party.
        The fields may be mutually torn by a concurrent push/pop; each is
        individually consistent, which is all a gauge needs.
        """
        pushed = self._load(_SLOT_PUSHED)
        popped = self._load(_SLOT_POPPED)
        return {
            "depth_frames": pushed - popped,
            "depth_bytes": self._load(_SLOT_TAIL) - self._load(_SLOT_HEAD),
            "capacity_bytes": self.capacity,
            "pushed": pushed,
            "popped": popped,
            "consumer_waiting": self._load(_SLOT_WAITING) != 0,
        }

    def set_waiting(self, waiting: bool) -> None:
        """Consumer side: announce (before blocking on the doorbell) or
        retract the about-to-park state.  The consumer must re-check the
        ring *after* setting this — producer-side ``waiting()`` checks
        plus that re-check close the missed-wakeup window (the doorbell
        poll timeout is the final backstop)."""
        self._store(_SLOT_WAITING, 1 if waiting else 0)

    def waiting(self) -> bool:
        """Producer side: is the consumer parked (or parking) on the
        doorbell?"""
        return self._load(_SLOT_WAITING) != 0

    # -- data area ----------------------------------------------------------

    def _write_at(self, position: int, data: bytes) -> None:
        offset = position % self.capacity
        end = offset + len(data)
        base = _HEADER_BYTES
        if end <= self.capacity:
            self._buf[base + offset : base + end] = data
        else:
            split = self.capacity - offset
            self._buf[base + offset : base + self.capacity] = data[:split]
            self._buf[base : base + end - self.capacity] = data[split:]

    def _read_at(self, position: int, length: int) -> bytes:
        offset = position % self.capacity
        end = offset + length
        base = _HEADER_BYTES
        if end <= self.capacity:
            return bytes(self._buf[base + offset : base + end])
        split = self.capacity - offset
        return bytes(self._buf[base + offset : base + self.capacity]) + bytes(
            self._buf[base : base + end - self.capacity]
        )

    # -- producer -----------------------------------------------------------

    def try_push(self, payload: bytes) -> bool:
        """Append one frame; ``False`` when the ring lacks space.

        An over-capacity frame raises ``ValueError`` — it could *never*
        fit, so treating it as backpressure would livelock the caller.
        """
        if self._buf is None:
            raise RingClosed(f"ring {self.name} is closed")
        need = _LEN.size + len(payload)
        if need > self.capacity:
            raise ValueError(
                f"frame of {need} bytes exceeds ring capacity {self.capacity}"
            )
        head = self._load(_SLOT_HEAD)
        tail = self._load(_SLOT_TAIL)
        if self.capacity - (tail - head) < need:
            return False
        self._write_at(tail, _LEN.pack(len(payload)))
        self._write_at(tail + _LEN.size, payload)
        self._store(_SLOT_PUSHED, self._load(_SLOT_PUSHED) + 1)
        self._store(_SLOT_TAIL, tail + need)  # publication point
        return True

    # -- consumer -----------------------------------------------------------

    def try_pop(self) -> Optional[bytes]:
        """Consume one frame, or ``None`` when the ring is empty."""
        head = self._load(_SLOT_HEAD)
        if head == self._load(_SLOT_TAIL):
            return None
        (length,) = _LEN.unpack(self._read_at(head, _LEN.size))
        payload = self._read_at(head + _LEN.size, length)
        self._store(_SLOT_POPPED, self._load(_SLOT_POPPED) + 1)
        self._store(_SLOT_HEAD, head + _LEN.size + length)
        return payload

    # There is deliberately no blocking ``pop``: the one blessed consumer
    # pattern is ``try_pop`` plus the transport's doorbell pipe (see
    # ``repro.serve.transport``) — kernel-blocking, not poll-burning,
    # because shard workers share cores with the producing front-end.

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Rewind to empty (front-end, with no worker attached running)."""
        self._store(_SLOT_HEAD, 0)
        self._store(_SLOT_TAIL, 0)
        self._store(_SLOT_APPLIED, -1)
        self._store(_SLOT_STAMP, 0)
        self._store(_SLOT_WAITING, 0)
        self._store(_SLOT_PUSHED, 0)
        self._store(_SLOT_POPPED, 0)

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        self._slots.release()
        self._slots = self._buf = None
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view escaped
            pass

    def unlink(self) -> None:
        """Destroy the segment (front-end cleanup; idempotent)."""
        name = self.name
        self.close()
        unlink_segment(name)
