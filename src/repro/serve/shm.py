"""A single-producer / single-consumer byte ring in shared memory.

:class:`ShmRing` is a stand-alone primitive: no serve-tier path uses it
(the queue is the one shard transport, :mod:`repro.serve.transport`).
It stays because ``benchmarks/suite/repro_shm_ring.py`` and its test
push frames through a bare ring from two processes to show whether the
cursor publication tears; it goes when that reproducer does.

Frames are length-prefixed.  A frame's bytes are written first and the
``tail`` cursor — the publication point — is stored *after* them, so the
consumer never observes a partially written frame.  ``head`` and
``tail`` are monotone byte offsets in aligned int64 header slots, read
and written through a ``memoryview`` cast to ``"q"``: one aligned 8-byte
load or store each.  ``struct.pack_into`` would not do: it zero-fills
the slot before writing the value, and a concurrent reader can see the
zero.  The consumer advances ``head`` only after copying a frame out.

The creator owns the segment and unlinks it; the other side attaches by
name.  On Python >= 3.13 an attach opts out of the resource tracker; on
older versions its registration deduplicates with the creator's, so the
creator's one unlink retires it.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import Optional

#: Header int64 slots: capacity, head, tail.
_SLOT_CAPACITY = 0
_SLOT_HEAD = 1
_SLOT_TAIL = 2
_HEADER_BYTES = 3 * 8

_LEN = struct.Struct("<q")


class RingClosed(Exception):
    """Raised when operating on a closed (unmapped) ring."""


def _attach(name: str) -> shared_memory.SharedMemory:
    try:  # Python >= 3.13: attach without registering at all
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # older: the (deduplicated) registration stays
        return shared_memory.SharedMemory(name=name)


class ShmRing:
    """SPSC length-prefixed byte ring over a named shm segment.

    With ``create=True`` the segment is created with ``capacity`` data
    bytes (excluding the header); with ``create=False`` it is attached
    and the capacity read from its header.  A frame larger than the
    capacity is refused outright.
    """

    def __init__(self, name: str, capacity: int = 1 << 20, create: bool = True) -> None:
        if create:
            self._segment = shared_memory.SharedMemory(
                name=name, create=True, size=_HEADER_BYTES + capacity
            )
        else:
            self._segment = _attach(name)
        self._buf = self._segment.buf
        self._slots = self._buf[:_HEADER_BYTES].cast("q")
        if create:
            self._slots[_SLOT_CAPACITY] = capacity
            self._slots[_SLOT_HEAD] = 0
            self._slots[_SLOT_TAIL] = 0
        self.name = self._segment.name
        self.capacity = int(self._slots[_SLOT_CAPACITY])

    def _cursors(self):
        slots = self._slots
        if slots is None:
            raise RingClosed(f"ring {self.name} is closed")
        return slots

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

    def try_push(self, payload: bytes) -> bool:
        """Append one frame; ``False`` when the ring lacks space.

        An over-capacity frame raises ``ValueError``: it could never
        fit, so treating it as backpressure would livelock the caller.
        """
        slots = self._cursors()
        need = _LEN.size + len(payload)
        if need > self.capacity:
            raise ValueError(
                f"frame of {need} bytes exceeds ring capacity {self.capacity}"
            )
        tail = slots[_SLOT_TAIL]
        if self.capacity - (tail - slots[_SLOT_HEAD]) < need:
            return False
        self._write_at(tail, _LEN.pack(len(payload)))
        self._write_at(tail + _LEN.size, payload)
        slots[_SLOT_TAIL] = tail + need  # publication point
        return True

    def try_pop(self) -> Optional[bytes]:
        """Consume one frame, or ``None`` when the ring is empty."""
        slots = self._cursors()
        head = slots[_SLOT_HEAD]
        if head == slots[_SLOT_TAIL]:
            return None
        (length,) = _LEN.unpack(self._read_at(head, _LEN.size))
        payload = self._read_at(head + _LEN.size, length)
        slots[_SLOT_HEAD] = head + _LEN.size + length
        return payload

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        self._slots.release()
        self._slots = self._buf = None
        segment.close()

    def unlink(self) -> None:
        """Creator side: destroy the segment, then close (idempotent)."""
        segment = self._segment
        if segment is None:
            return
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self.close()
