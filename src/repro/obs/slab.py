"""Shared-memory metrics slab: seqlock-published, scraped with zero IPC.

Each shard worker owns a :class:`MetricsSlab` — a small named
``multiprocessing.shared_memory`` segment carrying the worker's flat
metric value array (see ``registry.py``).  The segment is created and
later unlinked by the **front-end** (the same exactly-once-by-name
discipline as the ingress rings and value stores — workers may die by
``kill -9`` and must never be the party responsible for cleanup); the
worker attaches, and after applying each batch group bulk-publishes its
registry values under a seqlock.  The front-end scrapes every shard by
reading the slabs directly: no control message, no queue round-trip, no
perturbation of the worker being observed.

Layout (little-endian)::

    [magic i64][n_slots i64][seq i64][reserved i64][values f64 * n_slots]

The seqlock follows ``SharedColumnarStore``: the publisher bumps ``seq``
to odd, writes the values, bumps it to even.  A scraper samples ``seq``,
copies, re-samples; odd or changed means a torn read and it retries (a
handful of attempts, then returns the last copy — metrics are
monotone-ish and a rare torn scrape is self-correcting on the next
pass).
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.statestore import attach_segment, create_segment, unlink_segment

_MAGIC = 0x4D455452  # "METR"
_HEADER = struct.Struct("<qqqq")
_SEQ_SLOT = 2  # index of the seq slot in the header's int64 view
_DATA_OFF = _HEADER.size
_SCRAPE_ATTEMPTS = 8


class MetricsSlab:
    """One shard's metrics segment; create on the front-end, attach in the worker."""

    def __init__(self, shm, n_slots, owner):
        self._shm = shm
        self.n_slots = int(n_slots)
        self._owner = bool(owner)
        self._closed = False
        # The seqlock word is read and written through an int64 view: one
        # aligned 8-byte access each.  ``struct.pack_into`` zero-fills the
        # slot before writing the value, so a scraper could load an even
        # 0 in the middle of a publish and accept a torn copy.
        self._header = shm.buf[:_DATA_OFF].cast("q")

    # -- lifecycle ----------------------------------------------------
    @classmethod
    def create(cls, name, n_slots):
        """Front-end: create (or adopt a stale same-name) segment."""
        size = _DATA_OFF + int(n_slots) * 8
        shm = create_segment(name, size)
        _HEADER.pack_into(shm.buf, 0, _MAGIC, int(n_slots), 0, 0)
        shm.buf[_DATA_OFF:_DATA_OFF + int(n_slots) * 8] = b"\x00" * (int(n_slots) * 8)
        return cls(shm, n_slots, owner=True)

    @classmethod
    def attach(cls, name, n_slots=None):
        """Worker (or out-of-process scraper): attach to an existing slab."""
        shm = attach_segment(name)
        magic, declared, _seq, _res = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValueError(f"segment {name!r} is not a metrics slab")
        if n_slots is not None and int(n_slots) != declared:
            shm.close()
            raise ValueError(
                f"metrics slab {name!r} declares {declared} slots, caller expects {n_slots}"
            )
        return cls(shm, declared, owner=False)

    @property
    def name(self):
        return self._shm.name

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._header.release()
        self._shm.close()

    def unlink(self):
        unlink_segment(self._shm.name)

    # -- seqlock ------------------------------------------------------
    def _seq(self):
        return self._header[_SEQ_SLOT]

    def _set_seq(self, v):
        self._header[_SEQ_SLOT] = v

    def publish(self, values):
        """Publisher side: bulk-write the flat value array under the seqlock."""
        if self._closed:
            return
        seq = self._seq()
        self._set_seq(seq + 1)  # odd: write in progress
        self._view()[:] = values
        self._set_seq(seq + 2)  # even: stable

    def scrape(self):
        """Reader side: seqlock-consistent copy of the value array.

        Returns a numpy array.  After ``_SCRAPE_ATTEMPTS`` torn reads the
        last copy is returned anyway — a metrics scrape must never wedge
        behind a busy publisher.
        """
        if self._closed:
            return np.zeros(self.n_slots, dtype=np.float64)
        out = None
        for _ in range(_SCRAPE_ATTEMPTS):
            s0 = self._seq()
            if s0 & 1:
                continue
            out = self._view().copy()
            if self._seq() == s0:
                return out
        return out if out is not None else self._view().copy()

    def _view(self):
        return np.frombuffer(
            self._shm.buf, dtype=np.float64, count=self.n_slots, offset=_DATA_OFF
        )
