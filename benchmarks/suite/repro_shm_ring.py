"""Reproducer of the bug that keeps the suite off the default transport.

    python3 benchmarks/suite/repro_shm_ring.py      # exit 1 = bug present

``repro.serve.shm.ShmRing`` stores its 64-bit cursors with
``struct.Struct("<q").pack_into``.  CPython's ``pack_into`` first fills
the target bytes with zeros and then writes the value, so a process that
loads the cursor between the two sees 0.  The consumer's ``try_pop``
compares ``head`` with such a ``tail``, takes the ring for non-empty and
decodes whatever bytes lie at ``head``: a stale payload read as a length.
In a server the shard worker then dies in ``frames.decode`` and every
later call raises ``ServeError``.

One producer process and one consumer process on a bare ring hit it
within a second or two; a two-shard server of this suite on the default
transport hit it once in about 130 runs.  A benchmark whose workloads
must never fail cannot run on that, so ``wl_serve.TRANSPORT``
is ``"queue"`` until the ring publishes its cursors with single stores
(``memoryview.cast("q")[slot] = value`` does); then it goes back to
``"auto"`` and the baseline is measured anew.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

_SEQ = struct.Struct("<q")


def _frame(k: int) -> bytes:
    """Frame ``k``: its number, then a length and a fill byte that follow
    from the number, so the consumer can tell a stale frame from the next."""
    return _SEQ.pack(k) + bytes([k % 251]) * ((k % 97) * 13)


def _consume(name: str, seconds: float, out) -> None:
    from repro.serve.shm import ShmRing

    ring = ShmRing(name, create=False)
    try:
        expect = 0
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            try:
                payload = ring.try_pop()
            except (struct.error, ValueError, IndexError) as exc:
                out.put(f"frame {expect}: try_pop raised {exc!r}")
                return
            if payload is None:
                continue
            if payload != _frame(expect):
                out.put(f"frame {expect}: popped {len(payload)} bytes that are not frame {expect}")
                return
            expect += 1
        out.put(None)
    finally:
        ring.close()


def corruption(seconds: float = 2.0) -> Optional[str]:
    """Push frames through a bare ring for ``seconds``; returns what the
    consumer saw go wrong, or ``None`` if every frame arrived intact."""
    from repro.serve.shm import ShmRing

    context = multiprocessing.get_context("spawn")
    ring = ShmRing(f"eagr-suite-repro-{os.getpid()}", capacity=1 << 16, create=True)
    try:
        out = context.Queue()
        consumer = context.Process(target=_consume, args=(ring.name, seconds, out))
        consumer.start()
        try:
            k = 0
            while consumer.is_alive():
                if ring.try_push(_frame(k)):
                    k += 1
            verdict = out.get(timeout=10)
        finally:
            consumer.join(timeout=10)
            if consumer.is_alive():
                consumer.kill()
                consumer.join()
        return verdict
    finally:
        ring.unlink()


if __name__ == "__main__":
    found = corruption()
    print(f"ShmRing corrupted: {found}" if found else "ShmRing: every frame arrived intact")
    sys.exit(1 if found else 0)
