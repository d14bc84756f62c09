"""The stand-alone shared-memory byte ring (``repro.serve.shm.ShmRing``).

No serve path runs on the ring; these tests keep the primitive the
benchmark suite's cursor-tear reproducer drives honest: FIFO order
across wraparound, backpressure without loss, and cursors that never
tear between two processes.
"""

import os
import pickle
import struct
import time

import pytest


class TestShmRing:
    def test_fifo_and_wraparound(self):
        from repro.serve.shm import ShmRing

        ring = ShmRing("eagr_test_ring_a", capacity=256, create=True)
        try:
            consumer = ShmRing("eagr_test_ring_a", create=False)
            assert consumer.capacity == 256
            sent = []
            # far more traffic than capacity: forces many wraparounds
            for round_no in range(50):
                frame = pickle.dumps(("frame", round_no, "x" * (round_no % 40)))
                assert ring.try_push(frame)
                sent.append(frame)
                if round_no % 3 == 2:  # drain a few to advance head
                    while True:
                        got = consumer.try_pop()
                        if got is None:
                            break
                        assert got == sent.pop(0)
            while sent:
                assert consumer.try_pop() == sent.pop(0)
            assert consumer.try_pop() is None
            consumer.close()
        finally:
            ring.unlink()

    def test_backpressure_and_oversize(self):
        from repro.serve.shm import RingClosed, ShmRing

        ring = ShmRing("eagr_test_ring_b", capacity=64, create=True)
        try:
            assert ring.try_push(b"x" * 40)
            assert not ring.try_push(b"y" * 40)  # full: refuse, never drop
            assert ring.try_pop() == b"x" * 40
            assert ring.try_push(b"y" * 40)  # space reclaimed
            with pytest.raises(ValueError):
                ring.try_push(b"z" * 100)  # could never fit
        finally:
            ring.unlink()
        with pytest.raises(RingClosed):
            ring.try_pop()
        ring.unlink()  # idempotent

    def test_cursor_publication_never_tears_across_processes(self):
        """A producer and a consumer process hammer the cursors: the
        consumer must pop every pushed frame intact.  Cursors are
        published with one aligned 8-byte store; ``struct.pack_into``
        zero-fills the slot first, so the other side could load 0
        mid-store — a consumer seeing ``tail == 0`` takes the ring for
        non-empty and decodes stale bytes as a frame."""
        import multiprocessing

        from repro.serve.shm import ShmRing

        context = multiprocessing.get_context("spawn")
        ring = ShmRing(f"eagr_test_ring_tear_{os.getpid()}", capacity=1 << 16)
        try:
            verdict = context.Queue()
            consumer = context.Process(
                target=_pop_numbered_frames, args=(ring.name, 1.0, verdict)
            )
            consumer.start()
            try:
                pushed = 0
                while consumer.is_alive():
                    if ring.try_push(_numbered_frame(pushed)):
                        pushed += 1
                found = verdict.get(timeout=10)
            finally:
                consumer.join(timeout=10)
                if consumer.is_alive():
                    consumer.kill()
                    consumer.join()
            assert found is None, found
            assert pushed > 1000  # the race window was actually exercised
        finally:
            ring.unlink()


def _numbered_frame(k: int) -> bytes:
    """Frame ``k``: its number, then a length and fill byte derived from
    it, so a stale or torn frame can never pass for the expected one."""
    return k.to_bytes(8, "little") + bytes([k % 251]) * ((k % 97) * 13)


def _pop_numbered_frames(name: str, seconds: float, verdict) -> None:
    """Consumer process of the tear test: pops for ``seconds`` and
    reports the first frame that is not the next numbered one."""
    from repro.serve.shm import ShmRing

    ring = ShmRing(name, create=False)
    try:
        expect = 0
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            try:
                payload = ring.try_pop()
            except (struct.error, ValueError, IndexError) as exc:
                verdict.put(f"frame {expect}: try_pop raised {exc!r}")
                return
            if payload is None:
                continue
            if payload != _numbered_frame(expect):
                verdict.put(f"frame {expect}: popped {len(payload)} stale bytes")
                return
            expect += 1
        verdict.put(None)
    finally:
        ring.close()
