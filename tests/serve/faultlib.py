"""Fault-injection and determinism helpers for the serve-layer tests.

The serving tier's interesting behavior lives in its failure windows:
a worker dying between *applying* a batch and *acknowledging* it, a
subscriber's queue severed with notifications in flight, a shard
restarted from a stale checkpoint.  Sleeping and hoping the scheduler
lands in the window is both flaky and slow; everything here is
**deterministic or condition-based** instead:

* :func:`arm_kill_point` / :func:`disarm` — configure a shard worker to
  kill itself on receiving (``before``) or after applying (``after``)
  its N-th write batch, *counted after the redo-log replay* that arming
  performs, so "die on the 2nd post-restart batch" means exactly that
  regardless of how much history replays.  Works on both executors: the
  worker process ``os._exit``\\ s (no finalizers — a genuine unclean
  death), the in-process executor discards its host.
* :func:`kill_shard` — immediate external kill (SIGTERM-style).
* :func:`wait_until` / :func:`wait_dead` / :func:`collect` — predicate
  and queue-driven waits with hard deadlines; no bare sleeps.
* :func:`deadline` — a SIGALRM watchdog so a hung queue turns into a
  clear test failure in seconds instead of a stalled CI job (the
  ``tests/serve`` conftest arms it around every test).
* :func:`refuse_submits` — backpressure injection: make an executor
  refuse its next N non-blocking submits (the coalescing path).
* disk-fault injection — :func:`shear_tail` (torn write: drop the last N
  bytes of a file, as a crash mid-``write`` would), :func:`flip_byte`
  (silent media corruption at an offset, which CRC framing must catch),
  :func:`wal_files` (a WAL directory's segment files, for size and
  layout assertions).  The WAL's own ``faults`` dict covers the
  *in-process* seams (fsync raising, crash-mid-compaction); these
  helpers corrupt the bytes **at rest**, after the writer is gone.
* :func:`shm_segment_names` / :func:`assert_no_segments` — enumerate a
  server's named shared-memory segments (ingress rings + value stores)
  and assert they are gone after teardown: the leak check for the
  zero-copy transport's front-end-owned cleanup.
  :func:`unlink_orphaned_segments` is the cleanup a SIGKILLed front end
  never ran: every segment named for its pid, unlinked by name.
* stream verifiers — :func:`assert_contiguous`,
  :func:`assert_spliced_stream`, :func:`assert_subsequence`: the
  delivery-contract checks (monotone gap-free stamps, exactly-once
  after resume, transitions consistent with an oracle replay).

A typical scripted crash::

    arm_kill_point(server, shard_id=0, after=2, rng_tag="seed 7")
    server.write_batch(...)          # worker applies 2 batches, dies
    wait_dead(server, 0)             # deterministic: no sleeps
    disarm(server, 0)
    server.restart_shard(0)          # checkpoint + redo-log recovery
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

DEFAULT_TIMEOUT = 30.0

#: Where POSIX shared-memory segments appear as files (Linux).
SHM_DIR = "/dev/shm"


class FaultTimeout(AssertionError):
    """A condition-based wait ran out of time (the condition, not the
    scheduler, is wrong — the message says which one)."""


# ---------------------------------------------------------------------------
# condition-based waiting
# ---------------------------------------------------------------------------


def wait_until(
    predicate: Callable[[], bool],
    timeout: float = DEFAULT_TIMEOUT,
    interval: float = 0.005,
    desc: str = "condition",
) -> None:
    """Poll ``predicate`` until true; :class:`FaultTimeout` on deadline."""
    deadline_at = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline_at:
            raise FaultTimeout(f"timed out after {timeout}s waiting for {desc}")
        time.sleep(interval)


def wait_dead(server, shard_id: int, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Wait until ``shard_id``'s worker is observably dead."""
    wait_until(
        lambda: not server._executors[shard_id].alive(),
        timeout=timeout,
        desc=f"shard {shard_id} worker death",
    )


def collect(
    subscription,
    count: Optional[int] = None,
    timeout: float = DEFAULT_TIMEOUT,
    idle: float = 0.25,
) -> List[Any]:
    """Drain notifications from ``subscription`` without bare sleeps.

    With ``count``: block until that many arrive (or fail at ``timeout``).
    Without: drain until the queue has been quiet for ``idle`` seconds —
    the "everything in flight has landed" condition after a ``drain()``.
    """
    notes: List[Any] = []
    deadline_at = time.monotonic() + timeout
    while True:
        if count is not None and len(notes) >= count:
            return notes
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            if count is None:
                return notes
            raise FaultTimeout(
                f"timed out with {len(notes)}/{count} notifications"
            )
        note = subscription.get(timeout=idle if count is None else min(remaining, idle))
        if note is None:
            if count is None:
                return notes
            continue
        notes.append(note)


@contextlib.contextmanager
def deadline(seconds: float, desc: str = "test body"):
    """Hard SIGALRM watchdog: raise :class:`FaultTimeout` in the main
    thread after ``seconds`` — a hung ``queue.get`` fails fast instead of
    stalling the whole run.  No-op off the main thread or without SIGALRM
    (non-POSIX), where the caller's own timeouts are the only guard.
    """
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def on_alarm(signum, frame):
        raise FaultTimeout(f"watchdog: {desc} exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


def arm_kill_point(
    server,
    shard_id: int,
    after: Optional[int] = None,
    before: Optional[int] = None,
    rng_tag: str = "",
) -> int:
    """Restart ``shard_id`` with a deterministic self-kill armed.

    ``after=N`` dies after *applying* the N-th post-restart write batch,
    before the acknowledgement leaves (the applied-but-unacked window);
    ``before=N`` dies on *receiving* it, unapplied.  The redo-log batches
    the arming restart replays are excluded from the count, so N refers
    to fresh traffic.  Returns the number of batches replayed by the
    arming restart (``rng_tag`` only decorates assertion messages).
    """
    if (after is None) == (before is None):
        raise ValueError("exactly one of after/before is required")
    offset = len(server._wal.state.redo.get(shard_id, ()))
    faults: Dict[str, int] = {}
    if after is not None:
        faults["exit_after_writes"] = offset + after
    else:
        faults["exit_before_writes"] = offset + before
    server.specs[shard_id].faults = faults
    replayed = server.restart_shard(shard_id)
    assert replayed == offset, (
        f"{rng_tag} arming restart replayed {replayed}, expected {offset}"
    )
    return replayed


def disarm(server, shard_id: int) -> None:
    """Clear the shard's kill point (the next restart boots clean)."""
    server.specs[shard_id].faults = None


def kill_shard(server, shard_id: int, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Immediately, uncleanly kill a shard's worker and wait it out."""
    server._executors[shard_id].kill()
    wait_dead(server, shard_id, timeout=timeout)


@contextlib.contextmanager
def refuse_submits(executor, times: int):
    """Make ``executor.try_submit`` refuse its next ``times`` calls.

    Exercises the outbox-coalescing path on demand (a deterministically
    "backed up" shard).  The counter object is yielded so tests can
    assert how many refusals were consumed: ``left`` reaches 0.
    """
    state = {"left": times}
    original = executor.try_submit

    def flaky(request):
        if state["left"] > 0:
            state["left"] -= 1
            return False
        return original(request)

    executor.try_submit = flaky
    try:
        yield state
    finally:
        executor.try_submit = original


def fail_journal_once(server, subscriber) -> None:
    """Make ``subscriber``'s next notification-journal frame write raise
    ``OSError("disk full")`` (one full disk, then healthy again)."""
    journal = server._subs._subs[subscriber].journal
    write_frame = journal._write_frame

    def fail_once(frame):
        journal._write_frame = write_frame
        raise OSError("disk full")

    journal._write_frame = fail_once


def shear_tail(path, nbytes: int) -> int:
    """Torn write: drop the last ``nbytes`` bytes of ``path`` in place.

    Models a crash mid-``write(2)`` (or a power cut before the page hit
    the platter): a frame's payload — or even its header — is only
    partially present.  Returns the file's new size.
    """
    size = os.path.getsize(path)
    keep = max(0, size - nbytes)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())
    return keep


def flip_byte(path, offset: int) -> None:
    """Silent media corruption: XOR one byte of ``path`` at ``offset``
    (negative offsets index from the end).  The length prefix still
    parses, so only the CRC can catch this."""
    with open(path, "r+b") as fh:
        if offset < 0:
            fh.seek(offset, os.SEEK_END)
        else:
            fh.seek(offset)
        position = fh.tell()
        byte = fh.read(1)
        fh.seek(position)
        fh.write(bytes([byte[0] ^ 0xFF]))
        fh.flush()
        os.fsync(fh.fileno())


def wal_files(directory) -> List[str]:
    """The WAL's segment files, oldest first (absolute paths)."""
    from repro.serve.wal import list_segments

    return [path for _index, path in list_segments(directory)]


def shm_segment_names(server) -> List[str]:
    """Every shared-memory segment name a server's deployment uses
    (ingress rings and value-store columns); empty off the shm path."""
    names: List[str] = []
    for spec in getattr(server, "specs", ()):
        if getattr(spec, "shm", None):
            names.extend(spec.shm.values())
    return names


def unlink_orphaned_segments(pid: int) -> List[str]:
    """Unlink every segment named for front-end ``pid``; returns the names.

    The serve tier names its segments ``eagr{front-end pid:x}_…`` and the
    front end unlinks them on close.  A front end killed by SIGKILL never
    gets there (nor does its resource tracker, which dies with the process
    group), so whoever killed it cleans up by name.
    """
    from repro.core.statestore import unlink_segment

    prefix = "eagr{:x}_".format(pid)
    try:
        names = sorted(os.listdir(SHM_DIR))
    except FileNotFoundError:  # no POSIX shm directory: nothing to unlink
        return []
    return [
        name for name in names if name.startswith(prefix) and unlink_segment(name)
    ]


def assert_no_segments(names: Sequence[str], tag: str = "") -> None:
    """Assert none of ``names`` is still attachable (post-close leak check)."""
    from repro.core.statestore import segment_exists

    leaked = [name for name in names if segment_exists(name)]
    assert not leaked, f"{tag} leaked shared-memory segments: {leaked}"


# ---------------------------------------------------------------------------
# delivery-contract verifiers
# ---------------------------------------------------------------------------


def assert_contiguous(stamps: Sequence[int], start: int = 1, tag: str = "") -> None:
    """Stamps are exactly ``start, start+1, ...`` — no gap, dup, or skew."""
    expected = list(range(start, start + len(stamps)))
    assert list(stamps) == expected, (
        f"{tag} stamps not contiguous from {start}: got {list(stamps)[:20]}..."
        if len(stamps) > 20
        else f"{tag} stamps not contiguous from {start}: got {list(stamps)}"
    )


def assert_spliced_stream(
    pre_notes: Sequence[Any],
    resume_from: int,
    post_notes: Sequence[Any],
    tag: str = "",
) -> List[Any]:
    """Check exactly-once-after-resume and return the client's merged view.

    The client kept ``pre_notes`` up to stamp ``resume_from`` (later ones
    were lost with the connection); ``post_notes`` is everything the
    resumed subscription delivered.  The merge must be one contiguous
    stamp sequence from 1 — the replay filled the hole exactly, repeated
    nothing the client kept, and live delivery spliced in with no gap.
    """
    kept = [n for n in pre_notes if n.stamp <= resume_from]
    merged = kept + list(post_notes)
    assert_contiguous([n.stamp for n in merged], start=1, tag=f"{tag} merged view:")
    return merged


def assert_subsequence(seq: Sequence[Any], of: Sequence[Any], tag: str = "") -> None:
    """Every element of ``seq`` appears in ``of``, in order (dedup-tolerant
    containment: coalesced batches may collapse oracle transitions)."""
    it = iter(of)
    for item in seq:
        for candidate in it:
            if candidate == item:
                break
        else:
            raise AssertionError(
                f"{tag} {item!r} breaks subsequence containment in oracle "
                f"transitions {list(of)}"
            )


def transitions_by_ego(
    batches: Sequence[Sequence], oracle, nodes: Sequence
) -> Dict[Any, List]:
    """Oracle replay: apply ``batches`` in order to a fresh tracking pass.

    Returns ``ego -> [(batch_index, value), ...]`` for every value change
    observed at batch granularity — the ground truth a subscriber's
    delivered per-ego value sequence is checked against.  ``oracle`` must
    be a fresh engine equivalent to the server's (same graph/query).
    """
    history: Dict[Any, List] = {node: [] for node in nodes}
    previous = dict(zip(nodes, oracle.read_batch(nodes)))
    for index, batch in enumerate(batches):
        oracle.write_batch(batch)
        for node, value in zip(nodes, oracle.read_batch(nodes)):
            if value != previous[node]:
                history[node].append((index, value))
                previous[node] = value
    return history
