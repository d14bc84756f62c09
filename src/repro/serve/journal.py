"""Durable, resumable per-subscriber notification logs.

A subscriber's :class:`NotificationLog` is the one copy of every stamped
:class:`~repro.serve.messages.Notification` it is sent: its live handle
reads it through a cursor (:meth:`NotificationLog.replay` after the last
stamp read), and a client that reconnects with ``resume_from=N`` is a
handle whose cursor starts at ``N`` — the original stamps, exactly once,
in order, and live ones after them with no seam.

Design:

* **Bounded ring.**  The in-memory tail keeps at most ``capacity`` entries;
  appending beyond that evicts the oldest.  Eviction is *tracked*: a
  ``resume_from`` older than the oldest retained stamp raises
  :class:`ResumeGapError` instead of silently replaying a gapped suffix.
  Acknowledged prefixes (:meth:`truncate`) free space early.
* **One lock for readers.**  :attr:`NotificationLog.lock` (a condition)
  is held for each ring change and notified after it; the disk frame is
  written outside it, so a reader never waits on a flush or a
  compaction.  The caller serializes the mutators.
* **Optional disk backing.**  With a ``path`` the log is also an append-only
  file of pickled frames and survives process restart (:meth:`open` /
  construction with an existing file reloads it).  Appends are flushed per
  record; a crash can lose at most the partially-written tail frame, which
  the loader detects and drops.  The file self-compacts: once enough append
  frames accumulate the whole state is rewritten atomically
  (write-to-temp + ``os.replace``) so the file stays proportional to
  ``capacity``, not to lifetime traffic.

Frames on disk are ``("C", evicted_through, entries)`` compaction snapshots,
``("A", entry)`` appends, and ``("T", upto)`` truncation markers; loading
replays them in order.  Entries are whatever picklable record carries a
monotone integer ``stamp`` attribute — in the serving layer,
:class:`~repro.serve.messages.Notification` instances on the pickle data
plane, or columnar :class:`~repro.serve.frames.NoteFrame` batches on the
binary one.  A frame entry carries a contiguous stamp *run*: its
``stamp`` attribute is the run's **last** stamp (the monotone journal
key), ``first_stamp`` its first, ``len()`` its notification count, and
``after(s)`` slices a suffix — capacity, eviction, truncation and replay
all count and cut **notifications**, not entries, so the resume window
is the same number of notifications whichever codec filled it.  A frame
entry pickles to its raw record bytes (``__reduce__``), so the disk
format is unchanged — the same three frame kinds, cheaper payloads.
"""

from __future__ import annotations

import bisect
import io
import os
import pickle
import threading
from collections import deque
from operator import attrgetter
from typing import Any, Deque, List, Optional


def _count(entry: Any) -> int:
    """Notifications carried by one entry (frame batches carry many)."""
    return entry.__len__() if hasattr(entry, "__len__") else 1


def _drop_through(entries: Deque[Any], upto: int) -> int:
    """Drop every notification with stamp ``<= upto`` from ``entries``.

    Whole entries pop off the left; a frame straddling ``upto`` is
    replaced by its retained suffix (stamps are contiguous, so the cut is
    arithmetic).  Returns the number of notifications dropped.
    """
    dropped = 0
    while entries and entries[0].stamp <= upto:
        dropped += _count(entries.popleft())
    if entries and getattr(entries[0], "first_stamp", upto + 1) <= upto:  # a frame
        dropped += upto - entries[0].first_stamp + 1
        entries[0] = entries[0].after(upto)
    return dropped


def _evict_excess(entries: Deque[Any], total: int, capacity: int, evicted: int):
    """Evict the oldest notifications until ``total <= capacity``.

    Retained stamps are contiguous, so that drops everything through the
    stamp ``excess`` past the oldest: a frame holding more than the
    excess sheds a prefix and stays, and the resume window retains
    exactly the newest ``capacity`` notifications, byte-identical to the
    per-object plane.  Returns the updated ``(total, evicted_through)``.
    """
    if total > capacity:
        head = entries[0]
        evicted = getattr(head, "first_stamp", head.stamp) + total - capacity - 1
        total -= _drop_through(entries, evicted)
    return total, evicted


class ResumeGapError(RuntimeError):
    """``resume_from`` predates the oldest retained log entry.

    Raised instead of silently replaying a sequence with a hole in it:
    the caller asked for every notification after stamp ``N``, but entries
    ``N+1 .. first_retained-1`` have been evicted (ring overflow) or
    acknowledged away (:meth:`NotificationLog.truncate`).  The subscriber
    must re-baseline (fresh ``subscribe`` and snapshot) instead of
    resuming.
    """


class NotificationLog:
    """Bounded, optionally disk-backed ring log of stamped notifications.

    Parameters
    ----------
    capacity:
        Maximum retained notifications; an append beyond it evicts the
        oldest (and moves the resumable horizon forward).
    path:
        Optional file path for durability.  If the file exists its frames
        are replayed to restore state (surviving process restart); the
        file is created otherwise.
    compact_every:
        Rewrite the backing file after this many append/truncate frames
        (default ``2 * capacity``); ignored when ``path`` is ``None``.
    """

    def __init__(
        self,
        capacity: int = 4096,
        path: Optional[str] = None,
        compact_every: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("journal capacity must be >= 1")
        self.capacity = capacity
        self.path = path
        self._entries: Deque[Any] = deque()
        #: Held for every ring change, notified after it (module docstring).
        self.lock = threading.Condition()
        #: Retained notifications, what :attr:`capacity` bounds (>=
        #: ``len(self)``: frames batch).
        self.note_count = 0
        #: Highest stamp no longer retained (0: nothing ever evicted): the
        #: eviction horizon, the oldest ``resume_from`` :meth:`replay`
        #: accepts.  An older token raises :class:`ResumeGapError`.
        self.evicted_through = 0
        #: Notifications evicted by capacity pressure this process
        #: lifetime (``truncate`` — an intentional ack release — is not
        #: an eviction and does not count).
        self.evictions = 0
        self._compact_every = compact_every or 2 * capacity
        self._frames_since_compact = 0
        self._file: Optional[io.BufferedWriter] = None
        if path is not None:
            if os.path.exists(path):
                self._load(path)
            self._file = open(path, "ab")

    # ------------------------------------------------------------------
    # core ring operations
    # ------------------------------------------------------------------

    @property
    def last_stamp(self) -> int:
        """Stamp of the newest entry (``evicted_through`` when empty)."""
        return self._entries[-1].stamp if self._entries else self.evicted_through

    @property
    def first_stamp(self) -> int:
        """Oldest retained stamp (0 when empty and pristine)."""
        if not self._entries:
            return self.evicted_through
        head = self._entries[0]
        return getattr(head, "first_stamp", head.stamp)

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entry: Any) -> None:
        """Record ``entry``, whose stamps continue :attr:`last_stamp`
        contiguously (a pristine log starts anywhere).

        The frame is written before the ring changes: an append that
        raises (a full disk) leaves the ring exactly as it was, so the
        caller may treat the entry as never stamped; whatever part of
        the frame reached the file is compacted away before the next
        frame lands (see :meth:`_write_frame`)."""
        first, last = getattr(entry, "first_stamp", entry.stamp), self.last_stamp
        if first <= last or (last and first != last + 1):
            raise ValueError(
                f"non-contiguous journal append: stamp {first} after {last}"
            )
        self._write_frame(("A", entry))
        with self.lock:
            self._entries.append(entry)
            before = self.evicted_through
            self.note_count, self.evicted_through = _evict_excess(
                self._entries,
                self.note_count + _count(entry),
                self.capacity,
                self.evicted_through,
            )
            # Stamps are per-note contiguous, so the horizon delta *is*
            # the number of notifications evicted.
            self.evictions += self.evicted_through - before
            self.lock.notify_all()

    def replay(self, resume_from: int) -> List[Any]:
        """Every retained entry with stamp ``> resume_from``, in order.

        Scans back from the newest entry: O(entries returned).  Raises
        :class:`ResumeGapError` when entries in ``(resume_from, first
        retained stamp)`` have been evicted — the replay could not be
        gap-free.
        """
        self._window(resume_from)
        out: List[Any] = []
        for entry in reversed(self._entries):
            if entry.stamp <= resume_from:
                break
            if getattr(entry, "first_stamp", entry.stamp) <= resume_from:
                # Frame straddling the resume point: replay its suffix only.
                out.append(entry.after(resume_from))
                break
            out.append(entry)
        out.reverse()
        return out

    def next_after(self, stamp: int) -> Optional[Any]:
        """The entry holding stamp ``stamp + 1`` (a frame comes whole), or
        ``None`` before it lands: one bisection, O(log entries).  Raises
        like :meth:`replay`."""
        self._window(stamp)
        at = bisect.bisect_right(self._entries, stamp, key=attrgetter("stamp"))
        return self._entries[at] if at < len(self._entries) else None

    def _window(self, resume_from: int) -> None:
        """Raise :class:`ResumeGapError` unless the ring serves every
        stamp after ``resume_from``."""
        if resume_from < self.evicted_through:
            raise ResumeGapError(
                f"cannot resume from stamp {resume_from}: entries through "
                f"stamp {self.evicted_through} have been evicted "
                "(oldest retained: "
                f"{self.first_stamp if self._entries else 'none'})"
            )
        if resume_from > self.last_stamp:
            # The log has never seen this stamp: the client is ahead of the
            # journal (e.g. the server lost an in-memory log in a restart).
            # Replaying would let stamps regress below the client's mark.
            raise ResumeGapError(
                f"cannot resume from stamp {resume_from}: the journal's "
                f"last stamp is {self.last_stamp}"
            )

    def truncate(self, upto: int) -> int:
        """Drop notifications with stamp ``<= upto`` (an acknowledged prefix).

        Returns the number of notifications dropped (equal to entries
        dropped on the pickle plane; frame entries straddling ``upto``
        shed their acknowledged prefix and stay).  Moves the resumable
        horizon: a later ``resume_from < upto`` raises
        :class:`ResumeGapError`.
        """
        with self.lock:
            dropped = _drop_through(self._entries, upto)
            self.note_count -= dropped
            moved = upto > self.evicted_through
            if moved:
                self.evicted_through = upto
            self.lock.notify_all()
        if dropped or moved:
            self._write_frame(("T", upto))
        return dropped

    # ------------------------------------------------------------------
    # disk backing
    # ------------------------------------------------------------------

    def _load(self, path: str) -> None:
        """Replay frames from ``path``; a torn tail frame is dropped.

        The torn bytes are also truncated away, so frames appended after
        recovery extend the good prefix instead of hiding behind garbage
        that the *next* reload would stop at (silently losing them).
        """
        entries: Deque[Any] = deque()
        evicted = 0
        total = 0
        torn_at: Optional[int] = None
        with open(path, "rb") as fh:
            while True:
                offset = fh.tell()
                try:
                    frame = pickle.load(fh)
                except EOFError:
                    break
                except (pickle.UnpicklingError, AttributeError, ValueError):
                    # Torn tail from a crash mid-append: everything before
                    # it was flushed whole; drop the tail, keep the prefix.
                    torn_at = offset
                    break
                kind = frame[0]
                if kind == "C":
                    evicted = frame[1]
                    entries = deque(frame[2])
                    total = sum(_count(e) for e in entries)
                elif kind == "A":
                    entries.append(frame[1])
                    total, evicted = _evict_excess(
                        entries, total + _count(frame[1]), self.capacity, evicted
                    )
                elif kind == "T":
                    upto = frame[1]
                    total -= _drop_through(entries, upto)
                    evicted = max(evicted, upto)
        if torn_at is not None:
            with open(path, "r+b") as fh:
                fh.truncate(torn_at)
        self._entries = entries
        self.note_count = total
        self.evicted_through = evicted

    def _write_frame(self, frame) -> None:
        if self._file is None:
            return
        # A due compaction runs first: it snapshots the ring as it stands
        # — before an append's entry, after a truncation — and the frame
        # then lands behind that snapshot, which is where it replays.
        if self._frames_since_compact >= self._compact_every:
            self.compact()
        try:
            pickle.dump(frame, self._file, protocol=pickle.HIGHEST_PROTOCOL)
            self._file.flush()
        except BaseException:
            # The file may now end in part of a frame, and ``_load`` stops
            # at a tear: have the next write first rewrite it from the
            # ring, so nothing is ever appended behind the garbage.
            self._frames_since_compact = self._compact_every
            raise
        self._frames_since_compact += 1

    def compact(self) -> None:
        """Atomically rewrite the backing file as one snapshot frame."""
        if self._file is None or self.path is None:
            return
        self._file.close()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(
                ("C", self.evicted_through, list(self._entries)),
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._file = open(self.path, "ab")
        self._frames_since_compact = 0

    def close(self) -> None:
        """Flush and close the backing file (idempotent; ring stays usable)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NotificationLog(entries={len(self._entries)}, "
            f"stamps=({self.first_stamp}, {self.last_stamp}], "
            f"evicted_through={self.evicted_through}, "
            f"path={self.path!r})"
        )


def subscriber_log_path(directory: str, subscriber) -> str:
    """A stable, filesystem-safe per-subscriber file name under ``directory``.

    Subscriber ids are arbitrary hashables; the name embeds a readable
    (sanitized, truncated) prefix plus a stable digest of the full repr so
    distinct subscribers never collide.
    """
    import hashlib

    text = repr(subscriber)
    digest = hashlib.sha1(text.encode("utf-8", "replace")).hexdigest()[:12]
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in text)[:40]
    return os.path.join(directory, f"sub-{safe}-{digest}.journal")
