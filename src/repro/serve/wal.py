"""The serve tier's durability ledger: one record fold, optionally on disk.

"Which write rounds are accepted, which batch each became, what a
checkpoint covers, who watches what" is one state machine, written once:
:meth:`WalState.fold`.  :class:`WriteAheadLog` owns the only copy of
that state the front-end has — every transition ``EAGrServer`` makes is
``log.append(record)``, and the outboxes, batch counters, redo log,
checkpoints, ingest clock and reader partition it serves from are
``log.state`` — so the live server, a cold restart and a tailing
replica cannot disagree about what a record means: they run the same
fold.

``WriteAheadLog(None)`` is that ledger with no file behind it
(``append`` folds, ``sync`` / ``maybe_compact`` do nothing): a server
built without ``wal_dir`` runs the same code, minus the bytes.  With a
directory, every record is also framed (CRC, fsync discipline below)
into a segmented on-disk log before the caller acknowledges anything,
and a cold ``EAGrServer(wal_dir=...)`` boot folds the log back into the
exact ledger the dead process held — then rebuilds every shard from its
checkpoint and replays the redo suffix batch-exact through the
``restart_shard()`` machinery, reproducing pre-crash notification
stamps precisely.

Record stream
-------------
Records are pickled tuples, one per frame:

* ``("META", info)`` — written once at log creation; ``info`` carries the
  deployment shape (``num_shards``) and the **persisted reader
  partition**, so a restarted front-end routes every replayed and future
  write to the same shard the dead epoch did.
* ``("W", wal_seq, {shard: items}, clock)`` — one *accepted* write round:
  the stamped ``(node, value, timestamp)`` triples each shard's outbox
  received, appended under the route lock (file order = acceptance
  order) and fsynced — by a group commit that may cover other writers'
  rounds too — before ``write_batch`` returns: an acknowledged batch is
  durable.  For a batch that passed the packing gate ``items``
  is a :class:`~repro.core.statestore.WriteFrame` whose pickled form is
  its raw record bytes, so replay rebuilds each round with one
  ``frombuffer`` instead of unpickling per-triple objects.
* ``("B", shard, batch_no, covered_seq)`` — a batch-number assignment:
  shard ``shard``'s batch ``batch_no`` consists of every accepted round
  with ``wal_seq`` in ``(previous covered_seq, covered_seq]``.  Folding
  it pops those rounds, merges them once and files the result at the
  redo tail — the batch the front-end then submits.  Logged *before*
  the enqueue, so a batch the dying worker swallowed is still
  replayable; a refused non-blocking submit appends a compensating
  ``("RB", shard, batch_no)`` whose fold returns the items to the head
  of the pending rounds and frees the number for re-issue.
  ``B``/``RB`` are flushed but not fsynced: tearing one off only demotes
  its items to pending, and they renumber identically on recovery.
* ``("C", shard, ShardCheckpoint)`` — a shard checkpoint; folding one
  truncates that shard's redo entries at ``applied_through`` (this is
  what bounds both the log's replay suffix and the ledger's memory).
  A ``C`` whose ``applied_through`` is below the installed checkpoint's
  is stale (concurrent checkpointers append out of order) and folds to
  nothing.
* ``("S", subscriber, shard, nodes, shard_stamp)`` /
  ``("U", subscriber, nodes_or_None)`` — watch registry changes
  (``state.watches``: shard → ego → {subscriber: seed}, the one record
  of who watches what — ``serve/subscriptions.py`` delivers from it);
  ``shard_stamp`` is the subscribe-time replay-filter seed, so neither
  a live redo replay nor a recovered one delivers a pre-subscription
  change.  ``U`` names no shard: the watch goes wherever it lives.
* ``("P", epoch, {reader: dst_shard}, {shard: ShardCheckpoint},
  {shard: triples})`` — a live reshard (``EAGrServer.reshard``): the
  reader moves, the synthetic post-splice checkpoint of every affected
  shard, and the re-routed residue (writes accepted before the swap that
  flush after it).  Its fold installs a *new* ``reader_shard`` dict
  rather than editing the old one — the table is the only copy of the
  partition, and what routes derive from it is cached by its identity —
  and moves each reader's registry entries to the destination shard.
  Appended under the route lock like ``W``,
  so the record stream is partition-consistent: every ``W`` before it
  replays under the old partition, every ``W`` after it under the new —
  recovery lands entirely before or entirely after the migration, never
  inside.
* ``("SNAP", WalState, 2)`` — a compaction snapshot: the complete fold
  of everything before it (see below).  The trailing ``2`` names the
  registry's shape: a snapshot without it pickled the earlier
  ``subscriber → shard → {ego: seed}`` one, which nothing can tell apart
  from today's by looking, so its fold raises :class:`WalError` rather
  than deliver from a mis-keyed registry.

Framing and recovery
--------------------
Each frame is ``<II`` (payload length, CRC-32) + pickled payload.  A
crash can tear at most the tail frame of the *last* segment; the loader
detects any short read, CRC mismatch or unpicklable payload, truncates
the file there, and keeps the intact prefix — the same torn-tail idiom
as :mod:`repro.serve.journal`.  The record stream is ordered so a torn
tail is always *consistent*: a ``B`` follows its ``W`` rounds and a
``C`` follows the ``B`` records it covers, so losing a suffix can only
demote state (items become pending again), never corrupt it.

Group commit
------------
:meth:`WriteAheadLog.sync` is the only place a caller waits for the
disk, and it waits by group commit.  The caller notes how many frames
are written under the ledger lock and fsyncs *outside* it, on a ``dup``
of the segment's descriptor, so appends never queue behind a disk
flush.  One fsync covers every frame written before it started: the
thread that finds none in flight leads one, and the threads whose
frames it covers — or that arrive while it runs — wait on a condition
and either return or lead the next.  Acknowledged ⇒ durable is
unchanged: ``sync`` returns only once an fsync that started after the
caller's own append has completed.  A failed fsync raises in its leader
and in every waiter it leaves uncovered, and poisons the log (below).
Rotation, compaction and ``close`` fsync under the ledger lock, as
before, and publish the whole log as durable.

Segments and compaction
-----------------------
The log is a directory of ``wal-<n>.seg`` files.  Appends rotate to a
new segment past ``segment_bytes``; once every shard has a checkpoint
and the log exceeds ``compact_min_bytes``, :meth:`maybe_compact` writes
the folded :class:`WalState` as a single ``SNAP`` frame into the next
segment (write-to-temp, fsync, ``os.replace``, directory fsync — atomic)
and deletes the older segments.  Recovery picks the newest segment that
*starts* with a valid ``SNAP`` as its base, so a crash anywhere inside
compaction leaves either the old segments (before the rename) or the
snapshot (after) — never neither.

Single-writer discipline
------------------------
An exclusive ``flock`` on ``wal.lock`` guarantees one writing front-end
per log directory.  The kernel releases the lock when the holder dies —
however uncleanly — which is exactly the signal that lets a
:class:`~repro.serve.replica.ReplicaServer` promote itself.

Fault injection
---------------
The ``faults`` dict wires the disk failure modes the test harness
drives: ``torn_append_at`` (the N-th append writes a partial frame, then
crashes), ``crash_after_appends``, ``crash_in_compact`` (``"before_replace"``
or ``"after_replace"``), ``fsync_error_after`` (the N-th fsync raises
``OSError``; the log then *poisons itself fail-stop* — later appends
raise :class:`WalError` instead of silently accepting writes that would
not survive), and the two group-commit states: ``crash_before_fsync``
(the N-th fsync's position is taken, the fsync not yet run) and
``crash_after_fsync`` (it ran, the durable mark is not yet published).
``exit: True`` turns a crash point into a process-group ``SIGKILL`` (for
sacrificial driver subprocesses); the default raises :class:`WalCrash`
so in-process unit tests can catch it.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from time import monotonic as _monotonic
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.serve.frames import merge_items

_HEADER = struct.Struct("<II")
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"
LOCK_NAME = "wal.lock"
#: what a ``SNAP`` record says ``WalState.watches`` is keyed by (see above).
_SNAP_SHAPE = 2


class WalError(RuntimeError):
    """The log cannot accept the operation (poisoned after an fsync
    failure, closed, or structurally invalid)."""


class WalLockedError(WalError):
    """Another live process holds this log's writer lock."""


class WalCrash(RuntimeError):
    """An armed fault fired in raise mode (in-process crash simulation)."""


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def _segment_index(name: str) -> Optional[int]:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])
    except ValueError:
        return None


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(index, absolute path)`` for every segment file, sorted."""
    out = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        index = _segment_index(name)
        if index is not None:
            out.append((index, os.path.join(directory, name)))
    out.sort()
    return out


def encode_frame(record: Any) -> bytes:
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frame(fh) -> Optional[Any]:
    """One record from ``fh``, or ``None`` on a clean EOF.

    Raises :class:`WalError` on a torn or corrupt frame (short header,
    short payload, CRC mismatch, unpicklable payload) — the caller
    decides whether that means truncate (writer recovery) or wait
    (replica tailing an in-progress append).
    """
    header = fh.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise WalError("torn frame header")
    length, crc = _HEADER.unpack(header)
    payload = fh.read(length)
    if len(payload) < length:
        raise WalError("torn frame payload")
    if zlib.crc32(payload) != crc:
        raise WalError("frame CRC mismatch")
    try:
        return pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - any unpickle failure is a tear
        raise WalError(f"unpicklable frame: {error}") from error


class WalState:
    """The front-end's durability state, defined by its record fold.

    The reader partition, per-shard batch counters and redo logs, the
    latest checkpoints, the accepted-but-unbatched rounds (the outboxes),
    the logical ingest clock, and the watch registry — who watches which
    ego on which shard, and from which shard write stamp — kept once, in
    the shape notification fan-out walks (:attr:`watches`).
    :meth:`fold` is the one place each record kind's effect is written;
    the live :class:`WriteAheadLog` folds on every append (its ``state``
    *is* what ``EAGrServer`` serves from, and what compaction
    snapshots), recovery folds the same records off disk, and a
    :class:`~repro.serve.replica.ReplicaServer` folds them as it tails.
    Redo entries and pending rounds are bounded by the checkpoint
    interval and the coalescing window respectively, so the state's
    memory is bounded too.

    Not synchronized: the owning log's lock serializes folds; which
    fields are stable to *read* between folds is decided by the locks
    the appender holds (``serve/server.py``'s lock-order section).
    """

    def __init__(self) -> None:
        self.num_shards: Optional[int] = None
        self.meta: Dict[str, Any] = {}
        #: reader -> owning shard: the partition, kept nowhere else.
        #: ``META`` installs it and each ``P`` replaces it with a new
        #: dict, so identity tells a swapped partition apart.
        self.reader_shard: Dict[Hashable, int] = {}
        self.clock = 0.0
        self.wal_seq = 0
        self.batch_no: Dict[int, int] = {}
        self.covered: Dict[int, int] = {}
        self.checkpoints: Dict[int, Any] = {}
        #: shard -> [(batch_no, items)] — batches since that shard's
        #: last checkpoint, in submit order (the replayable suffix).
        self.redo: Dict[int, List[Tuple[int, List[Tuple]]]] = {}
        #: shard -> [(wal_seq, items)] — accepted rounds no ``B`` record
        #: has covered yet (pending outbox contents at fold time).
        self.rounds: Dict[int, List[Tuple[int, List[Tuple]]]] = {}
        #: shard -> ego -> {subscriber: seed}, insertion-ordered, empty
        #: ego entries pruned.  ``seed`` is the shard write stamp at
        #: subscribe time: a change stamped at or below it predates the
        #: watch and is never delivered.  Written by ``S``/``U``/``P``
        #: folds only; ``serve/subscriptions.py`` reads it.
        self.watches: Dict[int, Dict[Hashable, Dict[Hashable, int]]] = {}

    def fold(self, record: Tuple) -> None:
        kind = record[0]
        if kind == "W":
            _kind, seq, per_shard, clock = record
            self.wal_seq = seq
            if clock > self.clock:
                self.clock = clock
            for shard_id, items in per_shard.items():
                self.rounds.setdefault(shard_id, []).append((seq, items))
        elif kind == "B":
            _kind, shard_id, batch_no, covered = record
            parts: List[Any] = []
            rounds = self.rounds.get(shard_id, [])
            keep = []
            for seq, round_items in rounds:
                if seq <= covered:
                    parts.append(round_items)
                else:
                    keep.append((seq, round_items))
            self.rounds[shard_id] = keep
            # Binary rounds concatenate array-to-array (no per-triple
            # work); mixed or pickled rounds materialize to one list.
            items = merge_items(parts)
            self.redo.setdefault(shard_id, []).append((batch_no, items))
            self.batch_no[shard_id] = batch_no
            self.covered[shard_id] = covered
        elif kind == "RB":
            # A non-blocking submit was refused after its ``B`` was
            # logged: undo the assignment — the items return to the
            # pending pool (at the head, where the live outbox re-queues
            # them) and the batch number will be re-issued.
            _kind, shard_id, batch_no = record
            redo = self.redo.get(shard_id)
            if not redo or redo[-1][0] != batch_no:
                raise WalError(
                    f"rollback of batch {batch_no} does not match the "
                    f"redo tail for shard {shard_id}"
                )
            _no, items = redo.pop()
            self.rounds.setdefault(shard_id, []).insert(
                0, (self.covered.get(shard_id, 0), items)
            )
            self.batch_no[shard_id] = batch_no - 1
        elif kind == "C":
            _kind, shard_id, ck = record
            installed = self.checkpoints.get(shard_id)
            if installed is not None and ck.applied_through < installed.applied_through:
                # Two checkpointers (a write_batch caller and the
                # flusher) can append their C records out of order; the
                # older one must not replace the newer one, whose fold
                # already dropped the redo entries between them.
                return
            self.checkpoints[shard_id] = ck
            self.redo[shard_id] = [
                entry
                for entry in self.redo.get(shard_id, [])
                if entry[0] > ck.applied_through
            ]
        elif kind == "S":
            _kind, subscriber, shard_id, nodes, stamp = record
            egos = self.watches.setdefault(shard_id, {})
            for node in nodes:
                egos.setdefault(node, {}).setdefault(subscriber, stamp)
        elif kind == "U":
            # No shard in the record: the watch goes wherever it lives.
            _kind, subscriber, nodes = record
            for egos in self.watches.values():
                for node in list(egos) if nodes is None else nodes:
                    subs = egos.get(node)
                    if subs and subs.pop(subscriber, None) is not None and not subs:
                        del egos[node]
        elif kind == "P":
            _kind, epoch, moves, checkpoints, pending = record
            self.meta["partition_epoch"] = epoch
            # A new table, never an edit of the old one: routes derived
            # from a partition are cached by its dict's identity.
            table = dict(self.reader_shard)
            for node, dst in moves.items():
                # The ego's watchers migrate with it, seeds and order
                # intact — the only thing that moves a watch between
                # shards, live and on recovery.
                src = self.watches.get(table.get(node), {})
                if node in src:
                    self.watches.setdefault(dst, {})[node] = src.pop(node)
                table[node] = dst
            self.reader_shard = table
            for shard_id, ck in checkpoints.items():
                self.checkpoints[shard_id] = ck
                # The splice aligned every affected shard's batch counter
                # to the group max (= the synthetic ``applied_through``);
                # a recovered front-end must number new batches above it.
                self.batch_no[shard_id] = max(
                    self.batch_no.get(shard_id, 0), ck.applied_through
                )
                self.redo[shard_id] = [
                    entry
                    for entry in self.redo.get(shard_id, [])
                    if entry[0] > ck.applied_through
                ]
                # The re-routed residue *replaces* the shard's pending
                # rounds: the live swap popped the outboxes and re-filed
                # their contents under the new routing table.
                items = pending.get(shard_id) or []
                self.rounds[shard_id] = (
                    [(self.wal_seq, items)] if items else []
                )
        elif kind == "META":
            _kind, info = record
            self.meta = dict(info)
            self.num_shards = info["num_shards"]
            # Held once: the partition is ``reader_shard``, not ``meta``.
            self.reader_shard = self.meta.pop("reader_shard")
        elif kind == "SNAP":
            if record[2:] != (_SNAP_SHAPE,):
                raise WalError("SNAP predates the re-keyed watch registry")
            self.__dict__.update(record[1].__dict__)
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")


def _fsync_dir(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """The durability ledger (:attr:`state`, one fold per append) and,
    with a directory, its append-only, CRC-framed, segmented,
    single-writer log (see module docstring).  The log always fsyncs:
    :meth:`sync`, rotation, compaction and ``close`` return only once
    what they cover is on stable storage.

    Parameters
    ----------
    directory:
        The log directory (created if missing).  Existing segments are
        recovered on open: torn tail truncated, state folded, stray
        ``.tmp`` files and superseded segments removed.  ``None`` keeps
        the ledger in memory only: nothing is locked, read or written.
    segment_bytes:
        Rotate to a fresh segment once the current one exceeds this.
    compact_min_bytes:
        :meth:`maybe_compact` is a no-op below this total size.
    faults:
        Disk-fault injection plan (tests only); see module docstring.
    metrics:
        Optional dict of metric objects from the server's registry:
        ``append`` / ``fsync`` (latency histograms with an ``observe``
        method) and ``bytes`` (a gauge with ``set``, tracking total log
        bytes).  Absent keys — or ``None`` — leave the path untimed.
    """

    def __init__(
        self,
        directory: Optional[str],
        *,
        segment_bytes: int = 4 << 20,
        compact_min_bytes: int = 1 << 20,
        faults: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.compact_min_bytes = compact_min_bytes
        self.faults = dict(faults or {})
        metrics = metrics or {}
        self._m_append = metrics.get("append")
        self._m_fsync = metrics.get("fsync")
        self._m_bytes = metrics.get("bytes")
        self._appends = 0
        self._fsyncs = 0
        self._poisoned: Optional[str] = None
        self._closed = False
        #: leaf lock: serializes folds (hence ``state``'s rounds and
        #: redo lists) and the file writes behind them.
        self._lock = threading.Lock()
        #: group commit (see :meth:`sync`): frames written so far, the
        #: count an fsync has covered, whether a leader is in one.
        self._written = 0
        self._durable = 0
        self._syncing = False
        #: leaf: guards the three fields above; followers wait on it.
        self._synced = threading.Condition(threading.Lock())
        self._file = None
        self._lock_fh = None
        self._segment_index = 0
        self._tail_bytes = 0
        self._base_bytes = 0
        self.state = WalState()
        #: whether opening found a log to fold (a cold restart).
        self.recovered = False
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._acquire_lock()
            try:
                self._recover()
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------
    # open / recover
    # ------------------------------------------------------------------

    def _acquire_lock(self) -> None:
        path = os.path.join(self.directory, LOCK_NAME)
        self._lock_fh = open(path, "ab")
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._lock_fh.close()
            self._lock_fh = None
            raise WalLockedError(
                f"another process holds the WAL writer lock in "
                f"{self.directory!r}"
            ) from None

    def _recover(self) -> None:
        # Stray compaction temp: the rename never happened, the old
        # segments are authoritative.
        for name in os.listdir(self.directory):
            if name.endswith(".tmp"):
                os.remove(os.path.join(self.directory, name))
        segments = list_segments(self.directory)
        base_at = 0
        for position in range(len(segments) - 1, -1, -1):
            if self._starts_with_snapshot(segments[position][1]):
                base_at = position
                break
        # Segments behind the snapshot base are superseded (a crash
        # between compaction's rename and its deletes leaves them).
        for _index, path in segments[:base_at]:
            os.remove(path)
        segments = segments[base_at:]
        for position, (_index, path) in enumerate(segments):
            torn_at = self._fold_segment(path)
            if torn_at is not None:
                with open(path, "r+b") as fh:
                    fh.truncate(torn_at)
                # A tear can only be the final write of a dead process;
                # anything filed after it is unreachable garbage.
                for _later, later_path in segments[position + 1:]:
                    os.remove(later_path)
                segments = segments[: position + 1]
                break
        self.recovered = self.state.num_shards is not None
        if segments:
            self._segment_index, self._segment_path = segments[-1]
            self._file = open(self._segment_path, "ab")
            self._tail_bytes = self._file.tell()
            self._base_bytes = sum(
                os.path.getsize(path) for _i, path in segments[:-1]
            )
        else:
            self._segment_index = 1
            self._segment_path = os.path.join(
                self.directory, _segment_name(1)
            )
            self._file = open(self._segment_path, "ab")
            self._tail_bytes = 0
            self._base_bytes = 0
            _fsync_dir(self.directory)

    @staticmethod
    def _starts_with_snapshot(path: str) -> bool:
        try:
            with open(path, "rb") as fh:
                record = read_frame(fh)
        except (WalError, OSError):
            return False
        return bool(record) and record[0] == "SNAP"

    def _fold_segment(self, path: str) -> Optional[int]:
        """Fold every intact frame of ``path``; return the tear offset
        (``None`` when the segment is clean)."""
        with open(path, "rb") as fh:
            while True:
                offset = fh.tell()
                try:
                    record = read_frame(fh)
                except WalError:
                    return offset
                if record is None:
                    return None
                self.state.fold(record)

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------

    def append(self, record: Tuple, sync: bool = False) -> None:
        """Fold ``record`` into :attr:`state` and write one frame.

        The write is flushed to the OS (surviving process death); pass
        ``sync=True`` — or call :meth:`sync` after a group of appends —
        to force it to stable storage before acknowledging anything.
        """
        t0 = _monotonic() if self._m_append is not None else 0.0
        with self._lock:
            self._check_usable()
            self.state.fold(record)
            if self._file is None:
                return
            frame = encode_frame(record)
            self._appends += 1
            torn_at = self.faults.get("torn_append_at")
            if torn_at is not None and self._appends >= torn_at:
                # A short write followed by death: the signature torn-tail
                # crash the recovery path must absorb.
                self._file.write(frame[: max(1, len(frame) // 2)])
                self._file.flush()
                self._crash("torn append")
            self._file.write(frame)
            self._file.flush()
            self._tail_bytes += len(frame)
            self._written += 1
            crash_after = self.faults.get("crash_after_appends")
            if crash_after is not None and self._appends >= crash_after:
                self._crash("post-append crash")
            if self._tail_bytes >= self.segment_bytes:
                self._rotate_locked()
            if self._m_append is not None:
                self._m_append.observe(_monotonic() - t0)
            if self._m_bytes is not None:
                self._m_bytes.set(self._base_bytes + self._tail_bytes)
        if sync:
            self.sync()

    def sync(self) -> None:
        """Force every accepted append to stable storage, by group commit
        (module docstring): when this returns, everything appended
        before the call is on stable storage — acknowledged ⇒ durable.

        The frames written so far (the caller's own included) are noted
        under the ledger lock; outside it the caller returns once an
        fsync that started after them has completed, waits on the sync
        condition while another thread's fsync is in flight, or leads
        the next one (:meth:`_lead`).  A failed fsync poisons the log
        fail-stop and raises :class:`WalError` in its leader and in
        every waiter it leaves uncovered; later appends raise too.
        """
        with self._lock:
            self._check_usable()
            if self._file is None:
                return
            target = self._written
        synced = self._synced
        with synced:
            while self._durable < target:
                if self._poisoned is not None:
                    raise WalError(f"WAL is poisoned fail-stop ({self._poisoned})")
                if not self._syncing:
                    self._syncing = True
                    break
                synced.wait()
            else:
                return  # an fsync that started after our append covered it
        self._lead()

    def _lead(self) -> None:
        """One group-commit fsync: the position and a ``dup`` of the
        segment's descriptor are taken under the ledger lock, the fsync
        runs holding no lock.  The caller set ``_syncing``; this clears
        it whatever happens."""
        covered = None
        try:
            with self._lock:
                self._check_usable()
                position = self._written
                self._fsyncs += 1
                number = self._fsyncs
                fd = os.dup(self._file.fileno())
            try:
                if self.faults.get("crash_before_fsync") == number:
                    self._crash("position taken, not yet fsynced")
                self._fsync_fd(fd, number)
            finally:
                os.close(fd)
            if self.faults.get("crash_after_fsync") == number:
                self._crash("fsynced, durable mark not yet published")
            covered = position
        finally:
            with self._synced:
                if covered is not None and covered > self._durable:
                    self._durable = covered
                self._syncing = False
                self._synced.notify_all()

    def _fsync_fd(self, fd: int, number: int) -> None:
        """The ``number``-th fsync, timed; a failure poisons the log."""
        t0 = _monotonic() if self._m_fsync is not None else 0.0
        try:
            os.fsync(fd)
            fail_at = self.faults.get("fsync_error_after")
            if fail_at is not None and number >= fail_at:
                raise OSError(5, "injected fsync failure")
        except OSError as error:
            # Fail-stop: a log that cannot promise durability must stop
            # accepting writes, not degrade silently.
            self._poisoned = f"fsync failed: {error}"
            raise WalError(self._poisoned) from error
        if self._m_fsync is not None:
            self._m_fsync.observe(_monotonic() - t0)

    def _sync_locked(self) -> None:
        """Flush and fsync the open segment holding the ledger lock
        (rotation, compaction, close): everything written is durable."""
        self._file.flush()
        self._fsyncs += 1
        self._fsync_fd(self._file.fileno(), self._fsyncs)
        with self._synced:
            if self._written > self._durable:
                self._durable = self._written

    def _rotate_locked(self) -> None:
        self._sync_locked()
        self._file.close()
        self._base_bytes += self._tail_bytes
        self._segment_index += 1
        self._segment_path = os.path.join(
            self.directory, _segment_name(self._segment_index)
        )
        self._file = open(self._segment_path, "ab")
        self._tail_bytes = 0
        _fsync_dir(self.directory)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        return self._base_bytes + self._tail_bytes

    @property
    def appends(self) -> int:
        """Records appended this process lifetime (not recovered ones)."""
        return self._appends

    @property
    def fsyncs(self) -> int:
        """fsync calls issued this process lifetime."""
        return self._fsyncs

    def maybe_compact(self, force: bool = False) -> bool:
        """Checkpoint-gated compaction: fold the whole log into one
        ``SNAP`` segment once every shard has a checkpoint (otherwise a
        snapshot would still drag the full redo history along) and the
        log has grown past ``compact_min_bytes``.  Returns whether a
        compaction ran."""
        with self._lock:
            self._check_usable()
            if self._file is None or self.state.num_shards is None:
                return False
            if len(self.state.checkpoints) < self.state.num_shards:
                return False
            if not force and self.total_bytes() < self.compact_min_bytes:
                return False
            self._compact_locked()
            return True

    def _compact_locked(self) -> None:
        self._sync_locked()
        old_segments = list_segments(self.directory)
        next_index = self._segment_index + 1
        final_path = os.path.join(self.directory, _segment_name(next_index))
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(encode_frame(("SNAP", self.state, _SNAP_SHAPE)))
            fh.flush()
            os.fsync(fh.fileno())
        if self.faults.get("crash_in_compact") == "before_replace":
            self._crash("compaction before rename")
        os.replace(tmp_path, final_path)
        _fsync_dir(self.directory)
        if self.faults.get("crash_in_compact") == "after_replace":
            self._crash("compaction after rename")
        self._file.close()
        for _index, path in old_segments:
            os.remove(path)
        _fsync_dir(self.directory)
        self._segment_index = next_index
        self._segment_path = final_path
        self._file = open(final_path, "ab")
        self._tail_bytes = self._file.tell()
        self._base_bytes = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _check_usable(self) -> None:
        if self._closed:
            raise WalError("WAL is closed")
        if self._poisoned is not None:
            raise WalError(f"WAL is poisoned fail-stop ({self._poisoned})")

    def _crash(self, what: str) -> None:
        if self.faults.get("exit"):
            import signal

            os.kill(0, signal.SIGKILL)  # the whole sacrificial process group
        raise WalCrash(what)

    def close(self) -> None:
        """Flush, fsync, release the writer lock (idempotent)."""
        self._closed = True
        if self._file is not None:
            try:
                if self._poisoned is None:
                    self._sync_locked()
            except WalError:
                pass
            self._file.close()
            self._file = None
        if self._lock_fh is not None:
            self._lock_fh.close()  # closing drops the flock
            self._lock_fh = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({self.directory!r}, segment={self._segment_index}, "
            f"bytes={self.total_bytes()}, appends={self._appends})"
        )


class WalTailer:
    """Incremental, read-only WAL follower (the replica's feed).

    Tracks a ``(segment, offset)`` cursor and yields every *complete*
    frame appended since the last poll.  A torn frame at the tail of the
    **newest** segment is an append in progress — the tailer waits
    (never truncates: it does not own the log).  When the cursor's
    segment has been compacted away (``FileNotFoundError``), the tailer
    restarts from the current snapshot base; consumers see the ``SNAP``
    record and rebuild from it, which makes the race with the primary's
    segment deletion self-healing.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        #: ``(segment index or None, byte offset)``, replaced as one
        #: tuple so another thread always reads a matching pair.
        self._cursor: Tuple[Optional[int], int] = (None, 0)

    def position(self) -> Tuple[Optional[int], int]:
        """The cursor ``(segment index, offset)`` — everything before it
        has been yielded; ``(None, 0)`` before the first attach and
        while re-anchoring after a compaction."""
        return self._cursor

    def poll(self, limit: Optional[int] = None) -> List[Tuple]:
        records: List[Tuple] = []
        while True:
            segments = list_segments(self.directory)
            if not segments:
                return records
            current, start = self._cursor
            if current is None or not any(
                index == current for index, _p in segments
            ):
                # First attach, or our segment was compacted away:
                # restart from the newest snapshot base.
                base_at = 0
                for position in range(len(segments) - 1, -1, -1):
                    if WriteAheadLog._starts_with_snapshot(
                        segments[position][1]
                    ):
                        base_at = position
                        break
                current, start = segments[base_at][0], 0
            position = next(
                i for i, (index, _p) in enumerate(segments) if index == current
            )
            path = segments[position][1]
            try:
                with open(path, "rb") as fh:
                    fh.seek(start)
                    while limit is None or len(records) < limit:
                        offset = fh.tell()
                        try:
                            record = read_frame(fh)
                        except WalError:
                            record = None  # torn tail: wait for the writer
                        if record is None:
                            self._cursor = (current, offset)
                            break
                        records.append(record)
                    else:
                        self._cursor = (current, fh.tell())
                        return records
            except FileNotFoundError:
                self._cursor = (None, 0)  # compacted under us: re-anchor
                continue
            if position + 1 < len(segments):
                # A newer segment exists, so this one is finished;
                # anything unparsed at its tail is dead garbage.
                self._cursor = (segments[position + 1][0], 0)
                continue
            return records
