"""The subscription plane: every change, exactly once, in stamp order.

A shard reports one ``(ego, value)`` row per watched ego whose value an
applied batch changed, all rows under that batch's shard write stamp;
:class:`Subscriptions` turns each report into per-subscriber
notifications.  What happens where:

* **Who watches what** is not kept here.  It is the ledger's fold
  (``log.state.watches``: shard → ego → {subscriber: seed}, written only
  by :meth:`~repro.serve.wal.WalState.fold` of ``S``/``U``/``P``
  records), so live delivery, a rebuilt worker's re-arm, a cold restart
  and a replica read one registry.  This module appends ``S`` and ``U``
  and reads the result; it never edits it.
* **Filtered** — per (subscriber, ego), by shard write stamp.  A row at
  or below the stamp delivered through for that watch — or, before any
  delivery, at or below the subscribe-time ``seed`` from the registry —
  is a replay: a restarted shard re-derives notifications from its
  checkpointed baseline under the *same* write stamps, so the subscriber
  already has it (or it predates the watch) and it is suppressed.
* **Stamped** — per subscriber, contiguous from 1, in the shard's report
  order, under the one lock; the stamp is the subscriber's resume token.
* **Journalled, once** — each stamped notification is appended to the
  subscriber's :class:`~repro.serve.journal.NotificationLog` and stored
  nowhere else: the subscriber's :class:`Subscription` is a cursor into
  it, so everything delivered is resumable (``attach(resume_from=N)``
  is a handle whose cursor starts at ``N``).
  A subscriber's filter and stamp advance only once its append
  succeeded: a failing journal costs that subscriber that report —
  still unseen, so a redo replay re-derives it — never a stamp, and
  never another subscriber's notification.

A packed report (:class:`~repro.serve.frames.ChangeFrame`) lands as one
:class:`~repro.serve.frames.NoteFrame` per subscriber — one journal
entry, no ``Notification`` allocation — and a list report as individual
:class:`~repro.serve.messages.Notification` objects; stamps, suppression
and journal order are the same either way.

Fan-out runs over a per-shard :class:`_WatchTable`, the shard's slice of
the registry compiled once into arrays: its watched egos (sorted), a CSR
of subscriber slots per ego, and a delivered-through stamp per watch.
While a table lives, its ``through`` column *is* the delivery filter; the
per-subscriber ``last_batch`` dicts are its cold form, written back when
the table is dropped (see :meth:`Subscriptions._drop_tables` for when).

Nothing here knows about executors, transports or routing: the caller
(``EAGrServer``) resolves shards and talks to them.  ``_lock`` guards
every field of :class:`Subscriptions` and of the states it holds, and
nothing else; each journal's ``lock``, taken under it for a ring change
or alone by a reader, guards that subscriber's ring and handle cursors.
What makes the registry stable to read under ``_lock`` is written in
``serve/server.py``'s lock-order section.
"""

from __future__ import annotations

import os as _os
import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.pullrows import ragged_index
from repro.serve.frames import NOTE_DTYPE, ChangeFrame, NoteFrame
from repro.serve.journal import NotificationLog, ResumeGapError, subscriber_log_path
from repro.serve.messages import Notification
from repro.serve.wal import WriteAheadLog

NodeId = Hashable
#: ``(subscriber, egos)`` pairs — the shape of a shard (un)subscribe call.
Watches = List[Tuple[Hashable, List[NodeId]]]


class Subscription:
    """A subscriber's handle: baseline snapshot + a cursor into its journal.

    :attr:`snapshot` holds the value of every subscribed ego at
    subscription time (the diffing baseline).  The handle stores no
    notification: a read returns the entries of the subscriber's
    :class:`~repro.serve.journal.NotificationLog` after the cursor (the
    last stamp read), in stamp order, and moves the cursor past them.
    The journal holds a :class:`~repro.serve.frames.NoteFrame` record
    batch for every change report that packed and individual
    :class:`~repro.serve.messages.Notification` objects for the rest.
    :meth:`get` and :meth:`poll` hide the difference — frames
    materialize into notification objects on demand — while
    :meth:`poll_batch` hands the raw frames (columnar record-array
    views) straight to subscribers that want to stay allocation-free.

    A read whose cursor fell behind the journal's horizon (capacity
    overflow, or an ``ack`` past it) raises
    :class:`~repro.serve.journal.ResumeGapError` and marks the handle
    :attr:`gapped`; only then does a plain ``subscribe`` re-baseline.  A
    cut-off handle (disconnected, or replaced by a newer one) reads
    nothing.
    """

    def __init__(self, subscriber: Hashable, journal: NotificationLog, cursor: int) -> None:
        self.subscriber = subscriber
        self.snapshot: Dict[NodeId, Any] = {}
        #: the subscriber's journal (``None`` once cut off), the cursor
        #: and ``gapped``, guarded by ``_ready``, the journal's lock.
        self._journal: Optional[NotificationLog] = journal
        self._ready = journal.lock
        self._cursor = cursor
        self.gapped = False
        #: Optional zero-argument callable fired (from the delivery
        #: thread) after each report that reached this subscriber.  The
        #: network gateway points this at its event loop so an async
        #: pump can sleep on an event instead of burning a thread per
        #: subscription.  Exceptions are swallowed: a dying hook must
        #: never take the reply drainer down with it.
        self.on_delivery: Optional[Callable[[], None]] = None

    def _read(self, read: Callable[[NotificationLog, int], Any]) -> Any:
        """``read(journal, cursor)`` — a journal read — or ``True`` when
        cut off (``_ready`` held)."""
        if self._journal is None:
            return True
        try:
            return read(self._journal, self._cursor)
        except ResumeGapError:
            self.gapped = True
            raise

    def _cut_off(self) -> None:
        with self._ready:
            self._journal = None
            self._ready.notify_all()

    def get(self, timeout: Optional[float] = None) -> Optional[Notification]:
        """Next notification, blocking up to ``timeout`` seconds from the
        call (``None``: forever); ``None`` on timeout or when cut off.
        O(log journal entries); :meth:`poll_batch` is the fast drain."""
        with self._ready:
            item = self._ready.wait_for(lambda: self._read(NotificationLog.next_after), timeout)
            if item is None or item is True:
                return None
            self._cursor += 1  # stamps are contiguous
            if item.__class__ is not NoteFrame:
                return item
            ego, value, stamp, batch = item.records[self._cursor - item.first_stamp].item()
        return Notification(item.subscriber, ego, value, stamp, item.shard, batch)

    def poll(self) -> List[Notification]:
        """Everything unread, without blocking."""
        return [
            note
            for item in self.poll_batch()
            for note in (item.notifications() if item.__class__ is NoteFrame else (item,))
        ]

    def poll_batch(self) -> List[Any]:
        """Everything unread without materializing: the columnar fast path.

        Returns the journal entries as they were appended —
        :class:`~repro.serve.frames.NoteFrame` batches whose ``records``
        attribute is the raw ``(ego, value, stamp, batch)`` record array,
        and plain :class:`Notification` objects for change reports that
        could not pack.  A frame an interleaved :meth:`get` stopped
        inside comes back as its unread suffix.
        """
        with self._ready:
            unread = self._read(NotificationLog.replay)
            if unread is True:
                return []
            if unread:
                self._cursor = unread[-1].stamp
        return unread


#: Reports of at most this many rows fan out by a row loop over the
#: watch table; longer ones by its array path.  Below it the arrays'
#: fixed cost (a dozen numpy calls) exceeds the loop's per-row cost.
ROW_LOOP_ROWS = 8


class _SubState:
    """Per-subscriber delivery state.

    ``subscription`` is the current handle, a cursor into ``journal``
    (cut off while the subscriber is disconnected — the journal keeps
    recording); the journal's ``lock`` guards its ring and the handles'
    cursors.  ``stamp`` is the last stamp assigned (it survives
    reconnects; replay re-uses original stamps).  ``last_batch`` maps
    each ego to the shard write stamp of its last delivered notification
    — the delivery half of the replay filter; an ego with no entry yet is
    filtered at its registry seed.  While a :class:`_WatchTable` covers
    the ego, the table's ``through`` column holds the newer value.
    """

    __slots__ = ("stamp", "subscription", "journal", "last_batch")

    def __init__(self, subscriber: Hashable, journal: NotificationLog) -> None:
        self.journal = journal
        self.stamp = journal.last_stamp
        self.subscription = Subscription(subscriber, journal, self.stamp)
        self.last_batch: Dict[NodeId, int] = {}


class _WatchTable:
    """One shard's watches compiled for fan-out.

    Row ``r`` is watched ego ``egos[r]`` (ascending when every ego is an
    ``int``; ``keys`` is then the same as an int64 array, ``None``
    otherwise).  The watches of row ``r`` are entries
    ``indptr[r]:indptr[r+1]``, in registry order:
    entry ``k`` belongs to subscriber slot ``slot[k]`` (``states[slot]``)
    and ``through[k]`` is the shard write stamp its ego was delivered
    through (the registry seed before any delivery).  ``base`` is
    ``through`` as compiled, so a write-back touches only what moved.
    Watchers without a subscriber state have no entry.  ``index`` is the
    row loop's view of the same CSR — ego -> (first entry, the entries'
    slots) as plain Python objects, so a short report costs no array
    call per row.  ``watchers`` is
    the registry slice it was compiled from: a table is valid only while
    that dict is still the shard's.
    """

    __slots__ = (
        "watchers", "egos", "keys", "index", "indptr", "slot", "through", "base",
        "states",
    )

    def __init__(self, watchers, subs: Dict[Hashable, _SubState]) -> None:
        egos = list(watchers)
        ints = all(type(ego) is int for ego in egos)
        if ints:
            egos.sort()
        slot_of: Dict[Hashable, int] = {}
        states: List[_SubState] = []
        indptr = [0]
        slot: List[int] = []
        through: List[int] = []
        for ego in egos:
            for subscriber, seed in watchers[ego].items():
                state = subs.get(subscriber)
                if state is None:  # never costs the others their note
                    continue
                at = slot_of.get(subscriber)
                if at is None:
                    at = slot_of[subscriber] = len(states)
                    states.append(state)
                slot.append(at)
                through.append(state.last_batch.get(ego, seed))
            indptr.append(len(slot))
        self.watchers = watchers
        self.egos = egos
        self.keys = np.asarray(egos, dtype=np.int64) if ints else None
        self.index = {
            ego: (start, slot[start:stop])
            for ego, start, stop in zip(egos, indptr, indptr[1:])
        }
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.slot = np.asarray(slot, dtype=np.int64)
        self.through = np.asarray(through, dtype=np.int64)
        self.base = self.through.copy()
        self.states = states

    def write_back(self) -> None:
        """Store every moved delivered-through stamp in its subscriber's
        ``last_batch`` (the table's cold form)."""
        moved = np.flatnonzero(self.through != self.base)
        if not moved.size:
            return
        rows = np.searchsorted(self.indptr, moved, side="right") - 1
        egos, states = self.egos, self.states
        for slot, row, stamp in zip(
            self.slot[moved].tolist(), rows.tolist(), self.through[moved].tolist()
        ):
            states[slot].last_batch[egos[row]] = stamp

    # Both fan-outs return ``(suppressed, groups)``: one ``(state, items,
    # entries)`` per subscriber reached, ``items`` its stamped delivery
    # items (stamps continuing its own count, rows in report order) and
    # ``entries`` the table entries of its rows, aligned with the stamps.

    def fan_rows(self, shard_id: int, egos, values, batch: int, frame):
        """The row loop; ``frame`` is the packed report (one
        :class:`NoteFrame` per subscriber) or ``None`` (one
        :class:`Notification` per row)."""
        index, through = self.index, self.through
        suppressed = 0
        rows: Dict[int, Tuple[List[Any], List[Any], List[int]]] = {}
        for ego, value in zip(egos, values):
            watches = index.get(ego)
            if watches is None:
                continue
            start, slots = watches
            for entry, at in enumerate(slots, start):
                if through.item(entry) >= batch:
                    suppressed += 1
                    continue
                group = rows.get(at)
                if group is None:
                    group = rows[at] = ([], [], [])
                group[0].append(ego)
                group[1].append(value)
                group[2].append(entry)
        groups = []
        for slot, (sub_egos, sub_values, entries) in rows.items():
            state = self.states[slot]
            subscriber = state.subscription.subscriber
            first = state.stamp + 1
            if frame is not None:
                items: List[Any] = [
                    NoteFrame.build(
                        subscriber, shard_id, sub_egos, sub_values, first, batch,
                        ingress=frame.ingress,
                    )
                ]
            else:
                items = [
                    Notification(subscriber, ego, value, stamp, shard_id, batch)
                    for stamp, (ego, value) in enumerate(zip(sub_egos, sub_values), first)
                ]
            groups.append((state, items, entries))
        return suppressed, groups

    def fan_arrays(self, shard_id: int, frame):
        """The array path, for a packed report over int egos: the
        unsuppressed watches sorted by subscriber slot (report order
        within one) fill one record array, and each subscriber's
        :class:`NoteFrame` is a slice of it."""
        egos, batch = frame.egos, frame.batch
        keys = self.keys
        at = np.searchsorted(keys, egos)
        at[at == keys.size] = 0
        hit = np.flatnonzero(keys[at] == egos)
        rows = at[hit]
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        entries, _offsets = ragged_index(starts, counts)
        fresh = self.through[entries] < batch
        suppressed = entries.size - int(np.count_nonzero(fresh))
        entries = entries[fresh]
        if not entries.size:
            return suppressed, []
        source = np.repeat(hit, counts)[fresh]
        slots = self.slot[entries]
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        entries = entries[order]
        source = source[order]
        cuts = np.flatnonzero(slots[1:] != slots[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [slots.size]))
        states = [self.states[slot] for slot in slots[bounds[:-1]].tolist()]
        first = np.fromiter(
            (state.stamp + 1 for state in states), dtype=np.int64, count=len(states)
        )
        records = np.empty(slots.size, dtype=NOTE_DTYPE)
        records["ego"] = egos[source]
        records["value"] = frame.values[source]
        records["stamp"] = np.arange(slots.size) + np.repeat(
            first - bounds[:-1], np.diff(bounds)
        )
        records["batch"] = batch
        bounds = bounds.tolist()
        return suppressed, [
            (
                state,
                [
                    NoteFrame(
                        state.subscription.subscriber,
                        shard_id,
                        records[lo:hi],
                        begin,
                        begin + hi - lo - 1,
                        frame.ingress,
                    )
                ],
                entries[lo:hi],
            )
            for state, lo, hi, begin in zip(states, bounds, bounds[1:], first.tolist())
        ]


def _discard(journal: NotificationLog) -> None:
    """Close a journal and delete its file: the subscriber is forgotten."""
    journal.close()
    if journal.path is not None:
        try:
            _os.remove(journal.path)
        except OSError:  # pragma: no cover - best effort
            pass


class Subscriptions:
    """Subscriber states, their journals and the delivery path (see the
    module docstring) over one ledger.

    ``log`` is the server's :class:`~repro.serve.wal.WriteAheadLog`;
    ``journal_capacity`` / ``journal_dir`` are the per-subscriber
    notification-log settings (``EAGrServer``'s parameters of the same
    names); ``observe_latency`` receives the write→notify latency once
    per subscriber a timed report reached, under the lock.

    Opened over a recovered ledger, every subscriber the fold says is
    watching comes back *disconnected* (its client died with the old
    process): the disk journal reloads, so stamps continue where they
    stopped, and the delivery filter is rehydrated from the retained
    journal entries' ``batch`` tags — valid here, and only here, because
    a WAL cold restart replays batch-exact and so reproduces pre-crash
    shard stamps.  ``attach(resume_from=N)`` splices such a subscriber
    back in with no gap and no duplicate.

    Delivery runs over one compiled :class:`_WatchTable` per shard,
    built on the shard's first report after a drop.  Every table is
    written back to the ``last_batch`` dicts and dropped together on an
    ``S`` (:meth:`watch`), a ``U`` (:meth:`forget`), an :meth:`attach`,
    and — noticed by the next :meth:`deliver` — a ``P`` fold (a new
    ``reader_shard`` dict) or a registry slice that is no longer the
    shard's.
    """

    def __init__(
        self,
        log: WriteAheadLog,
        num_shards: int,
        journal_capacity: int,
        journal_dir: Optional[str],
        observe_latency: Callable[[float], None],
    ) -> None:
        self._log = log
        self._journal_capacity = journal_capacity
        self._journal_dir = journal_dir
        self._observe_latency = observe_latency
        self._lock = threading.Lock()
        self._subs: Dict[Hashable, _SubState] = {}
        #: shard -> compiled watch table, and the partition they were
        #: compiled under (see :meth:`_table`).
        self._tables: Dict[int, _WatchTable] = {}
        self._partition: Any = None
        self.delivered = 0
        self.replayed = 0
        self.suppressed = 0
        #: per-shard egress codec counters (complements each executor's
        #: ingress ``io`` dict in ``EAGrServer.server_stats``).
        self.egress: List[Dict[str, int]] = [
            {"egress_bytes": 0, "notes_binary": 0, "notes_pickle": 0}
            for _ in range(num_shards)
        ]
        if journal_dir is not None:
            _os.makedirs(journal_dir, exist_ok=True)
        watched: Dict[Hashable, Dict[NodeId, int]] = {}
        for egos in log.state.watches.values():
            for ego, subs in egos.items():
                for subscriber, seed in subs.items():
                    watched.setdefault(subscriber, {})[ego] = seed
        for subscriber, seeds in watched.items():
            state = self._open(subscriber)
            state.subscription._cut_off()
            last = state.last_batch
            for entry in state.journal.replay(state.journal.evicted_through):
                framed = entry.__class__ is NoteFrame
                for note in entry.notifications() if framed else (entry,):
                    ego = note.ego
                    if ego in seeds and last.get(ego, seeds[ego]) < note.batch:
                        last[ego] = note.batch
            self._subs[subscriber] = state

    def _open(self, subscriber: Hashable) -> _SubState:
        """Fresh state for ``subscriber``, not yet registered.

        With a journal directory, a pre-existing log file is reloaded —
        stamps continue where they left off and the retained suffix is
        resumable even across a front-end process restart.
        """
        path = (
            subscriber_log_path(self._journal_dir, subscriber)
            if self._journal_dir is not None
            else None
        )
        # The delivery filter is deliberately NOT rehydrated from a
        # reloaded journal here.  Its batch tags are shard write stamps,
        # stable across checkpoint-restored shard restarts *within* a
        # serving epoch — but a non-WAL reboot builds fresh shards whose
        # stamps restart at 0, so old-epoch tags would suppress every new
        # notification.  The one path where rehydration is valid — WAL
        # cold restart — does it in ``__init__``.
        return _SubState(
            subscriber, NotificationLog(capacity=self._journal_capacity, path=path)
        )

    # ------------------------------------------------------------------
    # subscribe / resume / unsubscribe
    # ------------------------------------------------------------------

    def attach(
        self, subscriber: Hashable, resume_from: Optional[int] = None
    ) -> Subscription:
        """The subscriber's live handle (``EAGrServer.subscribe`` before
        any shard is asked): registers an unknown subscriber, and hands a
        known one a fresh handle — cutting the old one off — when it
        resumes (cursor at ``resume_from``) or needs a new baseline (its
        handle was cut off, or has raised
        :class:`~repro.serve.journal.ResumeGapError`: cursor at the last
        stamp, the unread suffix forfeited).  Otherwise the current
        handle stands — one behind the horizon raises on its next read,
        so no caller misses the gap.

        A ``resume_from`` the journal cannot serve raises
        :class:`~repro.serve.journal.ResumeGapError`.  A known subscriber
        is then left disconnected; an unknown one leaves no trace — no
        registry entry, no journal file it created.
        """
        with self._lock:
            self._drop_tables()
            known = subscriber in self._subs
            state = self._subs[subscriber] if known else self._open(subscriber)
            handle = state.subscription
            cursor = resume_from
            if resume_from is not None:
                try:
                    state.journal.next_after(resume_from)  # inside the window?
                except ResumeGapError:
                    if known:
                        handle._cut_off()
                    elif state.journal.last_stamp:
                        # a reloaded history: another token may fit
                        state.journal.close()
                    else:
                        _discard(state.journal)
                    raise
                self.replayed += state.stamp - resume_from  # stamps are contiguous
            elif handle._journal is None or handle.gapped:
                cursor = state.stamp
            if cursor is not None:
                handle._cut_off()
                handle = state.subscription = Subscription(
                    subscriber, state.journal, cursor
                )
            self._subs[subscriber] = state
            return handle

    def watch(
        self,
        subscriber: Hashable,
        shard_id: int,
        nodes: List[NodeId],
        shard_stamp: int,
    ) -> None:
        """Record that ``shard_id`` armed ``nodes`` for ``subscriber`` at
        write stamp ``shard_stamp``: the ``S`` record carries the watch
        *and* its filter seed, so neither a redo replay nor a cold
        restart delivers a pre-subscription change.  An ego already
        watched keeps its seed.  Durable when this returns; the fsync
        runs outside the lock.

        A subscriber forgotten since its :meth:`attach` (a full
        ``unsubscribe`` raced the shard call) gets no record: everyone
        the registry names has a state here.  Should the shard still
        hold the watch (its ``OP_UNSUBSCRIBE`` was queued ahead of the
        ``OP_SUBSCRIBE``), nobody reads it and the next re-arm drops it
        as stale."""
        with self._lock:
            if subscriber in self._subs:
                self._drop_tables()
                self._log.append(("S", subscriber, shard_id, nodes, shard_stamp))
        self._log.sync()

    def forget(
        self, subscriber: Hashable, nodes: Optional[List[NodeId]] = None
    ) -> None:
        """Record that ``subscriber`` stopped watching ``nodes`` (``None``:
        everything, which also retires its journal and journal file —
        the one path that forgets a subscriber entirely)."""
        with self._lock:
            self._drop_tables()
            self._log.append(("U", subscriber, nodes))
            state = self._subs.get(subscriber)
            if nodes is None:
                self._subs.pop(subscriber, None)
            elif state is not None:
                for node in nodes:  # a re-subscribe starts over from its new seed
                    state.last_batch.pop(node, None)
        self._log.sync()
        if nodes is None and state is not None:
            _discard(state.journal)

    def rearm(self, shard_id: int, armed: Dict[NodeId, Any]) -> Tuple[Watches, Watches]:
        """What brings a worker restored with ``armed`` (its checkpoint's
        ``ego -> subscribers``) in line with the registry: ``(stale,
        standing)`` — the watches that checkpoint still carried but were
        forgotten since, and every watch standing on the shard (arming
        one twice is harmless)."""
        stale: Dict[Hashable, List[NodeId]] = {}
        standing: Dict[Hashable, List[NodeId]] = {}
        with self._lock:
            watchers = self._log.state.watches.get(shard_id, {})
            for ego, subs in armed.items():
                for subscriber in subs:
                    if subscriber not in watchers.get(ego, ()):
                        stale.setdefault(subscriber, []).append(ego)
            for ego, subs in watchers.items():
                for subscriber in subs:
                    standing.setdefault(subscriber, []).append(ego)
        return list(stale.items()), list(standing.items())

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def deliver(
        self, shard_id: int, changes: Any, latency: Optional[float] = None
    ) -> int:
        """Fan one non-empty change report out (see the module
        docstring); returns the number of subscribers it reached.

        The report's rows meet the shard's :class:`_WatchTable`: a packed
        report of more than :data:`ROW_LOOP_ROWS` rows over int egos in
        arrays (one ``searchsorted``, a ragged expand, one compare for
        suppression, a stable sort by subscriber slot, and one record
        array whose per-subscriber slices become the frames), anything
        else in a row loop over the same table.  Either way each
        subscriber's rows keep report order.

        A subscriber whose journal append fails is skipped from that
        point on — nothing of the failed item is stamped, marked seen or
        readable — the rest are served, and the first such error is raised
        once everyone else has been.
        """
        packed = changes.__class__ is ChangeFrame
        failure: Optional[Exception] = None
        with self._lock:
            table = self._table(shard_id)
            if table is None:
                return 0
            if not packed:
                # one report = one applied batch: every row has its stamp
                egos, values, (batch, *_same) = zip(*changes)
                suppressed, groups = table.fan_rows(shard_id, egos, values, batch, None)
            elif table.keys is not None and len(changes) > ROW_LOOP_ROWS:
                batch = changes.batch
                suppressed, groups = table.fan_arrays(shard_id, changes)
            else:
                batch = changes.batch
                suppressed, groups = table.fan_rows(
                    shard_id, changes.egos.tolist(), changes.values.tolist(), batch, changes
                )
            self.suppressed += suppressed
            egress = self.egress[shard_id]
            through = table.through
            for state, items, entries in groups:
                first_stamp = state.stamp + 1
                for item in items:
                    try:
                        state.journal.append(item)
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        failure = failure or exc
                        break
                    state.stamp = item.stamp
                # Stamps are contiguous in report order: what was
                # journalled is a prefix of this subscriber's rows.
                sent = state.stamp - first_stamp + 1
                if not sent:
                    continue
                hook = state.subscription.on_delivery
                if hook is not None:
                    try:
                        hook()
                    except Exception:  # noqa: BLE001 - see on_delivery
                        pass
                if entries.__class__ is list:
                    for entry in entries[:sent]:
                        through[entry] = batch
                else:
                    through[entries[:sent]] = batch
                if packed:
                    egress["notes_binary"] += sent
                    egress["egress_bytes"] += items[0].nbytes
                else:
                    egress["notes_pickle"] += sent
                self.delivered += sent
                if latency is not None:
                    self._observe_latency(latency)
        if failure is not None:
            raise failure
        return len(groups)

    def _table(self, shard_id: int) -> Optional[_WatchTable]:
        """The shard's compiled watch table (``None``: nobody watches
        there), compiled on first use after a drop.  Every table is
        dropped when the partition changes: a ``P`` fold moves watch
        entries between the shards' registry slices in place, so a
        slice's identity alone would not show it, but it always installs
        a new ``reader_shard`` dict."""
        state = self._log.state
        if state.reader_shard is not self._partition:
            self._drop_tables()
            self._partition = state.reader_shard
        watchers = state.watches.get(shard_id)
        table = self._tables.get(shard_id)
        if table is not None and table.watchers is not watchers:
            self._drop_tables()
            table = None
        if table is None and watchers:
            table = self._tables[shard_id] = _WatchTable(watchers, self._subs)
        return table

    def _drop_tables(self) -> None:
        """Write every table's delivered-through stamps back to the
        subscribers' ``last_batch`` and drop the tables.  Under the lock,
        before anything a table was compiled from changes: an ``S`` or
        ``U`` append (:meth:`watch`, :meth:`forget`), a subscriber state
        registered or replaced (:meth:`attach`) — and, found on the next
        delivery, a ``P`` fold or a replaced registry slice
        (:meth:`_table`).  All tables go at once: a ``P`` move hands an
        ego's watches to another shard's table, which must compile from
        the stamps the old one delivered."""
        for table in self._tables.values():
            table.write_back()
        self._tables.clear()

    # ------------------------------------------------------------------
    # per-subscriber verbs
    # ------------------------------------------------------------------

    def disconnect(self, subscriber: Hashable) -> int:
        """Cut the live handle off; returns the last stamp assigned (0 for
        unknown subscribers).  Watches and journal stay."""
        with self._lock:
            state = self._subs.get(subscriber)
            if state is None:
                return 0
            state.subscription._cut_off()
            return state.stamp

    def last_stamp(self, subscriber: Hashable) -> int:
        """The last stamp assigned (0 for unknown subscribers)."""
        with self._lock:
            state = self._subs.get(subscriber)
            return 0 if state is None else state.stamp

    def resume_horizon(self, subscriber: Hashable) -> int:
        """The journal's eviction horizon (0 for unknown subscribers)."""
        with self._lock:
            state = self._subs.get(subscriber)
            return 0 if state is None else state.journal.evicted_through

    def ack(self, subscriber: Hashable, stamp: int) -> int:
        """Release the journal prefix through ``stamp``; returns the
        notifications released.  A stamp never delivered is refused —
        accepting it would move the journal's horizon past its own stamp
        counter and poison the next append."""
        with self._lock:
            state = self._subs.get(subscriber)
            if state is None:
                return 0
            if stamp > state.stamp:
                raise ValueError(
                    f"cannot ack stamp {stamp}: nothing beyond "
                    f"{state.stamp} has been delivered to {subscriber!r}"
                )
            return state.journal.truncate(stamp)

    # ------------------------------------------------------------------
    # introspection and shutdown
    # ------------------------------------------------------------------

    def journal_stats(self) -> Dict[str, int]:
        """Notification-log occupancy (``metrics()["journal"]``)."""
        with self._lock:
            journals = [state.journal for state in self._subs.values()]
        return {
            "subscribers": len(journals),
            "entries": sum(len(journal) for journal in journals),
            "notes": sum(journal.note_count for journal in journals),
            "evictions": sum(journal.evictions for journal in journals),
        }

    def close(self) -> None:
        """Release the journal handles.  The files survive — that is the
        point: a rebooted front-end reloads them."""
        with self._lock:
            for state in self._subs.values():
                state.journal.close()
