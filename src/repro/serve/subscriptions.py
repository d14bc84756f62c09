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
  or below the last stamp delivered for that ego (``_SubState.last_batch``)
  — or, before any delivery, at or below the subscribe-time ``seed`` read
  from the registry at the point of use — is a replay: a restarted shard
  re-derives notifications from its checkpointed baseline under the
  *same* write stamps, so the subscriber already has it (or it predates
  the watch) and it is suppressed.
* **Stamped** — per subscriber, contiguous from 1, in the shard's report
  order, under the one lock; the stamp is the subscriber's resume token.
* **Journalled, then delivered** — each stamped notification is appended
  to the subscriber's :class:`~repro.serve.journal.NotificationLog`
  *before* the live queue sees it, so everything delivered is resumable
  (``attach(resume_from=N)`` replays the journal suffix with the
  original stamps and splices live delivery behind it, atomically).  A
  subscriber's filter and stamp advance only once its append succeeded:
  a failing journal costs that subscriber that report — still unseen, so
  a redo replay re-derives it — never a stamp, and never another
  subscriber's notification.

A packed report (:class:`~repro.serve.frames.ChangeFrame`) lands as one
:class:`~repro.serve.frames.NoteFrame` per subscriber — one journal
entry, one queue put, no ``Notification`` allocation — and a list report
as individual :class:`~repro.serve.messages.Notification` objects;
stamps, suppression and journal order are the same either way.

Nothing here knows about executors, transports or routing: the caller
(``EAGrServer``) resolves shards and talks to them.  ``_lock`` guards
every field of :class:`Subscriptions` and of the states it holds, and
nothing else; what makes the registry stable to read under it is
written in ``serve/server.py``'s lock-order section.
"""

from __future__ import annotations

import os as _os
import queue as _queue
import threading
import time as _time
from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.serve.frames import ChangeFrame, NoteFrame
from repro.serve.journal import NotificationLog, ResumeGapError, subscriber_log_path
from repro.serve.messages import Notification
from repro.serve.wal import WriteAheadLog

NodeId = Hashable
#: ``(subscriber, egos)`` pairs — the shape of a shard (un)subscribe call.
Watches = List[Tuple[Hashable, List[NodeId]]]


def _note_count(item: Any) -> int:
    """Notifications carried by one delivery-queue item (frame or object)."""
    return len(item) if item.__class__ is NoteFrame else 1


class Subscription:
    """A subscriber's handle: baseline snapshot + delivery queue.

    Notifications arrive in per-subscriber stamp order;
    :attr:`snapshot` holds the value of every subscribed ego at
    subscription time (the diffing baseline).

    The queue carries a :class:`~repro.serve.frames.NoteFrame` record
    batch for every change report that packed and individual
    :class:`~repro.serve.messages.Notification` objects for the rest.
    :meth:`get` and :meth:`poll` hide the difference — frames
    materialize into notification objects on demand — while
    :meth:`poll_batch` hands the raw frames (columnar record-array
    views) straight to subscribers that want to stay allocation-free.
    """

    def __init__(self, subscriber: Hashable) -> None:
        self.subscriber = subscriber
        self.snapshot: Dict[NodeId, Any] = {}
        self._queue: "_queue.Queue[Any]" = _queue.Queue()
        #: notifications materialized from a partially-consumed frame.
        self._buffer: Deque[Notification] = deque()
        #: Optional zero-argument callable fired (from the delivery
        #: thread, outside any blocking wait) after each item lands in
        #: the queue.  The network gateway points this at its event
        #: loop so an async pump can sleep on an event instead of
        #: burning a thread per subscription.  Exceptions are swallowed:
        #: a dying hook must never take the reply drainer down with it.
        self.on_delivery: Optional[Callable[[], None]] = None

    def get(self, timeout: Optional[float] = None) -> Optional[Notification]:
        """Next notification, blocking up to ``timeout`` (``None``: forever);
        returns ``None`` on timeout.

        The deadline is absolute, computed once on entry: however many
        internal waits servicing the call takes, it returns no later
        than ``timeout`` seconds after it started — a wait can never be
        extended by wakeups that yield nothing.
        """
        if self._buffer:
            return self._buffer.popleft()
        deadline = None if timeout is None else _time.monotonic() + timeout
        while True:
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    return None
            try:
                item = self._queue.get(timeout=remaining)
                break
            except _queue.Empty:
                return None
        if item.__class__ is NoteFrame:
            notes = item.notifications()
            self._buffer.extend(notes[1:])
            return notes[0]
        return item

    def poll(self) -> List[Notification]:
        """Drain everything currently queued without blocking."""
        drained: List[Notification] = list(self._buffer)
        self._buffer.clear()
        while True:
            try:
                item = self._queue.get_nowait()
            except _queue.Empty:
                return drained
            if item.__class__ is NoteFrame:
                drained.extend(item.notifications())
            else:
                drained.append(item)

    def poll_batch(self) -> List[Any]:
        """Drain without materializing: the columnar fast path.

        Returns the queued delivery items as they arrived —
        :class:`~repro.serve.frames.NoteFrame` batches whose ``records``
        attribute is the raw ``(ego, value, stamp, batch)`` record array
        (call :meth:`NoteFrame.notifications` per frame only if objects
        are needed), and plain :class:`Notification` objects for change
        reports that could not pack.  Notifications already
        materialized by an interleaved :meth:`get` are prepended as
        objects so no stamp is ever skipped or reordered.
        """
        drained: List[Any] = list(self._buffer)
        self._buffer.clear()
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except _queue.Empty:
                return drained

    @property
    def pending(self) -> int:
        """Number of undelivered notifications currently queued."""
        with self._queue.mutex:
            queued = sum(_note_count(item) for item in self._queue.queue)
        return len(self._buffer) + queued


class _SubState:
    """Per-subscriber delivery state.

    ``queue`` is ``None`` while the subscriber is disconnected — the
    journal keeps recording, live delivery is skipped.  ``stamp`` is the
    last stamp assigned (it survives reconnects; replay re-uses original
    stamps).  ``last_batch`` maps each ego to the shard write stamp of
    its last delivered notification — the delivery half of the replay
    filter; an ego with no entry yet is filtered at its registry seed.
    """

    __slots__ = ("queue", "stamp", "subscription", "journal", "last_batch")

    def __init__(self, subscription: Subscription, journal: NotificationLog) -> None:
        self.queue = subscription._queue
        self.journal = journal
        self.stamp = journal.last_stamp
        self.subscription = subscription
        self.last_batch: Dict[NodeId, int] = {}


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
            state.queue = None
            last = state.last_batch
            for entry in state.journal.entries():
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
            Subscription(subscriber),
            NotificationLog(capacity=self._journal_capacity, path=path),
        )

    # ------------------------------------------------------------------
    # subscribe / resume / unsubscribe
    # ------------------------------------------------------------------

    def attach(
        self, subscriber: Hashable, resume_from: Optional[int] = None
    ) -> Subscription:
        """The subscriber's live handle (``EAGrServer.subscribe`` before
        any shard is asked): registers an unknown subscriber, reconnects
        a disconnected one with a fresh handle, and with ``resume_from``
        starts that handle's queue with the journal suffix.

        State is registered only after the replay succeeded: a
        ``resume_from`` an unknown subscriber cannot satisfy raises
        :class:`~repro.serve.journal.ResumeGapError` and leaves no
        trace — no registry entry, no queue, no journal file it created.
        """
        with self._lock:
            known = subscriber in self._subs
            state = self._subs[subscriber] if known else self._open(subscriber)
            replayed: List[Any] = []
            if resume_from is not None:
                try:
                    replayed = state.journal.replay(resume_from)
                except ResumeGapError:
                    if not known:
                        if state.journal.last_stamp:
                            # a reloaded history: another token may fit
                            state.journal.close()
                        else:
                            _discard(state.journal)
                    raise
            if resume_from is not None or state.queue is None:
                # Reconnect — or re-baseline after a disconnect (the
                # resume window was lost to a ResumeGapError): fresh
                # handle; without ``resume_from`` the journal suffix is
                # forfeited and live delivery simply resumes.
                state.subscription = Subscription(subscriber)
                state.queue = state.subscription._queue
                for note in replayed:
                    state.queue.put(note)
                self.replayed += sum(_note_count(note) for note in replayed)
            self._subs[subscriber] = state
            return state.subscription

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
                self._log.append(("S", subscriber, shard_id, nodes, shard_stamp))
        self._log.sync()

    def forget(
        self, subscriber: Hashable, nodes: Optional[List[NodeId]] = None
    ) -> None:
        """Record that ``subscriber`` stopped watching ``nodes`` (``None``:
        everything, which also retires its queue, journal and journal
        file — the one path that forgets a subscriber entirely)."""
        with self._lock:
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

        A subscriber whose journal append fails is skipped from that
        point on — nothing of the failed item is stamped, marked seen or
        queued — the rest are served, and the first such error is raised
        once everyone else has been.
        """
        packed = changes.__class__ is ChangeFrame
        if packed:
            egos = changes.egos.tolist()
            values = changes.values.tolist()
            batch = changes.batch
        else:
            # one report = one applied batch: every row has its stamp
            egos, values, (batch, *_same) = zip(*changes)
        failure: Optional[Exception] = None
        with self._lock:
            watchers = self._log.state.watches.get(shard_id, {})
            per_sub: Dict[Hashable, Tuple[List[NodeId], List[Any]]] = {}
            for ego, value in zip(egos, values):
                subs = watchers.get(ego)
                if not subs:
                    continue
                for subscriber, seed in subs.items():
                    state = self._subs.get(subscriber)
                    if state is None:  # never costs the others their note
                        continue
                    if state.last_batch.get(ego, seed) >= batch:
                        self.suppressed += 1
                        continue
                    entry = per_sub.get(subscriber)
                    if entry is None:
                        entry = per_sub[subscriber] = ([], [])
                    entry[0].append(ego)
                    entry[1].append(value)
            egress = self.egress[shard_id]
            for subscriber, (sub_egos, sub_values) in per_sub.items():
                state = self._subs[subscriber]
                first_stamp = state.stamp + 1
                if packed:
                    items: List[Any] = [
                        NoteFrame.build(
                            subscriber,
                            shard_id,
                            sub_egos,
                            sub_values,
                            first_stamp,
                            batch,
                            ingress=changes.ingress,
                        )
                    ]
                else:
                    items = [
                        Notification(subscriber, ego, value, stamp, shard_id, batch)
                        for stamp, (ego, value) in enumerate(
                            zip(sub_egos, sub_values), first_stamp
                        )
                    ]
                hook = state.subscription.on_delivery
                step = len(sub_egos) if packed else 1  # stamps per item
                for item in items:
                    try:
                        state.journal.append(item)
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        failure = failure or exc
                        break
                    state.stamp += step
                    if state.queue is not None:
                        state.queue.put(item)
                        if hook is not None:
                            try:
                                hook()
                            except Exception:  # noqa: BLE001 - see on_delivery
                                pass
                # Stamps are contiguous in report order: what was
                # journalled is a prefix of this subscriber's rows.
                sent = state.stamp - first_stamp + 1
                if not sent:
                    continue
                for ego in sub_egos[:sent]:
                    state.last_batch[ego] = batch
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
        return len(per_sub)

    # ------------------------------------------------------------------
    # per-subscriber verbs
    # ------------------------------------------------------------------

    def disconnect(self, subscriber: Hashable) -> int:
        """Sever the live queue; returns the last stamp assigned (0 for
        unknown subscribers).  Watches and journal stay."""
        with self._lock:
            state = self._subs.get(subscriber)
            if state is None:
                return 0
            state.queue = None
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
            return 0 if state is None else state.journal.resumable_from

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
