"""Hypothesis properties of the subscription plane's fan-out.

``Subscriptions.deliver`` fans a shard's change report out over a
compiled per-shard watch table: a row loop for short reports, arrays for
long ones, delivered-through stamps held in the table while it lives and
written back to the subscribers' filters whenever it is dropped.  A
seeded schedule drives one ``Subscriptions`` over an in-memory ledger
with packed reports of 1 to 500 rows (so both paths run), list reports,
redo replays of old batches, and between them attach, disconnect,
resume, ``watch``, ``forget`` and ledger ``P`` moves of watched egos
between shards — every one of which drops or invalidates the tables.

The reference below is the registry, filter and stamper written out
plainly, sharing no code with ``repro``: for each row, for each watcher
in registry order, a row at or below the stamp that watch was delivered
through (its seed before any delivery) is suppressed; the rest are
stamped per subscriber, contiguous from 1, in report order.  After every
step each live subscriber's stream — its handle's reads, across
resumes from the journal — must equal the reference's sequence of ``(ego,
value, stamp, batch)``, and the return value and ``suppressed`` count
must agree.  At the end every journal, replayed from 0, must equal it
too, and the subscribers' filters, with the tables written back, must
equal the reference's delivered-through stamps.

Each client reads through a random mix of ``get``, ``poll`` and
``poll_batch`` (its own random stream, so the operation schedule is the
same whatever it reads with), which stops the handle's cursor inside a
frame now and then.  A second schedule runs with a journal of a few
dozen notifications and clients that skip reads: the reference keeps
the newest ``capacity`` stamps of each subscriber, and a read must raise
``ResumeGapError`` exactly when the client's cursor fell behind them —
after which, and not before, a plain ``attach`` hands out a fresh handle
at the newest stamp (before it, ``attach`` returns the live handle).
The end-of-run replay then starts at the reference's horizon.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.frames import ChangeFrame, NoteFrame
from repro.serve.journal import ResumeGapError
from repro.serve.subscriptions import ROW_LOOP_ROWS, Subscriptions
from repro.serve.wal import WriteAheadLog

SHARDS = 3
EGOS = 1500
SUBSCRIBERS = ["a", "b", "c", "d"]
#: a resume window a few reports wide: cursors fall behind it often.
SMALL_JOURNAL = 40


class Reference:
    """Who watches what, the delivery filter and the stampers."""

    def __init__(self, owner):
        self.owner = dict(owner)  # ego -> shard
        self.watches = {shard: {} for shard in range(SHARDS)}  # ego -> {sub: seed}
        self.known = set()
        self.stamp = {}  # sub -> last stamp
        self.through = {}  # sub -> {ego: batch}
        self.history = {}  # sub -> [(ego, value, stamp, batch)]
        self.suppressed = 0

    def attach(self, sub):
        if sub not in self.known:
            self.known.add(sub)
            self.stamp[sub] = 0
            self.through[sub] = {}
            self.history[sub] = []

    def watch(self, sub, shard, egos, seed):
        if sub not in self.known:
            return
        table = self.watches[shard]
        for ego in egos:
            table.setdefault(ego, {}).setdefault(sub, seed)

    def forget(self, sub, egos):
        for table in self.watches.values():
            for ego in list(table) if egos is None else egos:
                subs = table.get(ego)
                if subs and sub in subs:
                    del subs[sub]
                    if not subs:
                        del table[ego]
        if egos is None:
            self.known.discard(sub)
            for book in (self.stamp, self.through, self.history):
                book.pop(sub, None)
        elif sub in self.known:
            for ego in egos:
                self.through[sub].pop(ego, None)

    def move(self, egos, dst):
        for ego in egos:
            src = self.watches[self.owner[ego]]
            if ego in src:
                self.watches[dst][ego] = src.pop(ego)
            self.owner[ego] = dst

    def deliver(self, shard, rows, batch):
        table = self.watches[shard]
        per_sub = {}
        for ego, value in rows:
            for sub, seed in table.get(ego, {}).items():
                if sub not in self.known:
                    continue
                if self.through[sub].get(ego, seed) >= batch:
                    self.suppressed += 1
                    continue
                per_sub.setdefault(sub, []).append((ego, value))
        for sub, notes in per_sub.items():
            for ego, value in notes:
                self.stamp[sub] += 1
                self.history[sub].append((ego, value, self.stamp[sub], batch))
                self.through[sub][ego] = batch
        return len(per_sub)

    def horizon(self, sub, capacity):
        """The newest stamp a journal of ``capacity`` no longer holds."""
        return max(0, self.stamp[sub] - capacity)


def note_tuples(notes):
    return [(n.ego, n.value, n.stamp, n.batch) for n in notes]


class Client:
    """One subscriber's live handle and the last stamp it has read."""

    def __init__(self, cursor):
        self.handle = None
        self.cursor = cursor

    def read(self, reads):
        """Everything new, through a random mix of the three reads."""
        got = []
        while True:
            roll = reads.random()
            if roll < 0.5:
                note = self.handle.get(timeout=0)
                if note is None:
                    return got
                got.append(note)
                continue
            items = self.handle.poll() if roll < 0.75 else self.handle.poll_batch()
            for item in items:
                got.extend(item.notifications() if isinstance(item, NoteFrame) else [item])
            return got


def run_schedule(seed, steps, capacity=1 << 20, keep_up=1.0):
    rng = random.Random(seed)
    reads = random.Random(-seed - 1)
    owner = {ego: ego % SHARDS for ego in range(EGOS)}
    log = WriteAheadLog(None)
    log.append(("META", {"num_shards": SHARDS, "reader_shard": dict(owner)}))
    subs = Subscriptions(log, SHARDS, capacity, None, lambda latency: None)
    ref = Reference(owner)
    clients = {}
    batch = 0
    epoch = 0
    paths = {"rows": 0, "arrays": 0, "reads": 0, "gaps": 0, "stood": 0}

    def rebaseline(name, client):
        handle = subs.attach(name)
        assert handle is not client.handle
        client.handle, client.cursor = handle, ref.stamp[name]
        paths["gaps"] += 1

    for _step in range(steps):
        roll = rng.random()
        sub = rng.choice(SUBSCRIBERS)
        client = clients.get(sub)
        if roll < 0.08:  # attach: register, or resume after a disconnect
            if client is None:
                ref.attach(sub)
                client = clients[sub] = Client(ref.stamp[sub])
                client.handle = subs.attach(sub)
            elif client.cursor < ref.horizon(sub, capacity):
                if client.handle is None:
                    with pytest.raises(ResumeGapError):
                        subs.attach(sub, resume_from=client.cursor)
                else:  # a live handle stands until its read has raised
                    assert subs.attach(sub) is client.handle
                    with pytest.raises(ResumeGapError):
                        client.read(reads)
                rebaseline(sub, client)
            elif client.handle is None:
                client.handle = subs.attach(sub, resume_from=client.cursor)
            else:
                assert subs.attach(sub) is client.handle
        elif roll < 0.13:  # disconnect: the handle reads nothing more
            if client is not None and client.handle is not None:
                subs.disconnect(sub)
                assert client.handle.poll() == [] and client.handle.get(0) is None
                client.handle = None
        elif roll < 0.25:  # watch a run of egos on one shard
            if client is not None and client.handle is not None:
                # a watch extension attaches first, as EAGrServer.subscribe
                # does: the live handle stands, behind the horizon or not
                assert subs.attach(sub) is client.handle
            shard = rng.randrange(SHARDS)
            mine = [ego for ego, at in ref.owner.items() if at == shard]
            egos = rng.sample(mine, rng.randrange(1, 160))
            subs.watch(sub, shard, egos, batch)
            ref.watch(sub, shard, egos, batch)
        elif roll < 0.30:  # forget some egos, or everything
            if rng.random() < 0.2:
                subs.forget(sub, None)
                ref.forget(sub, None)
                clients.pop(sub, None)
            else:
                egos = rng.sample(range(EGOS), 40)
                subs.forget(sub, egos)
                ref.forget(sub, egos)
        elif roll < 0.36:  # a P move: watched egos change shards
            watched = [ego for table in ref.watches.values() for ego in table]
            egos = rng.sample(watched, min(len(watched), rng.randrange(1, 30)))
            dst = rng.randrange(SHARDS)
            epoch += 1
            log.append(("P", epoch, {ego: dst for ego in egos}, {}, {}))
            ref.move(egos, dst)
        else:  # a change report, fresh or a redo replay
            shard = rng.randrange(SHARDS)
            mine = [ego for ego, at in ref.owner.items() if at == shard]
            count = min(len(mine), rng.choice([1, 2, 5, ROW_LOOP_ROWS, 9, 60, 500]))
            rows = [
                (ego, float(rng.randrange(-3, 4)))
                for ego in rng.sample(mine, count)
            ]
            if batch and rng.random() < 0.2:
                stamp = rng.randrange(1, batch + 1)  # replay
            else:
                batch += 1
                stamp = batch
            if rng.random() < 0.15:
                report = [(ego, value, stamp) for ego, value in rows]
            else:
                report = ChangeFrame(
                    np.array([ego for ego, _v in rows], dtype=np.int64),
                    np.array([value for _e, value in rows], dtype=np.float64),
                    stamp,
                )
                paths["rows" if count <= ROW_LOOP_ROWS else "arrays"] += 1
            reached = subs.deliver(shard, report)
            assert reached == ref.deliver(shard, rows, stamp)
        for name, each in clients.items():
            if each.handle is None or (keep_up < 1.0 and reads.random() >= keep_up):
                continue
            if each.cursor < ref.horizon(name, capacity):
                if reads.random() < 0.5:  # a plain attach before the read
                    assert subs.attach(name) is each.handle
                    paths["stood"] += 1
                with pytest.raises(ResumeGapError):
                    each.read(reads)
                rebaseline(name, each)
                continue
            got = note_tuples(each.read(reads))
            assert got == ref.history[name][each.cursor :], name
            each.cursor = ref.stamp[name]
            paths["reads"] += 1
        assert subs.suppressed == ref.suppressed
    for name in list(clients):
        horizon = ref.horizon(name, capacity)
        replayed = subs.attach(name, resume_from=horizon).poll()
        assert note_tuples(replayed) == ref.history[name][horizon:], name
    with subs._lock:
        subs._drop_tables()
        for name in ref.known:
            assert subs._subs[name].last_batch == ref.through[name], name
    return paths


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_fan_out_matches_the_reference(seed):
    run_schedule(seed, 120)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_a_small_journal_gaps_exactly_when_a_cursor_falls_behind(seed):
    run_schedule(seed, 120, capacity=SMALL_JOURNAL, keep_up=0.5)


def test_both_fan_out_paths_run():
    paths = {"rows": 0, "arrays": 0}
    for seed in range(4):
        counts = run_schedule(seed, 120)
        assert counts["gaps"] == 0
        for path in paths:
            paths[path] += counts[path]
    assert paths["rows"] > 20 and paths["arrays"] > 20, paths


def test_a_small_journal_both_gaps_and_keeps_up():
    counts = {"reads": 0, "gaps": 0, "stood": 0}
    for seed in range(4):
        for key, count in run_schedule(seed, 120, SMALL_JOURNAL, 0.5).items():
            if key in counts:
                counts[key] += count
    assert counts["reads"] > 20 and counts["gaps"] > 5 and counts["stood"], counts


def test_a_p_move_carries_delivered_through_to_the_new_shard():
    """The case only the reshard stream test used to catch: a watched
    ego moves shards while both shards' tables are compiled.  The new
    shard must deliver its next change, and suppress a redo replay of a
    batch the old shard already delivered."""
    owner = {ego: ego % 2 for ego in range(20)}
    log = WriteAheadLog(None)
    log.append(("META", {"num_shards": 2, "reader_shard": dict(owner)}))
    subs = Subscriptions(log, 2, 1024, None, lambda latency: None)
    handle = subs.attach("s")
    subs.watch("s", 0, [4], 0)
    subs.watch("s", 1, [5], 0)

    def report(egos, batch):
        return ChangeFrame(
            np.array(egos, dtype=np.int64),
            np.full(len(egos), float(batch)),
            batch,
        )

    # compile both tables; ego 4 is delivered through batch 3 on shard 0
    assert subs.deliver(0, report([4], 3)) == 1
    assert subs.deliver(1, report([5], 3)) == 1
    log.append(("P", 1, {4: 1}, {}, {}))
    # the redo replay of batch 3 now comes from shard 1: already seen
    assert subs.deliver(1, report([4], 3)) == 0
    assert subs.suppressed == 1
    # shard 0 no longer reports ego 4; shard 1 does, and it is heard
    assert subs.deliver(0, report([4], 4)) == 0
    assert subs.deliver(1, report([4, 5], 4)) == 1
    assert [(n.ego, n.stamp, n.batch) for n in handle.poll()] == [
        (4, 1, 3), (5, 2, 3), (4, 3, 4), (5, 4, 4),
    ]


def test_racing_readers_read_every_stamp_exactly_once():
    """Deliveries race four readers on one handle (more threads than
    cores, a short switch interval): the subscriber's lock guards the
    journal and the cursor, so the readers' reads partition the stream —
    every stamp read once, each reader's in increasing order."""
    owner = {ego: 0 for ego in range(64)}
    log = WriteAheadLog(None)
    log.append(("META", {"num_shards": 1, "reader_shard": dict(owner)}))
    subs = Subscriptions(log, 1, 1 << 16, None, lambda latency: None)
    handle = subs.attach("s")
    subs.watch("s", 0, list(owner), 0)
    delivered = threading.Event()
    got = [[] for _ in range(4)]

    def reader(index):
        reads = random.Random(index)
        while True:
            finished = delivered.is_set()
            roll = reads.random()
            if roll < 0.4:
                note = handle.get(timeout=0.001)
                notes = [] if note is None else [note]
            elif roll < 0.7:
                notes = handle.poll()
            else:
                notes = [
                    note
                    for item in handle.poll_batch()
                    for note in (item.notifications() if isinstance(item, NoteFrame) else [item])
                ]
            got[index].extend(note.stamp for note in notes)
            if finished and not notes:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        rng = random.Random(7)
        for batch in range(1, 301):
            egos = rng.sample(list(owner), rng.randrange(1, 20))
            if batch % 5:
                report = ChangeFrame(
                    np.array(egos, dtype=np.int64), np.full(len(egos), float(batch)), batch
                )
            else:
                report = [(ego, float(batch), batch) for ego in egos]
            subs.deliver(0, report)
        delivered.set()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for stamps in got:
        assert stamps == sorted(stamps)
    everything = sorted(stamp for stamps in got for stamp in stamps)
    assert everything == list(range(1, subs.last_stamp("s") + 1))


def test_a_reader_never_waits_on_a_journal_file(tmp_path):
    """A delivery writes a disk-backed journal's frame outside the
    subscriber's lock: a read during that write returns at once."""
    owner = {ego: 0 for ego in range(8)}
    log = WriteAheadLog(None)
    log.append(("META", {"num_shards": 1, "reader_shard": dict(owner)}))
    subs = Subscriptions(log, 1, 64, str(tmp_path), lambda latency: None)
    handle = subs.attach("s")
    subs.watch("s", 0, list(owner), 0)
    journal = subs._subs["s"].journal
    writing, release = threading.Event(), threading.Event()
    write_frame = journal._write_frame

    def slow_write(frame):
        writing.set()
        release.wait(10.0)
        write_frame(frame)

    journal._write_frame = slow_write
    delivery = threading.Thread(
        target=subs.deliver, args=(0, [(ego, 1.0, 1) for ego in owner])
    )
    delivery.start()
    try:
        assert writing.wait(10.0)
        done = []
        reader = threading.Thread(target=lambda: done.append(handle.poll_batch()))
        reader.start()
        reader.join(2.0)
        assert done == [[]], "the read waited out the journal file write"
    finally:
        release.set()
        delivery.join(10.0)
        subs.close()
    assert [note.stamp for note in handle.poll()] == list(range(1, 9))
