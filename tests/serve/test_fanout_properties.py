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
step each live subscriber's stream — live queue plus the journal
replayed on resume — must equal the reference's sequence of ``(ego,
value, stamp, batch)``, and the return value and ``suppressed`` count
must agree.  At the end every journal, replayed from 0, must equal it
too, and the subscribers' filters, with the tables written back, must
equal the reference's delivered-through stamps.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.frames import ChangeFrame
from repro.serve.subscriptions import ROW_LOOP_ROWS, Subscriptions
from repro.serve.wal import WriteAheadLog

SHARDS = 3
EGOS = 1500
SUBSCRIBERS = ["a", "b", "c", "d"]


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


def note_tuples(notes):
    return [(n.ego, n.value, n.stamp, n.batch) for n in notes]


class Client:
    """One subscriber's live handle and everything it has read."""

    def __init__(self):
        self.handle = None
        self.seen = []

    def drain(self):
        if self.handle is not None:
            self.seen.extend(note_tuples(self.handle.poll()))


def run_schedule(seed, steps):
    rng = random.Random(seed)
    owner = {ego: ego % SHARDS for ego in range(EGOS)}
    log = WriteAheadLog(None)
    log.append(("META", {"num_shards": SHARDS, "reader_shard": dict(owner)}))
    subs = Subscriptions(log, SHARDS, 1 << 20, None, lambda latency: None)
    ref = Reference(owner)
    clients = {}
    batch = 0
    epoch = 0
    paths = {"rows": 0, "arrays": 0}
    for _step in range(steps):
        roll = rng.random()
        sub = rng.choice(SUBSCRIBERS)
        client = clients.get(sub)
        if roll < 0.08:  # attach: register, or resume after a disconnect
            if client is None:
                client = clients[sub] = Client()
                client.handle = subs.attach(sub)
                ref.attach(sub)
            elif client.handle is None:
                resume_from = client.seen[-1][2] if client.seen else 0
                client.handle = subs.attach(sub, resume_from=resume_from)
            else:
                assert subs.attach(sub) is client.handle
        elif roll < 0.13:  # disconnect: whatever sat in the queue is lost
            if client is not None and client.handle is not None:
                subs.disconnect(sub)
                client.handle = None
        elif roll < 0.25:  # watch a run of egos on one shard
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
            each.drain()
            if each.handle is not None:
                assert each.seen == ref.history[name], name
            else:
                assert each.seen == ref.history[name][: len(each.seen)], name
        assert subs.suppressed == ref.suppressed
    for name in list(clients):
        replayed = subs.attach(name, resume_from=0).poll()
        assert note_tuples(replayed) == ref.history[name], name
    with subs._lock:
        subs._drop_tables()
        for name in ref.known:
            assert subs._subs[name].last_batch == ref.through[name], name
    return paths


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_fan_out_matches_the_reference(seed):
    run_schedule(seed, 120)


def test_both_fan_out_paths_run():
    paths = {"rows": 0, "arrays": 0}
    for seed in range(4):
        for path, count in run_schedule(seed, 120).items():
            paths[path] += count
    assert paths["rows"] > 20 and paths["arrays"] > 20, paths


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
