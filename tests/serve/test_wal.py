"""Unit tests for the whole-server write-ahead log (``repro.serve.wal``).

Covers the storage layer in isolation — CRC framing, torn-tail
truncation, silent corruption, segment rotation, checkpoint-gated
compaction and its crash windows, fsync fail-stop poisoning, the
single-writer flock — plus the recovery-idempotence property the server
relies on: **double-replaying any WAL prefix's redo suffix into a shard
is a no-op** (same values, same write stamp, zero re-derived notices).

Everything here is in-process: crash points run in *raise* mode
(:class:`WalCrash`), and at-rest disk faults are injected with
``faultlib.shear_tail`` / ``faultlib.flip_byte`` after the writer is
closed.  The kill -9 end of the spectrum lives in
``test_wal_recovery.py``.
"""

import io
import os
import random
import sys
import threading
import time

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer
from repro.serve.shard import ShardSpec
from repro.serve.wal import (
    WalCrash,
    WalError,
    WalLockedError,
    WalState,
    WalTailer,
    WriteAheadLog,
    encode_frame,
    list_segments,
    read_frame,
)

from tests.serve.faultlib import flip_byte, shear_tail, wal_files


class FakeCheckpoint:
    """Stand-in for :class:`ShardCheckpoint` — folding a ``C`` record only
    consults ``shard_id`` is irrelevant and ``applied_through`` gates the
    redo truncation, so this is all the storage layer needs."""

    def __init__(self, applied_through: int) -> None:
        self.applied_through = applied_through

    def __eq__(self, other) -> bool:  # records pickle-round-trip in tests
        return (
            isinstance(other, FakeCheckpoint)
            and other.applied_through == self.applied_through
        )

    def __repr__(self) -> str:
        return f"FakeCheckpoint({self.applied_through})"


def fold_wal(directory, before_fold=lambda state, record: None):
    """Independent re-fold of a log directory (never trusts the writer's
    live state); ``before_fold(state, record)`` sees each record against
    the fold of everything before it."""
    state = WalState()
    for _index, path in list_segments(directory):
        with open(path, "rb") as fh:
            while True:
                try:
                    record = read_frame(fh)
                except WalError:
                    break
                if record is None:
                    break
                before_fold(state, record)
                state.fold(record)
    return state


def state_digest(state):
    """The comparable essence of a :class:`WalState` (checkpoints by
    their truncation point — the objects carry no ``__eq__``)."""
    return {
        "num_shards": state.num_shards,
        "reader_shard": dict(state.reader_shard),
        "clock": state.clock,
        "wal_seq": state.wal_seq,
        "batch_no": dict(state.batch_no),
        "covered": dict(state.covered),
        "checkpoints": {
            shard: ck.applied_through
            for shard, ck in state.checkpoints.items()
        },
        "redo": {k: list(v) for k, v in state.redo.items()},
        "rounds": {k: list(v) for k, v in state.rounds.items()},
        "watches": state.watches,
    }


def sample_records(rounds=6):
    """A well-formed little record stream: META, a subscription, then
    alternating accepted rounds and batch assignments, one checkpoint."""
    records = [
        ("META", {"num_shards": 2, "reader_shard": {"a": 0, "b": 1}}),
        ("S", "watcher", 0, ["a"], 0),
        ("S", "watcher", 1, ["b"], 0),
    ]
    seq = 0
    batch = {0: 0, 1: 0}
    for index in range(rounds):
        seq += 1
        shard = index % 2
        records.append(
            ("W", seq, {shard: [("a" if shard == 0 else "b", 1.0, seq)]}, float(seq))
        )
        batch[shard] += 1
        records.append(("B", shard, batch[shard], seq))
        if index == rounds // 2:
            records.append(("C", shard, FakeCheckpoint(batch[shard])))
    return records


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def test_frame_round_trip():
    record = ("W", 7, {0: [("n", 1.5, 3)]}, 3.0)
    fh = io.BytesIO(encode_frame(record))
    assert read_frame(fh) == record
    assert read_frame(fh) is None  # clean EOF


@pytest.mark.parametrize("cut", [1, 3, 5])
def test_frame_torn_payload_detected(cut):
    data = encode_frame(("S", "w", 0, ["a"], 0))
    fh = io.BytesIO(data[:-cut])
    with pytest.raises(WalError):
        read_frame(fh)


def test_frame_corruption_detected():
    data = bytearray(encode_frame(("U", "w", None)))
    data[-1] ^= 0xFF
    with pytest.raises(WalError, match="CRC"):
        read_frame(io.BytesIO(bytes(data)))


# ---------------------------------------------------------------------------
# append / recover
# ---------------------------------------------------------------------------


def test_reopen_folds_identical_state(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    for record in sample_records():
        wal.append(record)
    wal.sync()
    before = state_digest(wal.state)
    wal.close()

    reopened = WriteAheadLog(str(tmp_path))
    assert reopened.recovered
    assert state_digest(reopened.state) == before
    assert state_digest(fold_wal(str(tmp_path))) == before
    reopened.close()


def test_torn_tail_truncated_then_appendable(tmp_path):
    records = sample_records()
    wal = WriteAheadLog(str(tmp_path))
    for record in records:
        wal.append(record)
    wal.close()

    # Tear a few bytes off the final frame: recovery must keep exactly
    # the intact prefix and stay writable.
    (segment,) = wal_files(str(tmp_path))
    shear_tail(segment, 3)
    reopened = WriteAheadLog(str(tmp_path))
    prefix = WalState()
    for record in records[:-1]:
        prefix.fold(record)
    assert state_digest(reopened.state) == state_digest(prefix)

    reopened.append(records[-1], sync=True)
    after = state_digest(reopened.state)
    reopened.close()
    assert state_digest(fold_wal(str(tmp_path))) == after


def test_crc_corruption_drops_tail_frame(tmp_path):
    records = sample_records()
    wal = WriteAheadLog(str(tmp_path))
    for record in records:
        wal.append(record)
    wal.close()

    (segment,) = wal_files(str(tmp_path))
    flip_byte(segment, -1)  # length prefix still parses; only CRC catches it
    reopened = WriteAheadLog(str(tmp_path))
    prefix = WalState()
    for record in records[:-1]:
        prefix.fold(record)
    assert state_digest(reopened.state) == state_digest(prefix)
    reopened.close()


def test_rotation_spreads_segments_and_recovers(tmp_path):
    wal = WriteAheadLog(str(tmp_path), segment_bytes=256)
    records = sample_records(rounds=20)
    for record in records:
        wal.append(record)
    wal.sync()
    digest = state_digest(wal.state)
    assert len(wal_files(str(tmp_path))) > 1
    assert wal.total_bytes() == sum(
        os.path.getsize(path) for path in wal_files(str(tmp_path))
    )
    wal.close()

    reopened = WriteAheadLog(str(tmp_path), segment_bytes=256)
    assert state_digest(reopened.state) == digest
    reopened.close()


def test_rollback_record_restores_pending_round(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.append(("META", {"num_shards": 1, "reader_shard": {"a": 0}}))
    wal.append(("W", 1, {0: [("a", 2.0, 1)]}, 1.0))
    wal.append(("B", 0, 1, 1))
    assert wal.state.redo[0] == [(1, [("a", 2.0, 1)])]
    wal.append(("RB", 0, 1))  # the submit was refused: undo the assignment
    assert wal.state.redo[0] == []
    assert wal.state.batch_no[0] == 0
    assert wal.state.rounds[0] == [(1, [("a", 2.0, 1)])]
    # The same stream must fold identically from disk.
    wal.close()
    reopened = WriteAheadLog(str(tmp_path))
    assert reopened.state.rounds[0] == [(1, [("a", 2.0, 1)])]
    reopened.close()


def test_mismatched_rollback_is_structural_error():
    state = WalState()
    state.fold(("META", {"num_shards": 1, "reader_shard": {}}))
    with pytest.raises(WalError, match="rollback"):
        state.fold(("RB", 0, 3))


def test_out_of_order_checkpoint_is_ignored():
    """Two checkpointers can append their ``C`` records out of order; the
    older one must not replace the newer one and leave the batches
    between them nowhere (dropped from redo, missing from the baseline)."""
    state = WalState()
    state.fold(("META", {"num_shards": 1, "reader_shard": {"a": 0}}))
    for seq in range(1, 5):
        state.fold(("W", seq, {0: [("a", float(seq), seq)]}, float(seq)))
        state.fold(("B", 0, seq, seq))
    state.fold(("C", 0, FakeCheckpoint(3)))
    state.fold(("C", 0, FakeCheckpoint(1)))  # taken first, logged second
    assert state.checkpoints[0] == FakeCheckpoint(3)
    assert [no for no, _items in state.redo[0]] == [4]
    state.fold(("C", 0, FakeCheckpoint(3)))  # equal: a later snapshot wins
    state.fold(("C", 0, FakeCheckpoint(4)))
    assert state.checkpoints[0] == FakeCheckpoint(4)
    assert state.redo[0] == []


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------


def checkpointed_wal(tmp_path, **kwargs):
    """A WAL whose every shard has a checkpoint (compaction-eligible)."""
    wal = WriteAheadLog(str(tmp_path), **kwargs)
    for record in sample_records(rounds=10):
        wal.append(record)
    wal.append(("C", 0, FakeCheckpoint(wal.state.batch_no.get(0, 0))))
    wal.append(("C", 1, FakeCheckpoint(wal.state.batch_no.get(1, 0))))
    wal.sync()
    return wal


def test_compaction_folds_to_single_snapshot_segment(tmp_path):
    wal = checkpointed_wal(tmp_path, segment_bytes=256)
    digest = state_digest(wal.state)
    assert len(wal_files(str(tmp_path))) > 1
    assert wal.maybe_compact(force=True)
    files = wal_files(str(tmp_path))
    assert len(files) == 1
    with open(files[0], "rb") as fh:
        assert read_frame(fh)[0] == "SNAP"

    # The log stays appendable after compaction, and recovery folds
    # snapshot + suffix back to the same state.
    wal.append(("W", wal.state.wal_seq + 1, {0: [("a", 9.0, 99)]}, 99.0))
    wal.sync()
    wal.close()
    reopened = WriteAheadLog(str(tmp_path))
    assert reopened.state.wal_seq == digest["wal_seq"] + 1
    assert reopened.state.clock == 99.0
    reopened.close()


def test_a_snapshot_of_the_old_registry_shape_is_refused(tmp_path):
    """Before the registry was re-keyed (shard → ego → {subscriber: seed})
    a ``SNAP`` pickled ``subscriber → shard → {ego: seed}`` — the same
    nesting of dicts, so nothing but the record's shape stamp can tell
    them apart.  A snapshot without it must fail the open, not come back
    as a registry whose shards are subscribers."""
    wal = checkpointed_wal(tmp_path)
    assert wal.maybe_compact(force=True)
    state = wal.state
    wal.close()
    (path,) = wal_files(str(tmp_path))
    with open(path, "wb") as fh:
        fh.write(encode_frame(("SNAP", state)))  # as the parent wrote it
    with pytest.raises(WalError, match="re-keyed"):
        WriteAheadLog(str(tmp_path))
    # ... and the failed open released the single-writer lock.
    with open(path, "wb") as fh:
        fh.write(encode_frame(("SNAP", state, 2)))
    WriteAheadLog(str(tmp_path)).close()


def test_compaction_gates(tmp_path):
    wal = WriteAheadLog(str(tmp_path), compact_min_bytes=1 << 20)
    for record in sample_records(rounds=4):
        wal.append(record)
    # Not every shard has a checkpoint yet: even force refuses (a
    # snapshot would still drag the full redo history along).
    assert not wal.maybe_compact(force=True)
    wal.append(("C", 0, FakeCheckpoint(wal.state.batch_no.get(0, 0))))
    wal.append(("C", 1, FakeCheckpoint(wal.state.batch_no.get(1, 0))))
    # All checkpointed but below the size floor: only force compacts.
    assert not wal.maybe_compact()
    assert wal.maybe_compact(force=True)
    wal.close()


@pytest.mark.parametrize("window", ["before_replace", "after_replace"])
def test_crash_mid_compaction_loses_nothing(tmp_path, window):
    wal = checkpointed_wal(
        tmp_path, segment_bytes=256, faults={"crash_in_compact": window}
    )
    digest = state_digest(wal.state)
    with pytest.raises(WalCrash):
        wal.maybe_compact(force=True)
    wal.close()  # the crashed process's flock is gone either way

    reopened = WriteAheadLog(str(tmp_path), segment_bytes=256)
    assert state_digest(reopened.state) == digest
    # No stray compaction temp survives recovery, and the directory is
    # unambiguous: after the rename the snapshot is the base (older
    # segments deleted); before it the old segments are authoritative.
    assert not [
        name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")
    ]
    files = wal_files(str(tmp_path))
    if window == "after_replace":
        assert len(files) == 1
        with open(files[0], "rb") as fh:
            assert read_frame(fh)[0] == "SNAP"
    reopened.append(("W", digest["wal_seq"] + 1, {0: []}, 0.0), sync=True)
    reopened.close()


# ---------------------------------------------------------------------------
# fault seams
# ---------------------------------------------------------------------------


def test_fsync_failure_poisons_fail_stop(tmp_path):
    wal = WriteAheadLog(str(tmp_path), faults={"fsync_error_after": 1})
    with pytest.raises(WalError, match="fsync failed"):
        wal.append(("META", {"num_shards": 1, "reader_shard": {}}), sync=True)
    # The log must refuse further writes, not degrade silently.
    with pytest.raises(WalError, match="poisoned"):
        wal.append(("U", "w", None))
    with pytest.raises(WalError, match="poisoned"):
        wal.sync()
    wal.close()


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------


def test_group_commit_covers_every_sync_with_fewer_fsyncs(tmp_path, monkeypatch):
    """Threads append and ``sync()`` concurrently.  Every ``sync()``
    returns only after an fsync that *started* with the segment already
    holding its record (the size at each fsync's start is recorded), and
    under contention one fsync serves several syncs."""
    real_fsync = os.fsync
    completed = []  # segment size at the start of each finished fsync
    completed_lock = threading.Lock()

    def recording_fsync(fd):
        size = os.fstat(fd).st_size
        time.sleep(0.002)  # a disk that takes a while
        real_fsync(fd)
        with completed_lock:
            completed.append(size)

    wal = WriteAheadLog(str(tmp_path), segment_bytes=1 << 30)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    wal.append(("META", {"num_shards": 1, "reader_shard": {}}))
    segment = list_segments(str(tmp_path))[-1][1]
    append_lock = threading.Lock()
    threads, rounds = 4, 25
    uncovered = []

    def writer(index):
        for round_no in range(rounds):
            with append_lock:  # our record's end, read before anyone appends
                wal.append(("U", f"w{index}.{round_no}", None))
                end = os.path.getsize(segment)
            wal.sync()
            with completed_lock:
                covered = max(completed, default=-1)
            if covered < end:
                uncovered.append((index, round_no, end, covered))

    workers = [
        threading.Thread(target=writer, args=(index,)) for index in range(threads)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads hard
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert uncovered == []
    assert 0 < wal.fsyncs < threads * rounds
    wal.close()
    reopened = WriteAheadLog(str(tmp_path))
    assert state_digest(reopened.state) == state_digest(wal.state)
    reopened.close()


def test_failed_group_fsync_fails_the_leader_and_its_followers(tmp_path, monkeypatch):
    """``fsync_error_after`` fails the fsync in flight: its leader and
    every follower waiting behind it raise :class:`WalError`, and so does
    every later append.  The followers append while the leader is inside
    its fsync — the ledger lock is not held across it."""
    real_fsync = os.fsync
    entered, release = threading.Event(), threading.Event()

    def gated_fsync(fd):
        entered.set()
        release.wait(10.0)
        real_fsync(fd)

    wal = WriteAheadLog(str(tmp_path), faults={"fsync_error_after": 1})
    monkeypatch.setattr(os, "fsync", gated_fsync)
    wal.append(("META", {"num_shards": 1, "reader_shard": {}}))
    outcomes = {}

    def syncer(name):
        try:
            wal.append(("U", name, None))
            wal.sync()
        except WalError as error:
            outcomes[name] = error
        else:
            outcomes[name] = None

    leader = threading.Thread(target=syncer, args=("leader",))
    leader.start()
    assert entered.wait(10.0)
    followers = [
        threading.Thread(target=syncer, args=(f"follower{i}",)) for i in range(3)
    ]
    for follower in followers:
        follower.start()
    # All three append while the leader's fsync is in flight ...
    deadline = time.monotonic() + 10.0
    while wal.appends < 5 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert wal.appends == 5
    time.sleep(0.05)
    assert all(thread.is_alive() for thread in [leader, *followers])
    release.set()  # ... and the fsync they all wait on fails.
    for thread in [leader, *followers]:
        thread.join(10.0)
    assert sorted(outcomes) == ["follower0", "follower1", "follower2", "leader"]
    assert all(isinstance(error, WalError) for error in outcomes.values())
    assert "fsync failed" in str(outcomes["leader"])
    with pytest.raises(WalError, match="poisoned"):
        wal.append(("U", "late", None))
    with pytest.raises(WalError, match="poisoned"):
        wal.sync()
    wal.close()


def test_torn_append_fault_truncates_on_recovery(tmp_path):
    records = sample_records()
    wal = WriteAheadLog(str(tmp_path), faults={"torn_append_at": 3})
    wal.append(records[0])
    wal.append(records[1])
    with pytest.raises(WalCrash, match="torn"):
        wal.append(records[2])
    wal.close()

    reopened = WriteAheadLog(str(tmp_path))
    prefix = WalState()
    prefix.fold(records[0])
    prefix.fold(records[1])
    assert state_digest(reopened.state) == state_digest(prefix)
    reopened.close()


def test_writer_lock_is_exclusive(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    with pytest.raises(WalLockedError):
        WriteAheadLog(str(tmp_path))
    wal.close()  # dropping the flock is the hand-off signal
    successor = WriteAheadLog(str(tmp_path))
    successor.close()


def test_closed_wal_refuses_appends(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.close()
    wal.close()  # idempotent
    with pytest.raises(WalError, match="closed"):
        wal.append(("U", "w", None))


# ---------------------------------------------------------------------------
# tailing
# ---------------------------------------------------------------------------


def test_tailer_follows_appends_and_waits_on_torn_tail(tmp_path):
    records = sample_records()
    wal = WriteAheadLog(str(tmp_path))
    for record in records[:3]:
        wal.append(record)
    wal.sync()
    tailer = WalTailer(str(tmp_path))
    assert tailer.position() == (None, 0)
    assert tailer.poll() == records[:3]
    assert tailer.poll() == []
    for record in records[3:]:
        wal.append(record)
    wal.sync()
    assert tailer.poll() == records[3:]
    # The cursor is one (segment, offset) pair: everything before it
    # has been yielded — here, the whole single segment.
    assert tailer.position() == (1, wal.total_bytes())
    wal.close()

    # A torn frame at the newest segment's tail is an append in
    # progress: the tailer waits rather than truncating (it does not
    # own the log), and resumes cleanly once the frame completes.
    frame = encode_frame(("U", "w", None))
    (segment,) = wal_files(str(tmp_path))
    with open(segment, "ab") as fh:
        fh.write(frame[: len(frame) // 2])
    parked = tailer.position()
    assert tailer.poll() == []
    assert tailer.position() == parked  # the half frame is not consumed
    with open(segment, "ab") as fh:
        fh.write(frame[len(frame) // 2:])
    assert tailer.poll() == [("U", "w", None)]
    assert tailer.position() == (1, os.path.getsize(segment))


def test_tailer_crosses_segment_rotation(tmp_path):
    wal = WriteAheadLog(str(tmp_path), segment_bytes=256)
    tailer = WalTailer(str(tmp_path))
    records = sample_records(rounds=20)
    seen = []
    for record in records:
        wal.append(record)
        seen.extend(tailer.poll())
    wal.sync()
    seen.extend(tailer.poll())
    assert len(wal_files(str(tmp_path))) > 1
    assert seen == records
    last_index, last_path = list_segments(str(tmp_path))[-1]
    assert tailer.position() == (last_index, os.path.getsize(last_path))
    wal.close()


# ---------------------------------------------------------------------------
# the recovery-idempotence property (satellite: double replay is a no-op)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_double_replay_of_redo_suffix_is_noop(tmp_path, seed):
    """Fold a real server's WAL after a simulated crash, replay each
    shard's redo suffix into a fresh :class:`ShardHost` — then replay it
    *again*.  The second pass must apply zero items, emit zero notices,
    and leave values and the write stamp bit-identical: the idempotence
    the recovery path (and any crash *during* recovery) leans on.
    """
    graph = random_graph(12, 40, seed=5)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    nodes = list(graph.nodes())
    rng = random.Random(seed)
    wal_dir = str(tmp_path / "wal")

    server = EAGrServer(
        graph,
        query,
        num_shards=2,
        executor="inprocess",
        overlay_algorithm="identity",
        dataflow="all_push",
        wal_dir=wal_dir,
        checkpoint_interval=1000,  # manual checkpoints only
    )
    total = 8 + rng.randrange(6)
    checkpoint_at = rng.randrange(total)
    batches = []
    for index in range(total):
        batch = [
            (rng.choice(nodes), float(rng.randint(1, 9))) for _ in range(3)
        ]
        server.write_batch(batch)
        batches.append(batch)
        if index == checkpoint_at:
            server.drain()
            server.checkpoint()
    server.drain()
    expected = dict(zip(nodes, server.read_batch(nodes)))
    # Simulated kill -9: abandon everything except the flock (released so
    # this process can re-open the directory).
    server._stop_flusher.set()
    server._flusher.join(timeout=5)
    server._wal.close()
    del server

    state = fold_wal(wal_dir)
    assert state.num_shards == 2
    for shard_id in range(2):
        readers = frozenset(
            node
            for node, shard in state.reader_shard.items()
            if shard == shard_id
        )
        shard_nodes = [node for node in nodes if node in readers]
        spec = ShardSpec(
            graph,
            query,
            shard_id=shard_id,
            num_shards=2,
            readers=readers,
            checkpoint=state.checkpoints.get(shard_id),
            merge_after=state.batch_no.get(shard_id, 0),
        )
        host = spec.build()
        redo = state.redo.get(shard_id, [])
        for batch_no, items in redo:
            host.apply_write_batch(batch_no, items)
        reads = host.engine.read_batch(shard_nodes)
        assert reads == [expected[node] for node in shard_nodes]
        stamp = host.engine.runtime.stamp
        applied = host.applied_through
        for batch_no, items in redo:  # the double replay
            count, notices = host.apply_write_batch(batch_no, items)
            assert count == 0
            assert notices == []
        assert host.engine.runtime.stamp == stamp
        assert host.applied_through == applied
        assert host.engine.read_batch(shard_nodes) == reads
