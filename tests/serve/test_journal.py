"""NotificationLog bounds, eviction, resume-gap and durability semantics.

The ring log is the resume window: these tests pin down exactly when a
``resume_from`` is answerable (gap-free suffix retained) versus when it
must raise :class:`ResumeGapError`, and that the disk-backed variant
round-trips through close/reopen — including a crash that tears the last
append frame — without silently dropping or duplicating entries.
"""

import os
import pickle

import pytest

from repro.serve import EAGrServer, NotificationLog, ResumeGapError
from repro.serve.frames import NoteFrame
from repro.serve.journal import subscriber_log_path
from repro.serve.messages import Notification

from repro.core.aggregates import Sum
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph


def note(stamp, ego="e", value=None, subscriber="s"):
    return Notification(
        subscriber=subscriber,
        ego=ego,
        value=float(stamp) if value is None else value,
        stamp=stamp,
        shard=0,
        batch=stamp,
    )


class TestRingBounds:
    def test_overflow_evicts_oldest_and_moves_horizon(self):
        log = NotificationLog(capacity=3)
        for stamp in range(1, 6):
            log.append(note(stamp))
        assert len(log) == 3
        assert log.first_stamp == 3 and log.last_stamp == 5
        assert log.evicted_through == 2
        assert [n.stamp for n in log.replay(2)] == [3, 4, 5]

    def test_resume_behind_horizon_raises_not_gaps(self):
        log = NotificationLog(capacity=2)
        for stamp in range(1, 6):
            log.append(note(stamp))
        with pytest.raises(ResumeGapError):
            log.replay(1)  # stamps 2..3 are gone; silence would gap
        assert [n.stamp for n in log.replay(3)] == [4, 5]

    def test_resume_ahead_of_log_raises(self):
        log = NotificationLog(capacity=4)
        log.append(note(1))
        with pytest.raises(ResumeGapError):
            log.replay(7)  # the log never saw stamp 7: stamps would regress

    def test_gap_error_names_the_oldest_retained_stamp_of_a_frame(self):
        # a frame's ``stamp`` is its *last* stamp; the horizon cut the
        # first frame mid-way, so the oldest retained stamp is 2, not 3
        log = NotificationLog(capacity=5)
        log.append(NoteFrame.build("s", 0, [1, 2, 3], [1.0, 2.0, 3.0], 1, 1))
        log.append(NoteFrame.build("s", 0, [4, 5, 6], [4.0, 5.0, 6.0], 4, 2))
        assert log.first_stamp == 2
        with pytest.raises(ResumeGapError, match=r"oldest retained: 2\)"):
            log.replay(0)

    def test_replay_cuts_a_straddled_frame_to_its_suffix(self):
        log = NotificationLog(capacity=16)
        log.append(note(1))
        log.append(NoteFrame.build("s", 0, [2, 3, 4], [2.0, 3.0, 4.0], 2, 2))
        log.append(note(5))
        assert [n.stamp for n in log.replay(0)] == [1, 4, 5]
        tail = log.replay(2)
        assert [(n.ego, n.stamp) for n in tail[0].notifications()] == [(3, 3), (4, 4)]
        assert [n.stamp for n in tail] == [4, 5]
        assert log.replay(4)[0].stamp == 5

    def test_resume_at_last_stamp_is_empty_not_error(self):
        log = NotificationLog(capacity=4)
        for stamp in (1, 2):
            log.append(note(stamp))
        assert log.replay(2) == []

    def test_truncate_releases_prefix_and_forbids_older_resume(self):
        log = NotificationLog(capacity=10)
        for stamp in range(1, 7):
            log.append(note(stamp))
        assert log.truncate(4) == 4
        assert [n.stamp for n in log.replay(4)] == [5, 6]
        with pytest.raises(ResumeGapError):
            log.replay(3)

    def test_non_monotone_append_rejected(self):
        log = NotificationLog(capacity=4)
        log.append(note(5))
        with pytest.raises(ValueError):
            log.append(note(5))


class TestDiskBacking:
    def test_round_trip_through_reopen(self, tmp_path):
        path = str(tmp_path / "sub.journal")
        log = NotificationLog(capacity=8, path=path)
        for stamp in range(1, 6):
            log.append(note(stamp))
        log.truncate(2)
        log.close()

        reloaded = NotificationLog(capacity=8, path=path)
        assert [n.stamp for n in reloaded.replay(2)] == [3, 4, 5]
        assert reloaded.evicted_through == 2
        with pytest.raises(ResumeGapError):
            reloaded.replay(1)
        # stamps continue where the dead process stopped
        reloaded.append(note(6))
        assert reloaded.last_stamp == 6
        reloaded.close()

    def test_capacity_enforced_across_reload(self, tmp_path):
        path = str(tmp_path / "sub.journal")
        log = NotificationLog(capacity=3, path=path)
        for stamp in range(1, 8):
            log.append(note(stamp))
        log.close()
        reloaded = NotificationLog(capacity=3, path=path)
        assert [n.stamp for n in reloaded.replay(4)] == [5, 6, 7]
        assert reloaded.evicted_through == 4
        reloaded.close()

    def test_torn_tail_frame_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "sub.journal")
        log = NotificationLog(capacity=8, path=path)
        for stamp in (1, 2, 3):
            log.append(note(stamp))
        log.close()
        # Crash mid-append: a torn half-frame at the tail.
        whole = pickle.dumps(("A", note(4)), protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "ab") as fh:
            fh.write(whole[: len(whole) // 2])
        reloaded = NotificationLog(capacity=8, path=path)
        assert [n.stamp for n in reloaded.replay(0)] == [1, 2, 3]
        # recovery truncated the garbage: appends after it must survive
        # the NEXT reload instead of hiding behind the torn bytes
        reloaded.append(note(4))
        reloaded.close()
        again = NotificationLog(capacity=8, path=path)
        assert [n.stamp for n in again.replay(0)] == [1, 2, 3, 4]
        again.close()

    def test_a_half_written_frame_never_hides_later_appends(self, tmp_path):
        path = str(tmp_path / "sub.journal")
        log = NotificationLog(capacity=8, path=path)
        log.append(note(1))

        class HalfFull:
            """The disk fills up in the middle of the next write, once."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                log._file = self.fh
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        log._file = HalfFull(log._file)
        with pytest.raises(OSError, match="disk full"):
            log.append(note(2))
        assert log.last_stamp == 1  # never stamped: the caller re-uses 2
        log.append(note(2))
        log.append(note(3))
        log.close()
        reloaded = NotificationLog(capacity=8, path=path)
        assert [n.stamp for n in reloaded.replay(0)] == [1, 2, 3]
        reloaded.close()

    def test_compaction_bounds_file_size(self, tmp_path):
        path = str(tmp_path / "sub.journal")
        log = NotificationLog(capacity=4, path=path, compact_every=8)
        for stamp in range(1, 41):
            log.append(note(stamp))
        size = os.path.getsize(path)
        log.close()
        # 40 appends at capacity 4, compacting every 8 frames: the file
        # holds at most one snapshot plus a handful of append frames.
        fat_log_size = 40 * len(pickle.dumps(("A", note(1))))
        assert size < fat_log_size / 2
        reloaded = NotificationLog(capacity=4, path=path)
        assert [n.stamp for n in reloaded.replay(36)] == [37, 38, 39, 40]
        reloaded.close()

    def test_subscriber_log_path_distinct_and_safe(self, tmp_path):
        a = subscriber_log_path(str(tmp_path), "client/1")
        b = subscriber_log_path(str(tmp_path), "client_1")
        assert a != b
        assert os.path.dirname(a) == str(tmp_path)
        assert "/" not in os.path.basename(a).replace(".journal", "")


class TestServerJournalDir:
    """Disk-backed resume must survive a *front-end* restart too."""

    def test_resume_across_server_instances(self, tmp_path):
        graph = random_graph(18, 70, seed=61)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        nodes = list(graph.nodes())
        jdir = str(tmp_path / "journals")

        with EAGrServer(
            graph, query, num_shards=2, executor="inprocess",
            overlay_algorithm="vnm_a", journal_dir=jdir,
        ) as first:
            sub = first.subscribe("client", nodes)
            first.write_batch([(n, 2.0) for n in nodes])
            first.drain()
            seen = sub.poll()
            assert seen
        last_stamp = seen[-1].stamp

        # A brand-new front-end (fresh process in production; state fully
        # reloaded from the journal directory) honors the resume token.
        with EAGrServer(
            graph, query, num_shards=2, executor="inprocess",
            overlay_algorithm="vnm_a", journal_dir=jdir,
        ) as second:
            resumed = second.subscribe(
                "client", nodes, resume_from=seen[2].stamp
            )
            replay = resumed.poll()
            assert [n.stamp for n in replay] == [
                n.stamp for n in seen if n.stamp > seen[2].stamp
            ]
            assert [n.value for n in replay] == [
                n.value for n in seen if n.stamp > seen[2].stamp
            ]
            # and live stamps continue after the reloaded history
            second.write_batch([(nodes[0], 9.0)])
            second.drain()
            fresh = resumed.poll()
            assert fresh
            assert fresh[0].stamp == last_stamp + 1

    def test_unsubscribe_retires_journal_file(self, tmp_path):
        graph = random_graph(10, 30, seed=62)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        jdir = str(tmp_path / "journals")
        with EAGrServer(
            graph, query, num_shards=1, executor="inprocess",
            overlay_algorithm="identity", dataflow="all_push",
            journal_dir=jdir,
        ) as server:
            server.subscribe("client", list(graph.nodes()))
            path = subscriber_log_path(jdir, "client")
            assert os.path.exists(path)
            server.unsubscribe("client")
            assert not os.path.exists(path)
