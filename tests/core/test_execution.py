"""Unit tests for the overlay execution runtime."""

import pytest

from repro.core.aggregates import Max, Sum, TopK
from repro.core.execution import Runtime
from repro.core.overlay import Decision, Overlay, OverlayError
from repro.core.query import EgoQuery
from repro.core.windows import TimeWindow, TupleWindow
from repro.graph.neighborhoods import Neighborhood


def shared_overlay():
    """w1,w2 -> PA -> {r1, r2};  w3 -> r2 (handles returned for poking)."""
    ov = Overlay()
    w = {name: ov.add_writer(name) for name in ("w1", "w2", "w3")}
    r1, r2 = ov.add_reader("r1"), ov.add_reader("r2")
    pa = ov.add_partial()
    ov.add_edge(w["w1"], pa)
    ov.add_edge(w["w2"], pa)
    ov.add_edge(pa, r1)
    ov.add_edge(pa, r2)
    ov.add_edge(w["w3"], r2)
    return ov, w, (r1, r2), pa


def make_runtime(decisions="push", aggregate=None, window=None, **kwargs):
    ov, w, readers, pa = shared_overlay()
    if decisions == "push":
        ov.set_all_decisions(Decision.PUSH)
    query = EgoQuery(
        aggregate=aggregate or Sum(), window=window or TupleWindow(1)
    )
    return Runtime(ov, query, **kwargs), ov, w, readers, pa


class TestPushExecution:
    def test_sum_propagates(self):
        rt, ov, w, (r1, r2), pa = make_runtime("push")
        rt.write("w1", 3.0)
        rt.write("w2", 4.0)
        rt.write("w3", 5.0)
        assert rt.read("r1") == 7.0
        assert rt.read("r2") == 12.0

    def test_window_replacement(self):
        rt, *_ = make_runtime("push")
        rt.write("w1", 3.0)
        rt.write("w1", 10.0)  # tuple window of 1: replaces
        assert rt.read("r1") == 10.0

    def test_unknown_writer_dropped(self):
        rt, *_ = make_runtime("push")
        rt.write("ghost", 1.0)
        assert rt.read("r1") == 0.0

    def test_unknown_reader_gets_identity(self):
        rt, *_ = make_runtime("push")
        assert rt.read("ghost") == 0.0

    def test_counters(self):
        rt, *_ = make_runtime("push")
        rt.write("w1", 1.0)
        rt.read("r1")
        assert rt.counters.writes == 1
        assert rt.counters.reads == 1
        assert rt.counters.push_ops >= 2  # pa and r1 at least

    def test_max_fast_path_and_recompute(self):
        rt, ov, w, (r1, r2), pa = make_runtime("push", aggregate=Max())
        rt.write("w1", 5.0)
        rt.write("w2", 3.0)
        assert rt.read("r1") == 5.0
        rt.write("w1", 1.0)  # the max shrinks: forces recompute path
        assert rt.read("r1") == 3.0

    def test_topk_counts(self):
        rt, *_ = make_runtime("push", aggregate=TopK(2), window=TupleWindow(3))
        for value in ("x", "y", "x"):
            rt.write("w1", value)
        assert rt.read("r1") == [("x", 2), ("y", 1)]


class TestPullExecution:
    def test_all_pull(self):
        rt, ov, w, (r1, r2), pa = make_runtime("pull")
        rt.write("w1", 3.0)
        rt.write("w3", 5.0)
        assert rt.read("r2") == 8.0
        assert rt.counters.pull_ops > 0
        assert rt.counters.push_ops == 0

    def test_mixed_frontier(self):
        ov, w, (r1, r2), pa = shared_overlay()
        ov.set_decision(pa, Decision.PUSH)  # pa push, readers pull
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("w1", 2.0)
        rt.write("w2", 3.0)
        assert rt.read("r1") == 5.0
        # writes reached pa but stopped there
        assert rt.values[r1] is None

    def test_inconsistent_decisions_rejected(self):
        ov, w, (r1, r2), pa = shared_overlay()
        ov.set_decision(r1, Decision.PUSH)  # pull pa feeding push r1
        with pytest.raises(OverlayError):
            Runtime(ov, EgoQuery(aggregate=Sum()))


class TestNegativeEdges:
    def make_negative(self):
        """pa = w1+w2+w3 -> r1 with negative w3; direct w3 -> r2... plus r2=pa."""
        ov = Overlay()
        w = {name: ov.add_writer(name) for name in ("w1", "w2", "w3")}
        r1, r2 = ov.add_reader("r1"), ov.add_reader("r2")
        pa = ov.add_partial()
        for h in w.values():
            ov.add_edge(h, pa)
        ov.add_edge(pa, r1)
        ov.add_edge(w["w3"], r1, sign=-1)  # r1 = w1 + w2
        ov.add_edge(pa, r2)  # r2 = w1 + w2 + w3
        return ov, w, r1, r2

    def test_push_subtracts(self):
        ov, w, r1, r2 = self.make_negative()
        ov.set_all_decisions(Decision.PUSH)
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("w1", 1.0)
        rt.write("w2", 2.0)
        rt.write("w3", 10.0)
        assert rt.read("r1") == 3.0
        assert rt.read("r2") == 13.0

    def test_pull_subtracts(self):
        ov, w, r1, r2 = self.make_negative()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("w3", 10.0)
        rt.write("w1", 4.0)
        assert rt.read("r1") == 4.0

    def test_negative_edges_need_subtractable(self):
        ov, w, r1, r2 = self.make_negative()
        with pytest.raises(OverlayError):
            Runtime(ov, EgoQuery(aggregate=Max()))


class TestTimeWindows:
    def test_expiry_updates_push_state(self):
        rt, ov, w, (r1, r2), pa = make_runtime(
            "push", window=TimeWindow(10.0)
        )
        rt.write("w1", 5.0, timestamp=0.0)
        rt.write("w2", 7.0, timestamp=1.0)
        assert rt.read("r1") == 12.0
        # Advance the clock past w1's lifetime ([0, 10)) but inside w2's.
        rt.write("w3", 1.0, timestamp=10.5)
        assert rt.read("r1") == 7.0

    def test_expiry_affects_pull_reads(self):
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum(), window=TimeWindow(5.0)))
        rt.write("w1", 5.0, timestamp=0.0)
        rt.write("w1", 2.0, timestamp=4.0)
        assert rt.read("r1") == 7.0
        rt.write("w2", 0.0, timestamp=20.0)
        assert rt.read("r1") == 0.0

    def test_multiple_values_in_window(self):
        rt, *_ = make_runtime("push", window=TimeWindow(100.0))
        rt.write("w1", 1.0, timestamp=1.0)
        rt.write("w1", 2.0, timestamp=2.0)
        rt.write("w1", 3.0, timestamp=3.0)
        assert rt.read("r1") == 6.0


class TestDecisionFlips:
    def test_flip_to_push_materializes(self):
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("w1", 5.0)
        rt.set_decision(pa, Decision.PUSH)
        assert rt.values[pa] == 5.0
        rt.write("w2", 2.0)
        assert rt.read("r1") == 7.0

    def test_flip_to_pull_discards(self):
        rt, ov, w, (r1, r2), pa = make_runtime("push")
        rt.write("w1", 5.0)
        rt.set_decision(r1, Decision.PULL)
        assert rt.values[r1] is None
        assert rt.read("r1") == 5.0

    def test_flip_guard_non_frontier(self):
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        with pytest.raises(OverlayError):
            rt.set_decision(r1, Decision.PUSH)  # its input pa is pull

    def test_flip_guard_push_consumer(self):
        rt, ov, w, (r1, r2), pa = make_runtime("push")
        with pytest.raises(OverlayError):
            rt.set_decision(pa, Decision.PULL)  # its consumers are push

    def test_flip_noop(self):
        rt, ov, w, (r1, r2), pa = make_runtime("push")
        rt.set_decision(pa, Decision.PUSH)  # no change, no error


class TestObservedCounters:
    def test_would_be_pushes_counted_at_frontier(self):
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))  # all pull
        rt.write("w1", 1.0)
        rt.write("w1", 2.0)
        assert rt.observed_push[pa] == 2  # stopped there, still counted

    def test_pull_visits_counted(self):
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.read("r1")
        assert rt.observed_pull[r1] == 1
        assert rt.observed_pull[pa] == 1


class TestRebuildAndTrace:
    def test_rebuild_preserves_windows(self):
        rt, ov, w, (r1, r2), pa = make_runtime("push", window=TupleWindow(2))
        rt.write("w1", 1.0)
        rt.write("w1", 2.0)
        rt.rebuild()
        assert rt.read("r1") == 3.0
