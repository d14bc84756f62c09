"""Unit tests for the aggregation overlay graph structure."""

import numpy as np
import pytest

from repro.core.overlay import Decision, NodeKind, Overlay, OverlayError
from repro.graph.bipartite import BipartiteGraph


@pytest.fixture
def small_ag():
    return BipartiteGraph({"r1": ("w1", "w2"), "r2": ("w1", "w2", "w3")})


@pytest.fixture
def shared_overlay(small_ag):
    """w1,w2 -> PA -> {r1, r2};  w3 -> r2."""
    ov = Overlay()
    w1, w2, w3 = ov.add_writer("w1"), ov.add_writer("w2"), ov.add_writer("w3")
    r1, r2 = ov.add_reader("r1"), ov.add_reader("r2")
    pa = ov.add_partial()
    ov.add_edge(w1, pa)
    ov.add_edge(w2, pa)
    ov.add_edge(pa, r1)
    ov.add_edge(pa, r2)
    ov.add_edge(w3, r2)
    return ov


class TestStructure:
    def test_node_handles_dense(self, shared_overlay):
        assert shared_overlay.num_nodes == 6
        assert shared_overlay.num_partials == 1

    def test_add_writer_idempotent(self):
        ov = Overlay()
        assert ov.add_writer("w") == ov.add_writer("w")

    def test_reader_cannot_feed(self, shared_overlay):
        r1 = shared_overlay.reader_of["r1"]
        pa = next(shared_overlay.partial_handles())
        with pytest.raises(OverlayError):
            shared_overlay.add_edge(r1, pa)

    def test_writer_cannot_receive(self, shared_overlay):
        w1 = shared_overlay.writer_of["w1"]
        pa = next(shared_overlay.partial_handles())
        with pytest.raises(OverlayError):
            shared_overlay.add_edge(pa, w1)

    def test_duplicate_edge_rejected(self, shared_overlay):
        w1 = shared_overlay.writer_of["w1"]
        pa = next(shared_overlay.partial_handles())
        with pytest.raises(OverlayError):
            shared_overlay.add_edge(w1, pa)

    def test_self_loop_rejected(self, shared_overlay):
        pa = next(shared_overlay.partial_handles())
        with pytest.raises(OverlayError):
            shared_overlay.add_edge(pa, pa)

    def test_bad_sign_rejected(self, shared_overlay):
        w3 = shared_overlay.writer_of["w3"]
        r1 = shared_overlay.reader_of["r1"]
        with pytest.raises(OverlayError):
            shared_overlay.add_edge(w3, r1, sign=2)

    def test_remove_edge_returns_sign(self):
        ov = Overlay()
        w = ov.add_writer("w")
        r = ov.add_reader("r")
        ov.add_edge(w, r, sign=-1)
        assert ov.remove_edge(w, r) == -1
        assert ov.num_edges == 0

    def test_remove_missing_edge_raises(self, shared_overlay):
        with pytest.raises(OverlayError):
            shared_overlay.remove_edge(0, 1)

    def test_edges_iterator_with_signs(self):
        ov = Overlay()
        w = ov.add_writer("w")
        r = ov.add_reader("r")
        ov.add_edge(w, r, sign=-1)
        assert list(ov.edges()) == [(w, r, -1)]
        assert ov.num_negative_edges == 1


class TestFromRows:
    """``Overlay.from_rows`` keeps ``add_edge``'s rules for a whole table."""

    #: w1, w2, w3 are handles 0-2, r1, r2 are 3-4 and the partial is 5
    ROWS = [(0, 5), (1, 5), (5, 3), (5, 4), (2, 4)]

    @staticmethod
    def build(rows, sign=None):
        src = np.array([s for s, _ in rows], dtype=np.int64)
        dst = np.array([d for _, d in rows], dtype=np.int64)
        sign = np.ones(len(rows), dtype=np.int64) if sign is None else np.array(sign)
        return Overlay.from_rows(["w1", "w2", "w3"], ["r1", "r2"], 1, src, dst, sign, 0)

    def test_same_dicts_as_edge_by_edge(self, shared_overlay):
        built = self.build(self.ROWS)
        assert built.inputs == shared_overlay.inputs
        assert built.outputs == shared_overlay.outputs
        assert built.num_edges == shared_overlay.num_edges

    @pytest.mark.parametrize(
        "extra",
        [(0, 5), (3, 5), (5, 0), (5, 5), (0, 6)],
        ids=["duplicate", "reader-source", "writer-target", "self-loop", "no-such-handle"],
    )
    def test_rejects_a_row_add_edge_rejects(self, extra):
        with pytest.raises(OverlayError):
            self.build(self.ROWS + [extra])

    def test_rejects_a_bad_sign(self):
        with pytest.raises(OverlayError):
            self.build(self.ROWS, sign=[1, 1, 2, 1, 1])


class TestDecisions:
    def test_writers_default_push_others_pull(self, shared_overlay):
        for handle in shared_overlay.writer_handles():
            assert shared_overlay.decisions[handle] is Decision.PUSH
        for handle in shared_overlay.reader_handles():
            assert shared_overlay.decisions[handle] is Decision.PULL

    def test_writer_cannot_be_pull(self, shared_overlay):
        w = shared_overlay.writer_of["w1"]
        with pytest.raises(OverlayError):
            shared_overlay.set_decision(w, Decision.PULL)

    def test_consistency_detection(self, shared_overlay):
        pa = next(shared_overlay.partial_handles())
        r1 = shared_overlay.reader_of["r1"]
        shared_overlay.set_decision(r1, Decision.PUSH)  # pull pa feeds push r1
        assert not shared_overlay.decisions_consistent()
        shared_overlay.set_decision(pa, Decision.PUSH)
        assert shared_overlay.decisions_consistent()

    def test_set_all(self, shared_overlay):
        shared_overlay.set_all_decisions(Decision.PUSH)
        assert shared_overlay.decisions_consistent()
        assert all(d is Decision.PUSH for d in shared_overlay.decisions)


class TestTraversal:
    def test_topological_order(self, shared_overlay):
        order = shared_overlay.topological_order()
        position = {h: i for i, h in enumerate(order)}
        for src, dst, _ in shared_overlay.edges():
            assert position[src] < position[dst]

    def test_cycle_detected(self):
        ov = Overlay()
        a, b = ov.add_partial(), ov.add_partial()
        ov.add_edge(a, b)
        ov.add_edge(b, a)
        with pytest.raises(OverlayError):
            ov.topological_order()

    def test_upstream_downstream(self, shared_overlay):
        pa = next(shared_overlay.partial_handles())
        r2 = shared_overlay.reader_of["r2"]
        w1 = shared_overlay.writer_of["w1"]
        assert shared_overlay.upstream(r2) == {
            pa,
            w1,
            shared_overlay.writer_of["w2"],
            shared_overlay.writer_of["w3"],
        }
        assert shared_overlay.downstream(w1) == {
            pa,
            shared_overlay.reader_of["r1"],
            r2,
        }


class TestCoverageAndValidation:
    def test_coverage_through_partial(self, shared_overlay):
        r2 = shared_overlay.reader_of["r2"]
        cover = shared_overlay.coverage(r2)
        labels = {shared_overlay.labels[h]: m for h, m in cover.items()}
        assert labels == {"w1": 1, "w2": 1, "w3": 1}

    def test_validate_accepts_correct(self, shared_overlay, small_ag):
        shared_overlay.validate(small_ag)

    def test_validate_rejects_missing_writer(self, small_ag):
        ov = Overlay.identity(small_ag)
        ov.remove_edge(ov.writer_of["w1"], ov.reader_of["r1"])
        with pytest.raises(OverlayError):
            ov.validate(small_ag)

    def test_validate_rejects_duplicate_path(self, shared_overlay, small_ag):
        # Add a second (direct) path w1 -> r1: multiplicity 2.
        shared_overlay.add_edge(
            shared_overlay.writer_of["w1"], shared_overlay.reader_of["r1"]
        )
        with pytest.raises(OverlayError):
            shared_overlay.validate(small_ag)
        # ... which is fine for duplicate-insensitive aggregates.
        shared_overlay.validate(small_ag, duplicate_insensitive=True)

    def test_validate_negative_edge_cancellation(self, small_ag):
        # PA over {w1, w2, w3} serves r1 with a negative w3 edge.
        ov = Overlay()
        handles = {w: ov.add_writer(w) for w in ("w1", "w2", "w3")}
        r1, r2 = ov.add_reader("r1"), ov.add_reader("r2")
        pa = ov.add_partial()
        for w in handles.values():
            ov.add_edge(w, pa)
        ov.add_edge(pa, r1)
        ov.add_edge(handles["w3"], r1, sign=-1)
        ov.add_edge(pa, r2)
        ov.validate(small_ag)

    def test_validate_rejects_negative_edges_for_dup_insensitive(self, small_ag):
        ov = Overlay.identity(small_ag)
        ov.remove_edge(ov.writer_of["w3"], ov.reader_of["r2"])
        pa = ov.add_partial()
        ov.add_edge(ov.writer_of["w3"], pa)
        ov.add_edge(pa, ov.reader_of["r2"])
        ov.add_edge(pa, ov.reader_of["r1"])
        ov.add_edge(ov.writer_of["w3"], ov.reader_of["r1"], sign=-1)
        ov.validate(small_ag)  # fine for SUM-like
        with pytest.raises(OverlayError):
            ov.validate(small_ag, duplicate_insensitive=True)

    def test_validate_rejects_spurious_writer(self, small_ag):
        ov = Overlay.identity(small_ag)
        ov.add_edge(ov.writer_of["w3"], ov.reader_of["r1"])
        with pytest.raises(OverlayError):
            ov.validate(small_ag)


class TestMetricsAndCopy:
    def test_identity_overlay(self, small_ag):
        ov = Overlay.identity(small_ag)
        assert ov.num_edges == small_ag.num_edges
        assert ov.sharing_index(small_ag) == 0.0
        ov.validate(small_ag)

    def test_sharing_index(self, shared_overlay, small_ag):
        assert shared_overlay.sharing_index(small_ag) == 0.0  # 5 edges == 5 edges

    def test_reader_depths(self, shared_overlay):
        depths = shared_overlay.reader_depths()
        assert depths[shared_overlay.reader_of["r1"]] == 2
        assert depths[shared_overlay.reader_of["r2"]] == 2

    def test_copy_independent(self, shared_overlay, small_ag):
        clone = shared_overlay.copy()
        clone.remove_edge(clone.writer_of["w3"], clone.reader_of["r2"])
        shared_overlay.validate(small_ag)  # original untouched
        assert clone.num_edges == shared_overlay.num_edges - 1

    def test_memory_estimate_positive(self, shared_overlay):
        assert shared_overlay.memory_estimate() > 0
