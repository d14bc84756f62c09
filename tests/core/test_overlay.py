"""Unit tests for the aggregation overlay graph structure."""

import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.core.overlay as overlay_module
from repro.core.overlay import Decision, NodeKind, Overlay, OverlayError
from repro.graph.bipartite import BipartiteGraph, build_bipartite
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay import construct_overlay
from tests.overlay.test_construction_extended import pa_edges


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
        for handle in range(built.num_nodes):
            assert built.in_rows(handle) == shared_overlay.in_rows(handle)
            assert built.out_rows(handle) == shared_overlay.out_rows(handle)
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


# ---------------------------------------------------------------------------
# the edge table against a plain-dict model
# ---------------------------------------------------------------------------


class DictOverlay:
    """What an overlay's edges mean, kept in one dict per node and
    direction: ``inputs[v]`` maps source → sign and ``outputs[v]`` lists
    targets, both in insertion order, so a removed-then-re-added edge goes
    last."""

    def __init__(self):
        self.kinds, self.inputs, self.outputs = [], [], []
        self.writer_of, self.reader_of = {}, {}
        self.version, self.dirty = 0, set()

    def add_node(self, kind, table=None, label=None):
        if table is not None and label in table:
            return table[label]
        handle = len(self.kinds)
        self.kinds.append(kind)
        self.inputs.append({})
        self.outputs.append({})
        self.version += 1
        self.dirty.add(handle)
        if table is not None:
            table[label] = handle
        return handle

    def add_edge_error(self, src, dst):
        """The message of the error ``add_edge(src, dst)`` raises, or None."""
        if self.kinds[src] == "reader":
            return "reader nodes cannot feed"
        if self.kinds[dst] == "writer":
            return "writer nodes cannot receive"
        if src == dst:
            return "self loops"
        if dst in self.outputs[src]:
            return "duplicate edge"
        return None

    def touch(self, src, dst):
        self.version += 1
        self.dirty.update((src, dst))

    def edges(self):
        return [
            (src, dst, sign)
            for dst, inputs in enumerate(self.inputs)
            for src, sign in inputs.items()
        ]

    def topological_order(self):
        indegree = [len(inputs) for inputs in self.inputs]
        frontier = [h for h, degree in enumerate(indegree) if degree == 0]
        order = []
        while frontier:
            handle = frontier.pop()
            order.append(handle)
            for dst in self.outputs[handle]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    frontier.append(dst)
        return order if len(order) == len(self.kinds) else None


KIND_CODE = {"writer": 0, "reader": 1, "partial": 2}


class OverlayAgainstDicts(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = Overlay()
        self.model = DictOverlay()
        self.removed = []

    # -- nodes -----------------------------------------------------------

    @rule(label=st.integers(0, 4))
    def add_writer(self, label):
        assert self.overlay.add_writer(label) == self.model.add_node(
            "writer", self.model.writer_of, label
        )

    @rule(label=st.integers(0, 4))
    def add_reader(self, label):
        assert self.overlay.add_reader(label) == self.model.add_node(
            "reader", self.model.reader_of, label
        )

    @rule()
    def add_partial(self):
        assert self.overlay.add_partial() == self.model.add_node("partial")

    # -- edges -----------------------------------------------------------

    def add(self, src, dst, sign):
        error = self.model.add_edge_error(src, dst)
        if error is not None:
            with pytest.raises(OverlayError, match=error):
                self.overlay.add_edge(src, dst, sign)
            return
        self.overlay.add_edge(src, dst, sign)
        self.model.inputs[dst][src] = sign
        self.model.outputs[src][dst] = None
        self.model.touch(src, dst)

    @precondition(lambda self: self.model.kinds)
    @rule(data=st.data(), sign=st.sampled_from((1, -1)))
    def add_edge(self, data, sign):
        handles = st.integers(0, len(self.model.kinds) - 1)
        self.add(data.draw(handles), data.draw(handles), sign)

    @precondition(lambda self: self.removed)
    @rule(data=st.data())
    def re_add_a_removed_edge(self, data):
        src, dst, sign = data.draw(st.sampled_from(self.removed))
        self.add(src, dst, sign)

    @precondition(lambda self: self.model.kinds)
    @rule(data=st.data())
    def remove_edge(self, data):
        edges = self.model.edges()
        handles = st.integers(0, len(self.model.kinds) - 1)
        if edges and data.draw(st.booleans()):
            src, dst, _ = data.draw(st.sampled_from(edges))
        else:
            src, dst = data.draw(handles), data.draw(handles)
        if src not in self.model.inputs[dst]:
            with pytest.raises(OverlayError, match="not present"):
                self.overlay.remove_edge(src, dst)
            return
        sign = self.model.inputs[dst].pop(src)
        del self.model.outputs[src][dst]
        self.model.touch(src, dst)
        assert self.overlay.remove_edge(src, dst) == sign
        self.removed.append((src, dst, sign))

    # -- whole overlays --------------------------------------------------

    @rule()
    def copy(self):
        self.overlay = self.overlay.copy()
        self.model.dirty = set()

    @rule()
    def pickle_round_trip(self):
        self.overlay = pickle.loads(pickle.dumps(self.overlay))

    @rule()
    def pop_dirty(self):
        assert self.overlay.pop_dirty() == self.model.dirty
        self.model.dirty = set()

    @rule()
    def whole_overlay_reads(self):
        model = self.model
        assert list(self.overlay.edges()) == model.edges()
        csr = self.overlay.to_csr()
        assert csr.in_indices == [src for src, _, _ in model.edges()]
        assert csr.in_signs == [sign for _, _, sign in model.edges()]
        assert csr.in_indptr == [0, *itertools.accumulate(map(len, model.inputs))]
        assert csr.fan_in == list(map(len, model.inputs))
        assert csr.out_indices == [dst for outputs in model.outputs for dst in outputs]
        assert csr.out_signs == [
            model.inputs[dst][src] for src, outputs in enumerate(model.outputs) for dst in outputs
        ]
        assert csr.out_indptr == [0, *itertools.accumulate(map(len, model.outputs))]
        assert csr.kinds == [KIND_CODE[kind] for kind in model.kinds]
        assert csr.push == [int(kind == "writer") for kind in model.kinds]
        order = model.topological_order()
        if order is None:
            with pytest.raises(OverlayError, match="cycle"):
                self.overlay.topological_order()
        else:
            assert self.overlay.topological_order() == order

    @invariant()
    def each_node_reads_as_the_model(self):
        overlay, model = self.overlay, self.model
        n = len(model.kinds)
        assert overlay.num_nodes == n
        for handle in range(n):
            inputs, outputs = model.inputs[handle], model.outputs[handle]
            assert overlay.in_rows(handle) == (list(inputs), list(inputs.values()))
            assert overlay.out_rows(handle) == (
                list(outputs),
                [model.inputs[dst][handle] for dst in outputs],
            )
            assert overlay.fan_in(handle) == len(inputs)
            for dst in range(n):
                assert overlay.has_edge(handle, dst) == (dst in outputs)
        assert overlay.num_edges == sum(map(len, model.inputs))
        assert overlay.num_negative_edges == sum(
            sign < 0 for inputs in model.inputs for sign in inputs.values()
        )
        assert overlay.version == model.version


@pytest.mark.parametrize("merge_min", [1, 256], ids=["merge-often", "merge-at-default"])
def test_overlay_matches_a_dict_model(merge_min, monkeypatch):
    """Every node's rows, ``edges()``, ``to_csr()`` and the topological
    order equal a plain-dict model's through random edits, copies and
    pickle round trips, whether per-node reads merge the CSR after every
    edit or two or read the rows edits patched since the last merge."""
    monkeypatch.setattr(overlay_module, "_MERGE_MIN", merge_min)
    run_state_machine_as_test(
        OverlayAgainstDicts,
        settings=settings(max_examples=60, stateful_step_count=40, deadline=None),
    )


# ---------------------------------------------------------------------------
# what the table costs
# ---------------------------------------------------------------------------


def test_copy_holds_a_third_of_the_dict_overlay():
    """``Overlay.copy()`` of a ``vnm_a`` overlay on the suite's 3 000-node
    preferential-attachment graph allocates at most a third of what the
    per-node ``inputs`` / ``outputs`` dicts did: 154.9 bytes per edge there
    (19 621 edges, 3 039 776 bytes under tracemalloc, numpy 2.4 / Python
    3.11), against three int64 columns and a mask (25 bytes) plus the node
    lists and label maps with this storage."""
    graph = DynamicGraph.from_edges(pa_edges(3000, 8, random.Random(25)))
    ag = build_bipartite(graph, Neighborhood.in_neighbors())
    overlay = construct_overlay(ag, "vnm_a").overlay
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clone = overlay.copy()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert clone.num_edges == overlay.num_edges
    assert held / overlay.num_edges <= DICT_COPY_BYTES_PER_EDGE / 3


#: bytes per edge of the dict overlay's copy in the test above
DICT_COPY_BYTES_PER_EDGE = 154.9


def test_iob_merges_the_csr_far_less_often_than_it_edits(monkeypatch):
    """IOB interleaves edge edits with per-node reads; a read takes the
    CSR row plus the edits since the last merge, so the CSR is merged far
    less often than the overlay is edited."""
    counts = {"edits": 0, "merges": 0}

    def counting(name, key):
        method = getattr(Overlay, name)

        def counted(self, *args, **kwargs):
            counts[key] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(Overlay, name, counted)

    counting("add_edge", "edits")
    counting("remove_edge", "edits")
    counting("_merge", "merges")
    ag = build_bipartite(random_graph(400, 3000, seed=3), Neighborhood.in_neighbors())
    construct_overlay(ag, "iob")
    assert counts["edits"] > 1000
    assert counts["merges"] < counts["edits"] / 16
