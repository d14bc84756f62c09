"""The array decision passes against their per-handle definitions.

:mod:`repro.dataflow.passes` computes f_h / f_l, the weights, the P1/P2
peel, the cost and the consistency check over one CSR of the overlay;
``tests/dataflow/reference.py`` walks the overlay handle by handle.  Every
float must agree bit for bit, and a decision run must leave the same
decisions, statistics, ``decision_version`` and dirty set.  Overlays are
random DAGs with negative edges, interleaved node kinds and shuffled edge
insertion order; frequencies mix missing entries, zeros and small integers,
so that zero-weight ties (whose P1/P2 label depends on the FIFO order) come
up often.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.overlay import Decision, NodeKind, Overlay
from repro.dataflow import passes
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel, compute_push_pull_frequencies
from repro.dataflow.mincut import assignment_cost, decide_dataflow, node_weights
from repro.dataflow.pruning import prune
from repro.graph.bipartite import build_bipartite
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay.vnm import build_vnm

from tests.dataflow import reference
from tests.overlay.test_construction_extended import pa_edges

LABELS = range(8)


@st.composite
def overlays(draw):
    """A random overlay: kinds in random handle order, a DAG of edges
    (partials ranked by a hidden order) inserted in random order, some
    negative."""
    kinds = draw(
        st.permutations(
            [NodeKind.WRITER] * draw(st.integers(1, 6))
            + [NodeKind.PARTIAL] * draw(st.integers(0, 7))
            + [NodeKind.READER] * draw(st.integers(1, 8))
        )
    )
    writer_labels = iter(draw(st.permutations(LABELS)))
    reader_labels = iter(draw(st.permutations(LABELS)))
    overlay = Overlay()
    for kind in kinds:
        if kind is NodeKind.WRITER:
            overlay.add_writer(next(writer_labels))
        elif kind is NodeKind.READER:
            overlay.add_reader(next(reader_labels))
        else:
            overlay.add_partial()
    partials = [h for h, kind in enumerate(overlay.kinds) if kind is NodeKind.PARTIAL]
    rank = dict(zip(partials, draw(st.permutations(range(len(partials))))))
    sources = list(overlay.writer_of.values()) + partials
    targets = partials + list(overlay.reader_of.values())
    allowed = [
        (src, dst)
        for src in sources
        for dst in targets
        if src != dst
        and not (overlay.kinds[src] is NodeKind.PARTIAL and dst in rank and rank[src] > rank[dst])
    ]
    if allowed:
        pairs = draw(st.lists(st.sampled_from(allowed), unique=True, max_size=40))
        for src, dst in pairs:
            overlay.add_edge(src, dst, draw(st.sampled_from((1, 1, -1))))
    return overlay


def frequency_values():
    return st.one_of(
        st.none(),  # missing: reads as 0
        st.sampled_from([0.0, 1.0, 2.0]),  # ties
        st.sampled_from([0.1, 0.2, 0.3, 0.7]),  # sums that depend on their order
        st.floats(0.0, 10.0, allow_nan=False),
    )


@st.composite
def models(draw):
    read = {label: draw(frequency_values()) for label in LABELS}
    write = {label: draw(frequency_values()) for label in LABELS}
    if draw(st.booleans()):  # uniform integers: zero weights are common
        level = draw(st.sampled_from([0.0, 1.0, 2.0]))
        read = {label: level for label in LABELS}
        write = {label: level for label in LABELS}
    return FrequencyModel(
        read={k: v for k, v in read.items() if v is not None},
        write={k: v for k, v in write.items() if v is not None},
    )


def cost_models():
    units = st.sampled_from([0.5, 1.0, 2.0])
    return st.one_of(
        st.builds(CostModel.constant_linear, units, units),
        st.builds(CostModel.log_linear, units, units),
    )


def bits(values):
    return [float(v).hex() for v in values]


def stats_bits(stats):
    fields = dict(vars(stats))
    fields["total_cost"] = float(fields["total_cost"]).hex()
    return fields


def decision_edges(overlay, weights):
    return [(s, d) for s, d, _ in overlay.edges() if s in weights and d in weights]


def assert_same_run(overlay, model, cost_model, window_size, use_pruning, force):
    """The array pipeline and the reference, each on its own copy."""
    ours, theirs = overlay.copy(), overlay.copy()
    got = decide_dataflow(
        ours, model, cost_model, window_size=window_size,
        use_pruning=use_pruning, force_push_readers=force,
    )
    want = reference.decide_dataflow(
        theirs, model, cost_model, window_size=window_size,
        use_pruning=use_pruning, force_push_readers=force,
    )
    assert ours.decisions == theirs.decisions
    assert stats_bits(got) == stats_bits(want)
    assert ours.decision_version == theirs.decision_version
    assert ours.pop_dirty() == theirs.pop_dirty()


class TestAgainstReference:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(overlay=overlays(), model=models(), cost_model=cost_models(), force=st.booleans())
    def test_frequencies_and_weights_bit_for_bit(self, overlay, model, cost_model, force):
        fh, fl = compute_push_pull_frequencies(overlay, model)
        ref_fh, ref_fl = reference.frequencies(overlay, model)
        assert bits(fh) == bits(ref_fh)
        assert bits(fl) == bits(ref_fl)
        forced = set(overlay.reader_of.values()) if force else set()
        got = node_weights(overlay, fh, fl, cost_model, force_push=forced)
        want = reference.node_weights(overlay, ref_fh, ref_fl, cost_model, force_push=forced)
        assert list(got) == list(want)
        assert bits(got.values()) == bits(want.values())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(overlay=overlays(), model=models(), cost_model=cost_models(), force=st.booleans())
    def test_same_p1_p2_labels(self, overlay, model, cost_model, force):
        fh, fl = reference.frequencies(overlay, model)
        forced = set(overlay.reader_of.values()) if force else set()
        weights = reference.node_weights(overlay, fh, fl, cost_model, force_push=forced)
        edges = decision_edges(overlay, weights)
        got, want = prune(weights, edges), reference.prune(weights, edges)
        assert got.pushed == want.pushed
        assert got.pulled == want.pulled
        assert got.remaining_nodes == want.remaining_nodes
        assert got.remaining_edges == want.remaining_edges

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        overlay=overlays(),
        model=models(),
        cost_model=cost_models(),
        window_size=st.sampled_from([1.0, 4.0]),
        use_pruning=st.booleans(),
        force=st.booleans(),
        start_push=st.booleans(),
    )
    def test_same_decisions_stats_and_dirty_set(
        self, overlay, model, cost_model, window_size, use_pruning, force, start_push
    ):
        if start_push:  # every decision that flips must be counted
            overlay.set_all_decisions(Decision.PUSH)
        overlay.pop_dirty()
        assert_same_run(overlay, model, cost_model, window_size, use_pruning, force)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(overlay=overlays(), model=models(), cost_model=cost_models(), seed=st.integers(0, 99))
    def test_cost_and_consistency_of_any_assignment(self, overlay, model, cost_model, seed):
        rng = random.Random(seed)
        for handle, kind in enumerate(overlay.kinds):
            if kind is not NodeKind.WRITER:
                overlay.set_decision(handle, rng.choice(list(Decision)))
        fh, fl = reference.frequencies(overlay, model)
        got = assignment_cost(overlay, fh, fl, cost_model, window_size=4.0)
        want = reference.assignment_cost(overlay, fh, fl, cost_model, window_size=4.0)
        assert float(got).hex() == float(want).hex()
        expected = reference.decisions_consistent(overlay)
        assert overlay.decisions_consistent() is expected
        graph = passes.DecisionGraph(overlay)
        assert passes.consistent(graph, graph.overlay.push_mask()) is expected


def test_pull_frequency_adds_outputs_in_reversed_topological_order():
    """``w`` feeds three readers; the stack-based topological order emits
    them last-added first, so ``f_l(w)`` adds them in insertion order, and
    ``(0.1 + 0.2) + 0.3`` is not ``(0.3 + 0.2) + 0.1``."""
    overlay = Overlay()
    writer = overlay.add_writer("w")
    for label in ("a", "b", "c"):
        overlay.add_edge(writer, overlay.add_reader(label))
    model = FrequencyModel(read={"a": 0.1, "b": 0.2, "c": 0.3})
    _, fl = compute_push_pull_frequencies(overlay, model)
    assert fl[writer] == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert bits(fl) == bits(reference.frequencies(overlay, model)[1])


@pytest.mark.parametrize(
    "order, label", [(("z", "a", "b"), "pushed"), (("b", "z", "a"), "pulled")]
)
def test_zero_weight_label_follows_the_fifo(order, label):
    """``a(+) → z(0) → b(−)``: ``z`` meets P1 once ``a`` is gone and P2
    once ``b`` is.  Popped first, it waits for both and P1 wins; popped
    after ``b``, P2 takes it before ``a`` leaves."""
    weights = {node: {"a": 1.0, "z": 0.0, "b": -1.0}[node] for node in order}
    edges = [("a", "z"), ("z", "b")]
    got, want = prune(weights, edges), reference.prune(weights, edges)
    assert "z" in getattr(want, label)
    assert (got.pushed, got.pulled) == (want.pushed, want.pulled)


@pytest.fixture(scope="module")
def pa_overlay():
    """The VNM golden digests' 3 000-node graph of the suite's family."""
    graph = DynamicGraph.from_edges(pa_edges(3000, 8, random.Random(25)))
    ag = build_bipartite(graph, Neighborhood.in_neighbors())
    return graph, build_vnm(ag, variant="vnm_a").overlay


@pytest.mark.parametrize("write_read_ratio", [10.0, 0.1])
@pytest.mark.parametrize("force", [False, True])
def test_pa_graph_matches_reference(pa_overlay, write_read_ratio, force):
    graph, overlay = pa_overlay
    model = FrequencyModel.zipf(graph.nodes(), write_read_ratio=write_read_ratio, seed=3)
    fh, fl = compute_push_pull_frequencies(overlay, model)
    ref_fh, ref_fl = reference.frequencies(overlay, model)
    assert bits(fh) == bits(ref_fh) and bits(fl) == bits(ref_fl)
    assert_same_run(overlay, model, CostModel.constant_linear(), 4.0, True, force)


def test_decision_graph_lists_edges_in_overlay_order(pa_overlay):
    _, overlay = pa_overlay
    graph = passes.DecisionGraph(overlay)
    assert list(zip(graph.src.tolist(), graph.dst.tolist())) == [
        (s, d) for s, d, _ in overlay.edges()
    ]
    assert graph.order.tolist() == overlay.topological_order()
    assert np.array_equal(np.diff(graph.indptr), graph.fan_in)
