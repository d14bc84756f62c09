"""Tests for partial pre-computation by node splitting (Section 4.7)."""

import pytest

from repro.core.aggregates import Sum
from repro.core.overlay import NodeKind, Overlay
from repro.core.query import EgoQuery
from repro.dataflow.costs import CostModel
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.splitting import best_split, split_nodes
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_graph
from repro.graph.neighborhoods import Neighborhood


class TestBestSplit:
    def test_figure7_shape(self):
        # Figure 7's shape with numbers that actually favour a split under
        # H(k)=1: four quiet inputs and one very hot input, few pulls.
        # Unsplit: push costs 110, pull costs 10*L(5)=50.  Splitting the
        # quiet four: 10 pushes + 10*L(2)=20 -> 30.
        model = CostModel.constant_linear()
        choice = best_split([1.0, 2.0, 3.0, 4.0, 100.0], pull_freq=10.0,
                            push_freq=110.0, cost_model=model)
        assert choice is not None
        split_at, cost = choice
        assert split_at == 4
        unsplit = min(110.0 * 1.0, 10.0 * 5.0)
        assert cost < unsplit

    def test_uniform_inputs_do_not_split(self):
        model = CostModel.constant_linear()
        assert best_split([5.0] * 6, 5.0, 30.0, model) is None

    def test_small_fan_in_never_splits(self):
        model = CostModel.constant_linear()
        assert best_split([1.0, 100.0], 10.0, 101.0, model) is None

    def test_cost_is_minimum_over_prefixes(self):
        model = CostModel.constant_linear()
        freqs = [0.1, 0.2, 30.0, 40.0]
        choice = best_split(freqs, pull_freq=8.0, push_freq=70.3, cost_model=model)
        if choice is not None:
            split_at, cost = choice
            prefix = sum(freqs[:split_at])
            expected = prefix * model.push_cost(split_at) + 8.0 * model.pull_cost(
                len(freqs) - split_at + 1
            )
            assert cost == pytest.approx(expected)


class TestSplitNodes:
    def figure7_overlay(self):
        """An aggregation node with four quiet writers and one hot one."""
        ag = BipartiteGraph({"r": ("a", "b", "c", "d", "e")})
        overlay = Overlay.identity(ag)
        frequencies = FrequencyModel(
            read={"r": 10.0},
            write={"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 100.0},
        )
        return ag, overlay, frequencies

    def test_creates_split_node(self):
        ag, overlay, frequencies = self.figure7_overlay()
        created = split_nodes(overlay, frequencies)
        assert len(created) == 1
        new = created[0]
        assert overlay.kinds[new] is NodeKind.PARTIAL
        # The quiet four moved behind the new node.
        assert overlay.fan_in(new) == 4
        overlay.validate(ag)

    def test_hot_input_stays_direct(self):
        ag, overlay, frequencies = self.figure7_overlay()
        split_nodes(overlay, frequencies)
        r = overlay.reader_of["r"]
        e = overlay.writer_of["e"]
        assert overlay.has_edge(e, r)

    def test_no_split_on_uniform(self):
        ag = BipartiteGraph({"r": ("a", "b", "c", "d")})
        overlay = Overlay.identity(ag)
        frequencies = FrequencyModel.uniform(["a", "b", "c", "d", "r"])
        assert split_nodes(overlay, frequencies) == []

    def test_negative_input_nodes_skipped(self):
        ag = BipartiteGraph({"r": ("a", "b", "c")})
        overlay = Overlay()
        handles = {w: overlay.add_writer(w) for w in ("a", "b", "c", "x")}
        r = overlay.add_reader("r")
        pa = overlay.add_partial()
        for w in ("a", "b", "c", "x"):
            overlay.add_edge(handles[w], pa)
        overlay.add_edge(pa, r)
        overlay.add_edge(handles["x"], r, sign=-1)
        frequencies = FrequencyModel(
            read={"r": 50.0},
            write={"a": 0.1, "b": 0.2, "c": 0.3, "x": 90.0},
        )
        created = split_nodes(overlay, frequencies)
        # r has a negative input: skipped; pa has uniform-ish quiet inputs
        # but may legitimately split — correctness must hold either way.
        overlay.validate(ag)
        for handle in created:
            assert all(s > 0 for s in overlay.in_rows(handle)[1])

    def test_execution_equivalence_after_splitting(self):
        from repro.core.engine import EAGrEngine
        from tests.conftest import make_events, play_and_check

        graph = random_graph(25, 120, seed=31)
        frequencies = FrequencyModel.zipf(graph.nodes(), seed=5)
        query = EgoQuery(aggregate=Sum(), neighborhood=Neighborhood.in_neighbors())
        engine = EAGrEngine(
            graph, query, overlay_algorithm="identity",
            frequencies=frequencies, enable_splitting=True,
        )
        assert engine.split_handles  # splitting actually happened
        play_and_check(engine, make_events(list(graph.nodes()), 300, seed=32))
