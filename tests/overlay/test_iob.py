"""Tests for IOB (incremental overlay building)."""

import pytest

from repro.core.overlay import NodeKind, Overlay
from repro.graph.bipartite import BipartiteGraph, build_bipartite
from repro.graph.generators import paper_figure1, web_graph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay.iob import IOBState, build_iob
from repro.overlay.vnm import build_vnm


@pytest.fixture(scope="module")
def fig1_ag():
    return build_bipartite(paper_figure1(), Neighborhood.in_neighbors())


@pytest.fixture(scope="module")
def web_ag():
    return build_bipartite(
        web_graph(400, 6, copy_probability=0.95, seed=4), Neighborhood.in_neighbors()
    )


class TestBuild:
    def test_fig1_valid(self, fig1_ag):
        result = build_iob(fig1_ag, iterations=3)
        result.overlay.validate(fig1_ag)

    def test_web_valid_and_compact(self, web_ag):
        result = build_iob(web_ag, iterations=3)
        result.overlay.validate(web_ag)
        assert result.overlay.sharing_index(web_ag) > 0.3

    def test_iob_most_compact(self, web_ag):
        """Paper Figure 8: IOB finds the most compact overlays."""
        iob_si = build_iob(web_ag, iterations=3).overlay.sharing_index(web_ag)
        vnm_si = build_vnm(web_ag, variant="vnm_a", iterations=10).overlay.sharing_index(web_ag)
        assert iob_si > vnm_si

    def test_iob_converges_fast(self, web_ag):
        """Paper: 'for IOB, most of the benefit is obtained in first few
        iterations'."""
        result = build_iob(web_ag, iterations=5)
        first = result.stats[0].sharing_index
        final = result.stats[-1].sharing_index
        assert first > 0.8 * final

    def test_iob_deeper_than_vnm(self, web_ag):
        """Paper Figure 11(a): IOB overlays are deeper on average."""
        from repro.overlay.metrics import average_depth

        iob = build_iob(web_ag, iterations=3).overlay
        vnm = build_vnm(web_ag, variant="vnm_a", iterations=10).overlay
        assert average_depth(iob) > average_depth(vnm)

    def test_sharing_among_identical_readers(self):
        ag = BipartiteGraph(
            {f"r{i}": ("w1", "w2", "w3", "w4") for i in range(5)}
        )
        result = build_iob(ag, iterations=1)
        result.overlay.validate(ag)
        # 4 writer->PA edges + 5 PA->reader edges = 9 vs 20 direct.
        assert result.overlay.num_edges == 9

    def test_iterations_validation(self, fig1_ag):
        with pytest.raises(ValueError):
            build_iob(fig1_ag, iterations=0)


class TestCoverMachinery:
    def make_state(self):
        overlay = Overlay()
        state = IOBState(overlay)
        for w in ("w1", "w2", "w3", "w4", "w5"):
            state.ensure_writer(w)
        return overlay, state

    def handles(self, overlay, *names):
        return {overlay.writer_of[n] for n in names}

    def test_cover_exactness(self):
        overlay, state = self.make_state()
        state.add_reader("r1", ["w1", "w2", "w3"])
        state.add_reader("r2", ["w1", "w2", "w3", "w4"])
        for reader in ("r1", "r2"):
            handle = overlay.reader_of[reader]
            cover = overlay.coverage(handle)
            assert all(mult == 1 for mult in cover.values())

    def test_cover_pieces_disjoint(self):
        overlay, state = self.make_state()
        state.add_reader("r1", ["w1", "w2"])
        state.add_reader("r2", ["w3", "w4"])
        pieces = state.cover(self.handles(overlay, "w1", "w2", "w3", "w4"))
        seen = set()
        for piece in pieces:
            cover = state.coverage[piece]
            assert not (cover & seen)
            seen |= cover

    def test_split_preserves_donor_coverage(self):
        overlay, state = self.make_state()
        r1 = state.add_reader("r1", ["w1", "w2", "w3", "w4"])
        before = overlay.coverage(r1)
        # A new reader overlapping r1 partially forces a split.
        state.add_reader("r2", ["w1", "w2", "w3"])
        assert overlay.coverage(r1) == before
        overlay.validate(
            BipartiteGraph(
                {"r1": ("w1", "w2", "w3", "w4"), "r2": ("w1", "w2", "w3")}
            )
        )

    def test_reverse_index_tracks_partials(self):
        overlay, state = self.make_state()
        state.add_reader("r1", ["w1", "w2", "w3"])
        state.add_reader("r2", ["w1", "w2", "w3"])
        w1 = overlay.writer_of["w1"]
        partials = [
            h for h in state.reverse[w1] if overlay.kinds[h] is NodeKind.PARTIAL
        ]
        assert partials  # the shared aggregate is indexed

    def test_prune_orphans(self):
        overlay, state = self.make_state()
        state.add_reader("r1", ["w1", "w2", "w3"])
        state.add_reader("r2", ["w1", "w2", "w3"])
        r1 = overlay.reader_of["r1"]
        r2 = overlay.reader_of["r2"]
        state.remove_reader_inputs(r1)
        state.remove_reader_inputs(r2)
        # The shared partial aggregate lost all consumers -> pruned.
        for handle in overlay.partial_handles():
            assert not overlay.out_rows(handle)[0]
            assert not overlay.in_rows(handle)[0]

    def test_improve_partials_no_regression(self, web_ag):
        result = build_iob(web_ag, iterations=1)
        state = result.iob_state
        edges_before = result.overlay.num_edges
        state.improve_partials()
        assert result.overlay.num_edges <= edges_before
        result.overlay.validate(web_ag)


class TestFromOverlay:
    def test_indexes_pure_overlay(self, fig1_ag):
        overlay = build_vnm(fig1_ag, variant="vnm_a", iterations=4).overlay
        state = IOBState(overlay)
        for handle in overlay.partial_handles():
            if handle in state.pure:
                cover = state.coverage[handle]
                exact = overlay.coverage(handle)
                assert cover == frozenset(exact)
                assert all(m == 1 for m in exact.values())

    def test_negative_edge_nodes_marked_impure(self, web_ag):
        overlay = build_vnm(web_ag, variant="vnm_n", iterations=6).overlay
        if overlay.num_negative_edges == 0:
            pytest.skip("no negative edges produced on this seed")
        state = IOBState(overlay)
        # Any node downstream of a negative edge must not be reusable.
        for dst in range(overlay.num_nodes):
            if any(sign < 0 for sign in overlay.in_rows(dst)[1]):
                assert dst not in state.pure

    def test_writers_always_pure(self, fig1_ag):
        overlay = Overlay.identity(fig1_ag)
        state = IOBState(overlay)
        for handle in overlay.writer_handles():
            assert handle in state.pure
            assert state.coverage[handle] == frozenset((handle,))
