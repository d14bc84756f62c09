"""Extended construction coverage: degenerate AGs, determinism, stress
shapes, and IOB improvement iterations under hypothesis."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicGraph
from repro.core.overlay import NodeKind, Overlay
from repro.dataflow import CostModel, FrequencyModel, decide_dataflow
from repro.graph.bipartite import BipartiteGraph, build_bipartite
from repro.graph.generators import social_graph, web_graph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay import construct_overlay
from repro.overlay.iob import IOBState, build_iob
from repro.overlay.vnm import build_vnm


class TestDegenerateInputs:
    @pytest.mark.parametrize("variant", ["vnm", "vnm_a", "vnm_n", "vnm_d"])
    def test_empty_ag(self, variant):
        ag = BipartiteGraph({})
        result = build_vnm(ag, variant=variant, iterations=2)
        assert result.overlay.num_edges == 0

    def test_single_reader(self):
        ag = BipartiteGraph({"r": ("w1", "w2", "w3")})
        for build in (
            lambda: build_vnm(ag, variant="vnm_a", iterations=2).overlay,
            lambda: build_iob(ag, iterations=1).overlay,
        ):
            overlay = build()
            overlay.validate(ag)

    def test_singleton_input_lists(self):
        ag = BipartiteGraph({f"r{i}": (f"w{i}",) for i in range(6)})
        overlay = build_vnm(ag, variant="vnm_a", iterations=3).overlay
        overlay.validate(ag)
        assert overlay.num_partials == 0  # nothing shareable

    def test_identical_readers_fully_shared(self):
        ag = BipartiteGraph({f"r{i}": ("w1", "w2", "w3", "w4") for i in range(8)})
        overlay = build_vnm(ag, variant="vnm_a", iterations=4, chunk_size=8).overlay
        overlay.validate(ag)
        # One shared aggregator: 4 + 8 edges beats 32 direct.
        assert overlay.num_edges <= 14

    def test_disjoint_readers_nothing_shared(self):
        ag = BipartiteGraph(
            {f"r{i}": (f"w{3*i}", f"w{3*i+1}", f"w{3*i+2}") for i in range(6)}
        )
        overlay = build_vnm(ag, variant="vnm_a", iterations=3).overlay
        overlay.validate(ag)
        assert overlay.sharing_index(ag) == 0.0

    def test_nested_subset_structure(self):
        # r_k's inputs are a prefix chain: multi-level stacking territory.
        writers = [f"w{i}" for i in range(10)]
        ag = BipartiteGraph(
            {f"r{k}": tuple(writers[: k + 2]) for k in range(8)}
        )
        overlay = build_vnm(ag, variant="vnm_a", iterations=6, chunk_size=4).overlay
        overlay.validate(ag)
        assert overlay.sharing_index(ag) > 0.2


class TestDeterminism:
    def make_ag(self):
        rng = random.Random(5)
        writers = [f"w{i}" for i in range(25)]
        return BipartiteGraph(
            {
                f"r{i}": tuple(rng.sample(writers, rng.randrange(2, 10)))
                for i in range(30)
            }
        )

    @pytest.mark.parametrize("variant", ["vnm_a", "vnm_n", "vnm_d"])
    def test_vnm_deterministic(self, variant):
        ag = self.make_ag()
        a = build_vnm(ag, variant=variant, iterations=5)
        b = build_vnm(ag, variant=variant, iterations=5)
        assert a.overlay.num_edges == b.overlay.num_edges
        assert list(a.overlay.edges()) == list(b.overlay.edges())

    def test_iob_deterministic(self):
        ag = self.make_ag()
        a = build_iob(ag, iterations=2)
        b = build_iob(ag, iterations=2)
        assert list(a.overlay.edges()) == list(b.overlay.edges())

    def test_seed_changes_grouping(self):
        ag = self.make_ag()
        a = build_vnm(ag, variant="vnm_a", iterations=3, seed=1)
        b = build_vnm(ag, variant="vnm_a", iterations=3, seed=2)
        a.overlay.validate(ag)
        b.overlay.validate(ag)  # different shingles, both correct


def pa_edges(nodes, in_edges, rng):
    """The benchmark suite's preferential-attachment digraph: node ``v``
    draws ``in_edges`` distinct in-neighbours among the earlier nodes, each
    with probability proportional to its degree so far."""
    pool = list(range(in_edges))
    edges = []
    for v in range(in_edges, nodes):
        chosen = set()
        while len(chosen) < in_edges:
            chosen.add(pool[rng.randrange(len(pool))])
        for u in sorted(chosen):
            edges.append((u, v))
            pool.append(u)
        pool.append(v)
    return edges


#: sha256 of each algorithm's default-parameter construction: of
#: ``repr(rows)`` for ``iob``, and of ``repr((rows, stats))`` for the VNM
#: family, where ``rows`` is ``[(handle, kind, sorted inputs)]`` and
#: ``stats`` each iteration's ``(chunk_size, bicliques, edges_saved,
#: negative_edges_added, sorted benefit_by_width, memory_estimate)``.
#: ``iob``'s were taken before shingles were hashed once per item and
#: ``mine_best`` walked only penalised readers; the VNM family's before
#: ``vnm`` / ``vnm_a`` built their FP-trees as columns.
GOLDEN_OVERLAYS = {
    ("web", "vnm"): "465d11ffb3a9d2e9b64f02a3ca294ff19b61eab21b2bdf3a3f81616eab9c37c8",
    ("web", "vnm_a"): "21fe9e0570a358647eab1e019d1097c8ba011bb1919c1d1060a7a76808d5b792",
    ("web", "vnm_n"): "5c654f5e9ba9a848c2ace9f60ad73a8eba23801697b1121358379ee3d518a09b",
    ("web", "vnm_d"): "15e9abd07dd0b83919782cf79478a606becd17d450d11fd3232349d3329aea4f",
    ("web", "iob"): "90ae02664e3990ca90dbf737f2f6f782e3b33e6d13c22e81113d9c25ac1beceb",
    ("social", "vnm"): "5bcc74357411ce165c4f96c63aed3268f84364de3996227a896851c15fd670fa",
    ("social", "vnm_a"): "015b71b83d7b1b1718f2714d363ae07f986b287342ad0ca65eb426d24386396e",
    ("social", "vnm_n"): "3865f280c4d9346c0d9c4ceac270637c021412ac778cefb0397c29157b35eae2",
    ("social", "vnm_d"): "bec89e90019f88ffd265c0830bd8bf4c862cf78102c567f93c45071916fa7dbf",
    ("social", "iob"): "d2dbfed1d22695f7fad2bb2b421a2049bc0e48f25db54bcfa53ca0aca7443478",
    ("pa", "vnm"): "f852678c4c00bd3ac04a5cfb8952385bedd9d4366efdcca26ac1afda9c238fc5",
    ("pa", "vnm_a"): "a268a83a310fc6d3b7ff4fb8f2092c01db3b99fcf2bbec49593242af7f200517",
}

GOLDEN_GRAPHS = {
    "web": lambda: web_graph(600, 6, copy_probability=0.9, seed=25),
    "social": lambda: social_graph(500, seed=25),
    # the suite's engine graph family at a quarter of its scale
    "pa": lambda: DynamicGraph.from_edges(pa_edges(3000, 8, random.Random(25))),
}


def construction_digest(result, with_stats):
    overlay = result.overlay
    rows = [
        (handle, overlay.kinds[handle].name, sorted(zip(*overlay.in_rows(handle))))
        for handle in range(overlay.num_nodes)
    ]
    if not with_stats:
        return hashlib.sha256(repr(rows).encode()).hexdigest()
    stats = [
        (
            s.chunk_size,
            s.bicliques,
            s.edges_saved,
            s.negative_edges_added,
            sorted(s.benefit_by_width.items()),
            s.memory_estimate,
        )
        for s in result.stats
    ]
    return hashlib.sha256(repr((rows, stats)).encode()).hexdigest()


class TestSameOverlays:
    @pytest.mark.parametrize("graph,algorithm", sorted(GOLDEN_OVERLAYS))
    def test_golden_overlay(self, graph, algorithm):
        ag = build_bipartite(GOLDEN_GRAPHS[graph](), Neighborhood.in_neighbors())
        result = construct_overlay(ag, algorithm)
        digest = construction_digest(result, with_stats=algorithm != "iob")
        assert digest == GOLDEN_OVERLAYS[graph, algorithm]


#: sha256 of :func:`ordered_digest` for the VNM family: what
#: :data:`GOLDEN_OVERLAYS` leaves out.  The digest keeps every node's
#: inputs ``(source, sign)`` and outputs in insertion order (the order in
#: which the runtime merges floats), read from ``in_rows`` / ``out_rows``
#: as Python ints, ``version`` and ``decision_version``, the dirty set the
#: construction leaves, and the push/pull decisions, versions and dirty
#: set after one ``decide_dataflow``.  Taken while VNM still
#: edited the overlay one edge at a time, and the overlay kept its edges
#: in per-node dicts.
ORDERED_OVERLAYS = {
    ("pa", "vnm"): "f9dd3e976f41bc01b1e9d7bf24172eeb3ad0e50f4086903837596a7db003ce89",
    ("pa", "vnm_a"): "5167152f0bc13b1b2e733e355a6be06f1404bf872ad627a93cdd3e9243943a9d",
    ("pa", "vnm_d"): "489013c7e5a6dfa8c34f9e0cf551d6825dfaeb7bbd2c6006a5bbf2bdcb4f3fd0",
    ("pa", "vnm_n"): "b39578f2cae6659b036599efe6a8ac19311bbc1f3d55ff85e6558b4f6819e705",
    ("social", "vnm"): "b0cd686bf6dbd9f4c8a1e4a6dcc006a879b33ffacb03e5c45a3493d7637e82f2",
    ("social", "vnm_a"): "64ff2a833049f03560fb9cd4a1dae86db905085a1568e57ce5c7a15fd12571b5",
    ("social", "vnm_d"): "8268402ac6b455a1bf1fdb91978e88d8f51a867440cdca2fabbc0315aa2a5cba",
    ("social", "vnm_n"): "d633186bcdb1c0405e0faba11a77da852e8182bd3c3d85b21f1a18a2fdc3ad64",
    ("web", "vnm"): "b1ef08f60c23c86d18242451844b90a571857243134c09dad5fbf9824f37e763",
    ("web", "vnm_a"): "f5242ee6229bd1eea25c3a2facd0b26c8f7d7a16ab2887028c11be55608872d8",
    ("web", "vnm_d"): "b97ed455cff2a5aeec189fdc70cb01cf843e1f21ad84ab5261557c81c5e5bb64",
    ("web", "vnm_n"): "9d1f9d893c587c948c783e9d50819f3cd31bf0af4fba6fd1a3e29045a859e4d5",
}


def ordered_digest(graph, result):
    overlay = result.overlay
    rows = [
        (handle, kind.name, list(zip(*overlay.in_rows(handle))), overlay.out_rows(handle)[0])
        for handle, kind in enumerate(overlay.kinds)
    ]
    built = (overlay.version, overlay.decision_version, sorted(overlay.pop_dirty()))
    model = FrequencyModel.zipf(graph.nodes(), write_read_ratio=2.0, seed=3)
    decide_dataflow(overlay, model, CostModel.constant_linear(), window_size=4.0)
    decided = (
        overlay.version,
        overlay.decision_version,
        sorted(overlay.pop_dirty()),
        [decision.name for decision in overlay.decisions],
    )
    return hashlib.sha256(repr((rows, built, decided)).encode()).hexdigest()


class TestSameOrders:
    @pytest.mark.parametrize("graph,algorithm", sorted(ORDERED_OVERLAYS))
    def test_ordered_overlay(self, graph, algorithm):
        data_graph = GOLDEN_GRAPHS[graph]()
        ag = build_bipartite(data_graph, Neighborhood.in_neighbors())
        result = construct_overlay(ag, algorithm)
        assert ordered_digest(data_graph, result) == ORDERED_OVERLAYS[graph, algorithm]


class TestIOBImprovement:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000))
    def test_improvement_never_grows_or_breaks(self, seed):
        rng = random.Random(seed)
        writers = [f"w{i}" for i in range(rng.randrange(4, 14))]
        ag = BipartiteGraph(
            {
                f"r{i}": tuple(rng.sample(writers, rng.randrange(2, len(writers) + 1)))
                for i in range(rng.randrange(3, 12))
            }
        )
        result = build_iob(ag, iterations=1)
        state = result.iob_state
        edges_before = result.overlay.num_edges
        state.improve_partials()
        assert result.overlay.num_edges <= edges_before
        result.overlay.validate(ag)

    def test_reverse_index_consistent_after_improvement(self):
        rng = random.Random(9)
        writers = [f"w{i}" for i in range(15)]
        ag = BipartiteGraph(
            {
                f"r{i}": tuple(rng.sample(writers, rng.randrange(3, 10)))
                for i in range(20)
            }
        )
        result = build_iob(ag, iterations=3)
        state = result.iob_state
        overlay = result.overlay
        for handle, cover in state.coverage.items():
            if handle in state.dead:
                continue
            if overlay.kinds[handle] is NodeKind.PARTIAL and overlay.out_rows(handle)[0]:
                actual = overlay.coverage(handle)
                assert cover == frozenset(actual)
                for writer in cover:
                    if handle in state.pure:
                        assert handle in state.reverse[writer]


class TestStatsIntegrity:
    def test_edges_saved_matches_edge_delta(self):
        rng = random.Random(11)
        writers = [f"w{i}" for i in range(20)]
        ag = BipartiteGraph(
            {
                f"r{i}": tuple(rng.sample(writers, rng.randrange(2, 12)))
                for i in range(25)
            }
        )
        result = build_vnm(ag, variant="vnm_a", iterations=5)
        total_saved = sum(s.edges_saved for s in result.stats)
        assert total_saved == ag.num_edges - result.overlay.num_edges

    def test_negative_edges_counted(self):
        rng = random.Random(13)
        base = [f"w{i}" for i in range(8)]
        # Near-identical readers, each missing one writer: quasi-biclique bait.
        inputs = {}
        for i in range(8):
            members = [w for j, w in enumerate(base) if j != i % 8]
            inputs[f"r{i}"] = tuple(members)
        ag = BipartiteGraph(inputs)
        result = build_vnm(ag, variant="vnm_n", iterations=4, chunk_size=8, k2=2)
        result.overlay.validate(ag)
        stat_total = sum(s.negative_edges_added for s in result.stats)
        assert stat_total == result.overlay.num_negative_edges
