"""Quality regression for the balanced min-cut reader partitioner.

The serve tier's write amplification is exactly the planned replication
factor of its routing table, so the one number this suite defends is:
on community-structured graphs, :func:`mincut_partition` must plan a
*strictly lower* replication factor than both the stable-hash baseline
and the BFS :func:`community_assignment` heuristic it replaced as the
server default (which must itself beat the hash) — while honouring the same balance bound the partitioner
promises (every shard within ``balance`` times the mean size).
"""

import collections
import dataclasses
import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import Sum
from repro.core.partition import (
    _repair,
    _stable_hash,
    community_assignment,
    mincut_assignment,
    mincut_partition,
    planned_replication_factor,
    shard_sizes,
)
from repro.core.query import EgoQuery, Neighborhood
from repro.core.windows import TupleWindow
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import community_graph, paper_figure1, random_graph

from tests.conftest import suite_generator


def build_query():
    return EgoQuery(aggregate=Sum(), window=TupleWindow(1))


def hash_partition(graph, query, num_shards):
    predicate = query.predicate
    return {
        node: _stable_hash(node) % num_shards
        for node in graph.nodes()
        if predicate is None or predicate(node)
    }


def community_partition(graph, query, num_shards):
    assign = community_assignment(graph, num_shards)
    predicate = query.predicate
    return {
        node: assign(node) % num_shards
        for node in graph.nodes()
        if predicate is None or predicate(node)
    }


# Seeded community graphs at two shapes: many small communities with a
# tight shard budget, and fewer larger ones.
COMMUNITY_CONFIGS = [
    dict(num_communities=12, community_size=30, intra_probability=0.5,
         inter_edges=40, seed=101, num_shards=5),
    dict(num_communities=20, community_size=30, intra_probability=0.6,
         inter_edges=60, seed=102, num_shards=4),
    dict(num_communities=8, community_size=24, intra_probability=0.5,
         inter_edges=24, seed=103, num_shards=4),
]


class TestQualityRegression:
    @pytest.mark.parametrize("config", COMMUNITY_CONFIGS)
    def test_mincut_beats_hash_and_community(self, config):
        config = dict(config)
        num_shards = config.pop("num_shards")
        graph = community_graph(**config)
        query = build_query()
        mincut = mincut_partition(graph, query, num_shards)
        rf_mincut = planned_replication_factor(graph, query, mincut)
        rf_hash = planned_replication_factor(
            graph, query, hash_partition(graph, query, num_shards)
        )
        rf_community = planned_replication_factor(
            graph, query, community_partition(graph, query, num_shards)
        )
        assert rf_mincut < rf_hash
        assert rf_mincut < rf_community
        assert rf_community < rf_hash

    @pytest.mark.parametrize("config", COMMUNITY_CONFIGS)
    def test_balance_bound(self, config):
        config = dict(config)
        num_shards = config.pop("num_shards")
        graph = community_graph(**config)
        query = build_query()
        mincut = mincut_partition(graph, query, num_shards, balance=1.25)
        sizes = shard_sizes(mincut, num_shards)
        mean = sum(sizes) / num_shards
        assert sum(sizes) == len(mincut)
        # The partitioner's own promise: no shard above 1.25x the mean
        # (with a one-reader slack for ceil-rounded capacities).
        assert max(sizes) <= int(1.25 * mean) + 1
        # The default balance is that bound: a server built without
        # ``assign=`` gets this same partition.
        assert mincut_partition(graph, query, num_shards) == mincut

    def test_write_freq_steers_the_cut(self):
        # With a handful of writers carrying 100x the traffic, the
        # frequency-aware cut must amplify that traffic no more than the
        # uniform cut does (it optimizes the weighted objective).
        graph = community_graph(
            num_communities=4, community_size=18, intra_probability=0.5,
            inter_edges=30, seed=104,
        )
        query = build_query()
        heavy = {node: (100.0 if node % 9 == 0 else 1.0) for node in graph.nodes()}
        uniform_table = mincut_partition(graph, query, 3)
        weighted_table = mincut_partition(graph, query, 3, write_freq=heavy)
        weighted_rf = planned_replication_factor(
            graph, query, weighted_table, write_freq=heavy
        )
        uniform_rf = planned_replication_factor(
            graph, query, uniform_table, write_freq=heavy
        )
        assert weighted_rf <= uniform_rf + 1e-9

    def test_deterministic(self):
        graph = community_graph(
            num_communities=6, community_size=20, intra_probability=0.5,
            inter_edges=30, seed=105,
        )
        query = build_query()
        first = mincut_partition(graph, query, 4)
        second = mincut_partition(graph, query, 4)
        assert first == second


class TestApi:
    def test_single_shard(self):
        graph = paper_figure1()
        query = build_query()
        table = mincut_partition(graph, query, 1)
        assert set(table.values()) == {0}

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            mincut_partition(paper_figure1(), build_query(), 0)

    def test_assignment_callable(self):
        graph = random_graph(30, 120, seed=106)
        query = build_query()
        table = mincut_partition(graph, query, 3)
        assign = mincut_assignment(graph, query, 3)
        assert all(assign(node) == shard for node, shard in table.items())
        assert assign("never-seen") == 0

    def test_assignment_exposes_get(self):
        # plan_from_assignment consumes the assignment via dict-style
        # .get, where a missing reader must resolve to the *caller's*
        # default ("leave it where it is"), not the callable's shard 0.
        graph = random_graph(30, 120, seed=106)
        query = build_query()
        table = mincut_partition(graph, query, 3)
        assign = mincut_assignment(graph, query, 3)
        assert len(assign) == len(table)
        assert all(assign.get(node, -1) == shard for node, shard in table.items())
        assert assign.get("never-seen", 7) == 7
        assert assign.get("never-seen") is None

    def test_predicate_limits_readers(self):
        graph = random_graph(30, 120, seed=107)
        keep = set(list(graph.nodes())[:10])
        query = EgoQuery(aggregate=Sum(), predicate=lambda n: n in keep)
        table = mincut_partition(graph, query, 2)
        assert set(table) == keep

    def test_max_nodes_fallback(self):
        # Above the node budget the partitioner degrades to the BFS
        # heuristic rather than running Dinic on a huge gadget graph.
        graph = random_graph(40, 160, seed=108)
        query = build_query()
        table = mincut_partition(graph, query, 4, max_nodes=10)
        expected = community_partition(graph, query, 4)
        assert table == expected

    def test_replication_factor_weighted(self):
        graph = paper_figure1()
        query = build_query()
        table = mincut_partition(graph, query, 2)
        uniform = planned_replication_factor(graph, query, table)
        weighted = planned_replication_factor(
            graph, query, table, write_freq={n: 1.0 for n in graph.nodes()}
        )
        assert weighted == pytest.approx(uniform)


# ---------------------------------------------------------------------------
# Balance repair: cached cut deltas must make exactly the moves a full
# rescan per move makes.

#: sha256 of ``repr(sorted(table.items()))`` for the suite-family graph
#: (``serve_feed``'s generator at ``nodes`` readers, seed 1), taken with
#: the per-move rescan of every pool reader.
GOLDEN_TABLES = {
    (300, 2, False): "088c3fc61ed808fc2b78c92e6d0147234be030168ad55ac6f089cab804791676",
    (300, 2, True): "f71540cd5adcc310cea541482d17d3f90680713353390b03a864d0ffda3eb6e9",
    (300, 4, False): "e965455200ba03d2a048f1f314d35bc66bd51d4877d6e2fe6c25499317e54a86",
    (300, 4, True): "7b1ba3a1652f2a10c1798e1c3ce8816c9601490dae005609f772ac0804604656",
    (300, 8, False): "f4b4ca91c5213f133803ee803f1528284e3511f52854f47e7813da3140e27e9d",
    (300, 8, True): "02bb1b535a305172797f25e4ff19c3a6e257479273a4a3094b789fb7d8c4c2bd",
    (600, 2, False): "c61676c77b93b2f4260e766da39d818e8206347730597e2260996105878d5548",
    (600, 2, True): "5afd21b0a7fb3595195cb943758ea30045be4192119a0495fa7450064b97bd45",
    (600, 4, False): "559f8ca7562eb7cd666fed69a7900932ade1211708df16910092db0a55a5759d",
    (600, 4, True): "9ebf969d010a4048ab6a16ceacda80e03e8f8cedfc982ff0bfe163e2627529e2",
    (600, 8, False): "988610b659fd94c8d1ee051112823fe1b14d94c2a4bd811c754f3c28e19649a7",
    (600, 8, True): "c1cf521ae31fa5dfc66907cd98836d24faedd1a81532de8a78ec443669c4aaf4",
    (1000, 2, False): "f04a1438c5a52a7b0bf3a975a87f1aa6b0f1b67af16455602b825e221dc0b570",
    (1000, 2, True): "55c6b6ab087b2ac2aa1079bc00a39ee8edc6e6ff2d24a22e005f98f62f17721a",
    (1000, 4, False): "6ee6ef429d0b7a6faf0587658e82ff4fc2105609560d3f08cb828491f4a0364c",
    (1000, 4, True): "fad89ec689e6522d5355a8f71373eaa514df768cf81ec41cc8c4b5d94e78b328",
    (1000, 8, False): "4110f889abb8b5ad57d2ccb04308bbd38f2b88fdd1beffcff8a69adf55e31094",
    (1000, 8, True): "4c8efd10d1bb48c62375c2e99a745f87d67da4141314fc670d247cfcddab560b",
}

SUITE_QUERY = EgoQuery(
    aggregate=Sum(), window=TupleWindow(1), neighborhood=Neighborhood.in_neighbors()
)


@pytest.fixture(scope="module")
def suite_graphs():
    """nodes -> (graph, write_freq) of the benchmark's serve deployment."""
    gen = suite_generator()
    graphs = {}
    for nodes in sorted({key[0] for key in GOLDEN_TABLES}):
        spec = dataclasses.replace(gen.SPECS["serve_feed"], nodes=nodes)
        inputs = gen.generate(spec, seed=1)
        graphs[nodes] = (DynamicGraph.from_edges(inputs.edges), inputs.write_freq)
    return graphs


class TestSameTables:
    @pytest.mark.parametrize("nodes,num_shards,weighted", sorted(GOLDEN_TABLES))
    def test_golden_table(self, suite_graphs, nodes, num_shards, weighted):
        graph, write_freq = suite_graphs[nodes]
        table = mincut_partition(
            graph, SUITE_QUERY, num_shards, write_freq=write_freq if weighted else None
        )
        digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
        assert digest == GOLDEN_TABLES[nodes, num_shards, weighted]

    def test_thousand_readers_under_five_seconds(self, suite_graphs):
        # The per-move rescan took ~25 s here; cached deltas take ~0.05 s.
        graph, _ = suite_graphs[1000]
        started = time.perf_counter()
        mincut_partition(graph, SUITE_QUERY, 2)
        assert time.perf_counter() - started < 5.0


def rescan_repair(
    left, right, members, writer_freq, writer_readers, reader_writers,
    min_left, max_left,
):
    """Reference: the balance repair as a full rescan per move — every pool
    reader's cut delta recomputed, member counts re-intersected."""
    member_set = set(members)
    left_set = set(left)
    left_count = collections.defaultdict(int)
    for r in left:
        for w_id in reader_writers.get(r, ()):
            left_count[w_id] += 1

    def move_cheapest(from_left):
        pool = left if from_left else right
        best_r, best_delta = None, None
        for r in pool:
            delta = 0.0
            for w_id in reader_writers.get(r, ()):
                total = len(writer_readers[w_id] & member_set)
                on_left = left_count[w_id]
                on_right = total - on_left
                if from_left:
                    was_cut = 0 < on_left < total
                    now_cut = 0 < on_left - 1 < total
                else:
                    was_cut = 0 < on_right < total
                    now_cut = 0 < on_right - 1 < total
                delta += writer_freq[w_id] * (int(now_cut) - int(was_cut))
            if best_delta is None or delta < best_delta:
                best_r, best_delta = r, delta
        assert best_r is not None
        pool.remove(best_r)
        if from_left:
            right.append(best_r)
            left_set.discard(best_r)
            for w_id in reader_writers.get(best_r, ()):
                left_count[w_id] -= 1
        else:
            left.append(best_r)
            left_set.add(best_r)
            for w_id in reader_writers.get(best_r, ()):
                left_count[w_id] += 1

    while len(left) > max_left:
        move_cheapest(from_left=True)
    while len(left) < min_left:
        move_cheapest(from_left=False)


@st.composite
def repair_cases(draw):
    """A bisection's state before repair: members drawn from a larger
    reader universe (writers also reach non-members, as in a recursive
    level), few distinct weights so cut deltas tie, any initial split and
    any bounds — ``min_left > max_left`` runs both drain phases."""
    universe = draw(st.integers(2, 14))
    members = draw(
        st.lists(st.integers(0, universe - 1), min_size=2, max_size=universe, unique=True)
    )
    num_writers = draw(st.integers(1, 10))
    writer_readers = [
        set(draw(st.lists(st.integers(0, universe - 1), max_size=universe)))
        for _ in range(num_writers)
    ]
    writer_freq = [
        draw(st.sampled_from([1.0, 1.0, 2.0, 0.5, 1e-9])) for _ in range(num_writers)
    ]
    sides = draw(st.lists(st.booleans(), min_size=len(members), max_size=len(members)))
    max_left = draw(st.integers(0, len(members)))
    min_left = draw(st.integers(0, len(members)))
    return members, writer_readers, writer_freq, sides, min_left, max_left


class TestRepairMoves:
    @settings(max_examples=300, deadline=None)
    @given(repair_cases())
    def test_same_moves_as_a_full_rescan(self, case):
        members, writer_readers, writer_freq, sides, min_left, max_left = case
        reader_writers = collections.defaultdict(list)
        for w_id, readers_of_w in enumerate(writer_readers):
            for r in sorted(readers_of_w):
                reader_writers[r].append(w_id)
        left = [r for r, side in zip(members, sides) if side]
        right = [r for r, side in zip(members, sides) if not side]
        want_left, want_right = list(left), list(right)
        rescan_repair(
            want_left, want_right, members, writer_freq, writer_readers,
            reader_writers, min_left, max_left,
        )
        member_set = set(members)
        inside = [len(readers_of_w & member_set) for readers_of_w in writer_readers]
        _repair(
            left, right, inside, writer_freq, writer_readers, reader_writers,
            min_left=min_left, max_left=max_left,
        )
        # Moved readers are appended in move order, so equal lists mean
        # the same move sequence.
        assert (left, right) == (want_left, want_right)
