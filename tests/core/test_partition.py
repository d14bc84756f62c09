"""Quality regression for the balanced min-cut reader partitioner.

The serve tier's write amplification is exactly the planned replication
factor of its routing table, so the one number this suite defends is:
on community-structured graphs, :func:`mincut_partition` must plan a
*strictly lower* replication factor than both the stable-hash baseline
and the BFS :func:`community_assignment` heuristic it replaced as the
server default — while honouring the same balance bound the partitioner
promises (every shard within ``balance`` times the mean size).
"""

import pytest

from repro.core.aggregates import Sum
from repro.core.partition import (
    _stable_hash,
    mincut_assignment,
    mincut_partition,
    planned_replication_factor,
    shard_sizes,
)
from repro.core.partitioned import community_assignment
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import community_graph, paper_figure1, random_graph


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
# tight shard budget, and fewer larger ones.  These are the same
# configurations BENCH_reshard.json records.
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
