"""Routes derive from the ledger's reader partition, never a copy of it.

``Router`` reads ``WalState.reader_shard`` at call time and caches what
it derives by that dict's identity, so the ``P`` fold must install a new
table rather than edit the one routes were derived from.
"""

from repro.core.aggregates import Sum
from repro.core.partition import partition_readers
from repro.core.query import EgoQuery
from repro.graph.generators import random_graph
from repro.serve.router import Router
from repro.serve.wal import WalState


def make_router():
    graph = random_graph(12, 40, seed=5)
    query = EgoQuery(aggregate=Sum())
    state = WalState()
    table = partition_readers(graph, query, 2, lambda node: hash(node))
    state.fold(("META", {"num_shards": 2, "reader_shard": table}))
    return Router(graph, query, state), state


def test_a_reshard_fold_swaps_the_table_and_the_routes_follow():
    router, state = make_router()
    routes = router.routes()
    assert router.routes() is routes and routes.reader_shard is state.reader_shard
    old_table = state.reader_shard
    before = dict(old_table)
    node = sorted(old_table)[0]
    state.fold(("P", 1, {node: 1 - before[node]}, {}, {}))
    assert old_table == before  # a snapshot routed by stays what it was
    assert state.reader_shard[node] == 1 - before[node]
    fresh = router.routes()
    assert fresh.reader_shard is state.reader_shard
    assert fresh.writer_shards == router.derive(dict(state.reader_shard)).writer_shards
    assert fresh.writer_shards != routes.writer_shards
    assert state.meta == {"num_shards": 2, "partition_epoch": 1}


def test_owners_groups_positions_by_the_current_owner():
    router, state = make_router()
    a, b = sorted(state.reader_shard)[:2]
    nodes = [a, "nobody", b, a]
    expected = {}
    for position in (0, 2, 3):
        expected.setdefault(state.reader_shard[nodes[position]], []).append(position)
    assert router.owners(nodes) == expected
    state.fold(("P", 1, {a: 1 - state.reader_shard[a]}, {}, {}))
    assert router.owners([a]) == {state.reader_shard[a]: [0]}
