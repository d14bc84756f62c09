"""Cold starts in a fresh interpreter: what an engine and a shard worker import.

``numpy.ma`` costs about 1 MB of resident memory once imported, and numpy
imports it lazily: a plain ``np.unique`` call is enough.  Building an
``EAGrEngine`` (graph, bipartite graph, VNM overlay, min-cut decisions,
columnar runtime) and accepting one write batch must not pull it in.

A spawned shard worker compiles every module it imports again when
bytecode caching is off, so its boot is mostly its import set: building
a shard and applying a write must not load the front-end, the gateway,
the client or the write-ahead log, nor asyncio and ssl behind them.

A process that only talks to a gateway holds an ``EAGrClient``: importing
the client must not load the server-side front-end behind it.
"""

import os
import subprocess
import sys

SCRIPT = """
import sys
from repro import (
    DynamicGraph, EAGrEngine, EgoQuery, FrequencyModel, Neighborhood, Sum, TupleWindow,
)
from repro.graph.generators import random_graph

edges = list(random_graph(400, 3200, seed=7).edges())
query = EgoQuery(
    aggregate=Sum(), window=TupleWindow(4), neighborhood=Neighborhood.in_neighbors()
)
nodes = sorted({node for edge in edges for node in edge})
engine = EAGrEngine(
    DynamicGraph.from_edges(edges), query,
    frequencies=FrequencyModel.zipf(nodes, write_read_ratio=10.0),
    overlay_algorithm="vnm_a", dataflow="mincut",
)
assert engine.write_batch([(node, float(node % 7)) for node in nodes[:200]]) == 200
assert engine.decision_stats.nodes_total > 0
print("numpy.ma" in sys.modules)
"""


WORKER_SCRIPT = """
import sys
from repro.serve.shard import RequestStep, ShardSpec
from repro.serve.messages import OP_SUBSCRIBE, OP_WRITE, R_OK, R_WRITE
import repro.serve.transport  # the worker half of its channel unpickles from here
from repro import EgoQuery, Neighborhood, Sum, TupleWindow
from repro.graph.generators import random_graph

graph = random_graph(60, 300, seed=11)
query = EgoQuery(
    aggregate=Sum(), window=TupleWindow(2), neighborhood=Neighborhood.in_neighbors()
)
nodes = sorted(graph.nodes())
spec = ShardSpec(graph, query, 0, 1, frozenset(nodes))
step = RequestStep(spec, spec.build(), lambda: None)
assert step((OP_SUBSCRIBE, 1, "s", nodes))[0] == R_OK
reply = step((OP_WRITE, 2, 1, [(node, 1.0, 1.0) for node in nodes]))
assert reply[0] == R_WRITE and reply[2] == len(nodes) and len(reply[3])
print(" ".join(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""

#: What a shard worker never runs.
NOT_IN_A_WORKER = (
    "asyncio",
    "ssl",
    "repro.serve.client",
    "repro.serve.gateway",
    "repro.serve.replica",
    "repro.serve.server",
    "repro.serve.wal",
)

CLIENT_SCRIPT = """
import sys
import repro.serve.client
print(" ".join(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""

#: The front-end a client-only process never runs.
NOT_IN_A_CLIENT = tuple(
    f"repro.serve.{name}"
    for name in (
        "executors", "reshard", "router", "server", "shard", "subscriptions",
        "transport", "wal",
    )
)


def run_fresh(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, check=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    return done.stdout.strip()


def test_engine_cold_start_does_not_import_numpy_ma():
    assert run_fresh(SCRIPT) == "False"


def test_shard_worker_imports_only_what_it_runs():
    assert run_fresh(WORKER_SCRIPT, *NOT_IN_A_WORKER) == ""


def test_client_imports_no_front_end():
    assert run_fresh(CLIENT_SCRIPT, *NOT_IN_A_CLIENT) == ""
