"""An engine cold start in a fresh interpreter.

``numpy.ma`` costs about 1 MB of resident memory once imported, and numpy
imports it lazily: a plain ``np.unique`` call is enough.  Building an
``EAGrEngine`` (graph, bipartite graph, VNM overlay, min-cut decisions,
columnar runtime) and accepting one write batch must not pull it in.
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
    value_store="columnar", overlay_algorithm="vnm_a", dataflow="mincut",
)
assert engine.write_batch([(node, float(node % 7)) for node in nodes[:200]]) == 200
assert engine.decision_stats.nodes_total > 0
print("numpy.ma" in sys.modules)
"""


def test_engine_cold_start_does_not_import_numpy_ma():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, check=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert done.stdout.strip() == "False"
