"""repro — a from-scratch reproduction of EAGr (Mondal & Deshpande, SIGMOD 2014).

EAGr supports large numbers of continuous ego-centric aggregate queries over
large dynamic graphs through a pre-compiled *aggregation overlay graph* that
shares partial aggregates across queries, annotated with optimal push/pull
pre-computation decisions.

Quickstart::

    from repro import DynamicGraph, EgoQuery, EAGrEngine, Sum, TupleWindow, Neighborhood

    g = DynamicGraph()
    g.add_edge("alice", "bob")      # alice's writes feed bob's ego network
    g.add_edge("carol", "bob")
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1),
                     neighborhood=Neighborhood.in_neighbors())
    engine = EAGrEngine(g, query, overlay_algorithm="vnm_a")
    engine.write("alice", 3.0)
    engine.write("carol", 4.0)
    assert engine.read("bob") == 7.0
"""

from repro.core import (
    AdaptiveConfig,
    AdaptiveController,
    AggregateFunction,
    Count,
    CountDistinct,
    Decision,
    DistinctSet,
    EAGrEngine,
    EgoQuery,
    Max,
    Mean,
    Min,
    NodeKind,
    Overlay,
    QueryMode,
    Runtime,
    Sum,
    TimeWindow,
    TopK,
    TupleWindow,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.dataflow import (
    CostModel,
    FrequencyModel,
    decide_dataflow,
    greedy_dataflow,
    split_nodes,
)
from repro.graph import (
    BipartiteGraph,
    DynamicGraph,
    Neighborhood,
    ReadEvent,
    StreamPlayer,
    StructureEvent,
    StructureOp,
    WriteEvent,
    build_bipartite,
)
from repro.overlay import OverlayMaintainer, construct_overlay, summarize

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "AggregateFunction",
    "Count",
    "CountDistinct",
    "Decision",
    "DistinctSet",
    "EAGrEngine",
    "EgoQuery",
    "Max",
    "Mean",
    "Min",
    "NodeKind",
    "Overlay",
    "QueryMode",
    "Runtime",
    "Sum",
    "TimeWindow",
    "TopK",
    "TupleWindow",
    "UserDefinedAggregate",
    "get_aggregate",
    "CostModel",
    "FrequencyModel",
    "decide_dataflow",
    "greedy_dataflow",
    "split_nodes",
    "BipartiteGraph",
    "DynamicGraph",
    "Neighborhood",
    "ReadEvent",
    "StreamPlayer",
    "StructureEvent",
    "StructureOp",
    "WriteEvent",
    "build_bipartite",
    "OverlayMaintainer",
    "construct_overlay",
    "summarize",
    "__version__",
]
