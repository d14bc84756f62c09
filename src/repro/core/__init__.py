"""EAGr core: aggregates, windows, queries, overlay, execution, adaptivity."""

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.aggregates import (
    NEED_RECOMPUTE,
    AggregateError,
    AggregateFunction,
    Count,
    CountDistinct,
    DistinctSet,
    Max,
    Mean,
    Min,
    Sum,
    TopK,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.core.engine import DATAFLOW_MODES, EAGrEngine
from repro.core.execution import Runtime, RuntimeCounters
from repro.core.overlay import Decision, NodeKind, Overlay, OverlayError
from repro.core.query import EgoQuery, QueryMode
from repro.core.windows import TimeWindow, TupleWindow, Window, WindowBuffer

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "NEED_RECOMPUTE",
    "AggregateError",
    "AggregateFunction",
    "Count",
    "CountDistinct",
    "DistinctSet",
    "Max",
    "Mean",
    "Min",
    "Sum",
    "TopK",
    "UserDefinedAggregate",
    "get_aggregate",
    "DATAFLOW_MODES",
    "EAGrEngine",
    "Runtime",
    "RuntimeCounters",
    "Decision",
    "NodeKind",
    "Overlay",
    "OverlayError",
    "EgoQuery",
    "QueryMode",
    "TimeWindow",
    "TupleWindow",
    "Window",
    "WindowBuffer",
]
