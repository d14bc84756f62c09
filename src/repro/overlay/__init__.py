"""Overlay construction: the VNM family, IOB, metrics, and maintenance."""

from typing import Optional

from repro.core.aggregates import AggregateFunction
from repro.graph.bipartite import BipartiteGraph
from repro.overlay.dynamic import OverlayMaintainer
from repro.overlay.iob import IOBState, build_iob
from repro.overlay.metrics import (
    OverlaySummary,
    average_depth,
    compression_ratio,
    depth_cdf,
    depth_distribution,
    summarize,
)
from repro.overlay.shingles import ShingleHasher, group_ranges, shingle_order
from repro.overlay.vnm import ConstructionResult, IterationStats, VNMConfig, build_vnm

#: Algorithms selectable by name in :func:`construct_overlay` and the engine.
ALGORITHMS = ("identity", "vnm", "vnm_a", "vnm_n", "vnm_d", "iob")


def construct_overlay(
    ag: BipartiteGraph,
    algorithm: str = "vnm_a",
    aggregate: Optional[AggregateFunction] = None,
    **params,
) -> ConstructionResult:
    """Build an overlay for ``ag`` with the named algorithm.

    ``aggregate`` enables the paper's safety checks: ``vnm_n`` requires a
    subtractable aggregate (negative edges need efficient subtraction) and
    ``vnm_d`` requires a duplicate-insensitive one (Section 3.1).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; options: {ALGORITHMS}")
    if aggregate is not None:
        if algorithm == "vnm_n" and not aggregate.subtractable:
            raise ValueError(
                f"vnm_n uses negative edges, which {aggregate.name} cannot subtract"
            )
        if algorithm == "vnm_d" and not aggregate.duplicate_insensitive:
            raise ValueError(
                f"vnm_d reuses edges, which duplicate-sensitive {aggregate.name} forbids"
            )
    if algorithm == "identity":
        from repro.core.overlay import Overlay

        overlay = Overlay.identity(ag)
        return ConstructionResult(overlay=overlay, stats=[], config=VNMConfig())
    if algorithm == "iob":
        return build_iob(ag, **params)
    return build_vnm(ag, variant=algorithm, **params)


__all__ = [
    "ALGORITHMS",
    "construct_overlay",
    "IOBState",
    "build_iob",
    "OverlayMaintainer",
    "OverlaySummary",
    "average_depth",
    "compression_ratio",
    "depth_cdf",
    "depth_distribution",
    "summarize",
    "ShingleHasher",
    "group_ranges",
    "shingle_order",
    "ConstructionResult",
    "IterationStats",
    "VNMConfig",
    "build_vnm",
]
