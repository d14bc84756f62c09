"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the contribution of individual
mechanisms so a regression in any one of them is visible:

* **multi-level overlays** (virtual nodes re-mined as transactions) vs
  single-level mining — the paper's Section 3.2.1 notes multi-level
  overlays "exhibit the best sharing index";
* **P1/P2 pruning** vs raw max-flow — Section 4.5's claim that pruning
  makes the optimal decision procedure practical;
* **shingle ordering** vs arbitrary reader order — the grouping heuristic
  VNM inherits from web-graph compression (Section 3.2.1);
* **exact-cover reuse in IOB** vs always-direct edges — the reverse-index
  machinery of Section 3.2.5.
"""

import time

import numpy as np
import pytest

from benchmarks._common import bench_ag, emit_table
from repro.dataflow.frequencies import FrequencyModel
from repro.dataflow.mincut import decide_dataflow
from repro.overlay import construct_overlay
from repro.overlay.shingles import shingle_order
from repro.overlay.vnm import build_vnm


def test_ablation_multilevel_overlays(benchmark):
    rows = []
    gains = []
    for dataset in ("gplus-small", "eu2005-small", "uk2002-small"):
        _, ag = bench_ag(dataset)
        multi = build_vnm(ag, variant="vnm_a", iterations=10)
        single = build_vnm(
            ag, variant="vnm_a", iterations=10, virtual_transactions=False
        )
        multi_si = multi.overlay.sharing_index(ag)
        single_si = single.overlay.sharing_index(ag)
        gains.append((multi_si, single_si))
        rows.append(
            [
                dataset,
                f"{single_si * 100:.1f}",
                f"{multi_si * 100:.1f}",
                max(d for d in multi.overlay.reader_depths().values()),
            ]
        )
    emit_table(
        "ablation_multilevel",
        "Ablation: single-level vs multi-level VNM_A overlays (SI %)",
        ["dataset", "single-level SI", "multi-level SI", "multi max depth"],
        rows,
    )
    # Note: with virtual_transactions=False virtual nodes still appear as
    # *items* in reader lists, so some stacking survives; re-mining virtual
    # nodes adds the rest — a consistent but moderate gain at this scale.
    assert all(multi >= single for multi, single in gains)
    assert any(multi - single > 0.015 for multi, single in gains)

    _, ag = bench_ag("eu2005-small")
    benchmark.pedantic(
        lambda: build_vnm(ag, variant="vnm_a", iterations=4), rounds=2, iterations=1
    )


def test_ablation_pruning_speedup(benchmark):
    graph, ag = bench_ag("uk2002-small")
    overlay = construct_overlay(ag, "vnm_a", iterations=8).overlay
    frequencies = FrequencyModel.zipf(graph.nodes(), write_read_ratio=1.0, seed=3)

    def run(use_pruning):
        trial = overlay.copy()
        started = time.perf_counter()
        stats = decide_dataflow(trial, frequencies, use_pruning=use_pruning)
        return time.perf_counter() - started, stats, trial

    pruned_time, pruned_stats, overlay_a = run(True)
    raw_time, _, overlay_b = run(False)
    emit_table(
        "ablation_pruning",
        "Ablation: decision time with vs without P1/P2 pruning",
        ["variant", "time (ms)", "maxflow nodes", "components"],
        [
            ["with pruning", f"{pruned_time * 1e3:.1f}", pruned_stats.nodes_after_pruning,
             pruned_stats.num_components],
            ["raw max-flow", f"{raw_time * 1e3:.1f}", pruned_stats.nodes_total, 1],
        ],
    )
    # Identical decisions (Theorem 4.2) ...
    assert overlay_a.decisions == overlay_b.decisions
    # ... at a fraction of the max-flow problem size.
    assert pruned_stats.nodes_after_pruning < 0.5 * pruned_stats.nodes_total

    benchmark.pedantic(lambda: run(True), rounds=2, iterations=1)


def test_ablation_shingle_ordering(benchmark):
    import repro.overlay.vnm as vnm_module

    _, ag = bench_ag("eu2005-small")
    with_shingles = build_vnm(ag, variant="vnm_a", iterations=8)

    original = vnm_module.order_rows
    try:
        # Arbitrary (sorted-by-handle) reader order instead of min-hash order:
        # the transactions' rows come in handle order.
        vnm_module.order_rows = lambda indptr, *args: np.arange(len(indptr) - 1)
        without = build_vnm(ag, variant="vnm_a", iterations=8)
    finally:
        vnm_module.order_rows = original

    si_with = with_shingles.overlay.sharing_index(ag)
    si_without = without.overlay.sharing_index(ag)
    emit_table(
        "ablation_shingles",
        "Ablation: shingle ordering vs arbitrary reader order (VNM_A, eu2005)",
        ["ordering", "sharing index"],
        [["min-hash shingles", f"{si_with * 100:.1f}%"],
         ["node-id order", f"{si_without * 100:.1f}%"]],
    )
    assert si_with > si_without

    benchmark.pedantic(
        lambda: shingle_order({r: list(ws) for r, ws in ag.reader_inputs.items()}),
        rounds=3, iterations=1,
    )


def test_ablation_iob_reuse(benchmark):
    from repro.core.overlay import Overlay
    from repro.overlay.iob import IOBState, build_iob

    _, ag = bench_ag("eu2005-small")
    with_reuse = build_iob(ag, iterations=1)

    # Strawman: same insertion order, but no candidate reuse (all direct).
    direct = Overlay.identity(ag)
    si_reuse = with_reuse.overlay.sharing_index(ag)
    si_direct = direct.sharing_index(ag)
    emit_table(
        "ablation_iob_reuse",
        "Ablation: IOB exact-cover reuse vs direct edges (eu2005)",
        ["variant", "edges", "sharing index"],
        [["IOB cover/split", with_reuse.overlay.num_edges, f"{si_reuse * 100:.1f}%"],
         ["direct edges", direct.num_edges, f"{si_direct * 100:.1f}%"]],
    )
    assert si_reuse > 0.3

    benchmark.pedantic(lambda: build_iob(ag, iterations=1), rounds=2, iterations=1)
