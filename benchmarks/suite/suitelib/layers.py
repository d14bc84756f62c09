"""Layer dissection of the traced run: each layer's public builder or
codec called once (or a few dozen times), in isolation, on the workload's
own inputs, before the timed region.

This is what attributes ``setup_s`` (graph → overlay → decisions →
engine → partition) and gives every workload the same, comparable
micro-costs for the layers it cannot see into from outside (the engine
inside a shard process, the frame codec, the WAL).  Every time-valued
per-layer metric comes from here or from spans around the workload's own
calls, so none of them is ever a constant.
"""

from __future__ import annotations

import os
import shutil
from statistics import median
from typing import Any, Callable, Dict, Tuple

from .gen import prefix_edges
from .harness import ENGINE_OPTS, Ctx, clock, make_frequencies, make_query

#: the min-cut partitioner's balance repair is quadratic in the reader
#: count (0.5 s at 300 nodes, 12 s at 800 on this graph family), so it is
#: dissected on a prefix of the workload's graph
PARTITION_NODES = 300
REPLAY_BATCHES = 64
CODEC_BATCHES = 64


def _timed(ctx: Ctx, name: str, fn: Callable, *args, **kwargs) -> Tuple[Any, float]:
    start = clock()
    result = ctx.tracer.wrap(name, fn)(*args, **kwargs)
    return result, clock() - start


def dissect(ctx: Ctx, replay_core: bool) -> Dict[str, float]:
    """Per-layer metrics of the isolated builders.  With ``replay_core``
    the first batches of the schedule are also replayed through the
    isolated engine (workloads whose engine lives in another process);
    engine workloads leave that to their own timed region."""
    from repro import DynamicGraph, EAGrEngine, build_bipartite, construct_overlay
    from repro.core.overlay import Decision
    from repro.dataflow import CostModel, decide_dataflow

    inputs = ctx.inputs
    query = make_query(ctx.spec.window)
    frequencies = make_frequencies(inputs)
    out: Dict[str, float] = {}

    graph, out["graph.build_s"] = _timed(
        ctx, "graph.build", DynamicGraph.from_edges, inputs.edges
    )
    ag, out["graph.bipartite_s"] = _timed(
        ctx, "graph.bipartite", build_bipartite, graph, query.neighborhood, query.predicate
    )
    construction, out["overlay.construct_s"] = _timed(
        ctx, "overlay.construct", construct_overlay, ag,
        ENGINE_OPTS["overlay_algorithm"], aggregate=query.aggregate,
    )
    overlay = construction.overlay
    _stats, out["dataflow.decide_s"] = _timed(
        ctx, "dataflow.decide", decide_dataflow, overlay, frequencies,
        CostModel.for_aggregate(query.aggregate),
        window_size=query.window.expected_size(),
        force_push_readers=query.continuous,
    )
    out["graph.nodes"] = graph.num_nodes
    out["graph.edges"] = graph.num_edges
    out["overlay.nodes"] = overlay.num_nodes
    out["overlay.edges"] = overlay.num_edges
    out["overlay.sharing_index"] = overlay.sharing_index(ag)
    out["dataflow.push_share"] = (
        sum(1 for d in overlay.decisions if d is Decision.PUSH) / overlay.num_nodes
    )

    engine, out["core.engine_ctor_s"] = _timed(
        ctx, "core.engine_ctor", EAGrEngine, DynamicGraph.from_edges(inputs.edges),
        query, frequencies=frequencies, value_store="columnar", **ENGINE_OPTS,
    )
    if replay_core:
        out.update(core_metrics(ctx, engine, *replay_engine(ctx, engine)))

    out.update(_partition(ctx, query))
    out.update(_frames(ctx))
    out.update(_wal(ctx))
    return out


def replay_engine(ctx: Ctx, engine) -> Tuple[int, int]:
    """The schedule's first batches through a bare engine, one span per
    public call — the ``core`` layer as the shards run it.  Returns the
    rows written and read."""
    tracer = ctx.tracer
    write = tracer.wrap("core.write_batch", engine.write_batch)
    changed = tracer.wrap("core.changed_readers", engine.changed_readers)
    read = tracer.wrap("core.read_batch", engine.read_batch)
    batches = ctx.inputs.write_batches(0)[:REPLAY_BATCHES]
    reads = ctx.inputs.read_batches()[:REPLAY_BATCHES]
    for batch, egos in zip(batches, reads):
        write(batch)
        changed()
        read(egos)
    return sum(map(len, batches)), sum(map(len, reads))


def core_metrics(ctx: Ctx, engine, written: int, read: int) -> Dict[str, float]:
    """``core.*`` from the ``core.*`` spans recorded so far (covering
    ``written`` / ``read`` rows) and the engine's public counters."""
    totals = ctx.tracer.totals()
    counters = engine.counters

    def per_row(span: str, rows: int) -> float:
        return totals[span]["self_s"] / max(1, rows) * 1e6

    return {
        "core.write_batch_busy_s": totals["core.write_batch"]["self_s"],
        "core.read_batch_busy_s": totals["core.read_batch"]["self_s"],
        "core.changed_readers_busy_s": totals["core.changed_readers"]["self_s"],
        "core.write_us_per_row": per_row("core.write_batch", written),
        "core.read_us_per_row": per_row("core.read_batch", read),
        # one changed_readers() call reports on the batch written before it
        "core.changed_us_per_row": per_row("core.changed_readers", written),
        "core.write_calls": totals["core.write_batch"]["count"],
        "core.read_calls": totals["core.read_batch"]["count"],
        "core.push_ops": counters.push_ops,
        "core.pull_ops": counters.pull_ops,
        "core.plan_compiles": engine.runtime.plan_compiles,
    }


def _partition(ctx: Ctx, query) -> Dict[str, float]:
    from repro import DynamicGraph
    from repro.core.partition import (
        mincut_assignment,
        planned_replication_factor,
        shard_sizes,
    )

    nodes = min(PARTITION_NODES, ctx.spec.nodes)
    graph = DynamicGraph.from_edges(prefix_edges(ctx.inputs.edges, nodes))
    assignment, seconds = _timed(ctx, "partition.mincut", mincut_assignment, graph, query, 2)
    table = {node: assignment(node) for node in graph.nodes()}
    sizes = shard_sizes(table, 2)
    return {
        "partition.mincut_s": seconds,
        "partition.replication_factor": planned_replication_factor(graph, query, table),
        "partition.imbalance": max(sizes) / (sum(sizes) / len(sizes)),
    }


def _frames(ctx: Ctx) -> Dict[str, float]:
    """The workload's own batches through the public frame classes."""
    import numpy as np

    from repro.core.statestore import WriteFrame
    from repro.serve.frames import NoteFrame, decode, encode_write

    tracer = ctx.tracer
    batches = ctx.inputs.write_batches(0)[:CODEC_BATCHES]
    rows = sum(len(batch) for batch in batches)

    def pack(batch):
        return encode_write(1, 1, WriteFrame.from_items(batch))

    def unpack(payload):
        return decode(payload)

    def note_pack(egos, values):
        return NoteFrame.build("s", 0, egos, values, 1, 1).records.tobytes()

    pack = tracer.wrap("frames.write_pack", pack)
    unpack = tracer.wrap("frames.write_unpack", unpack)
    note_pack = tracer.wrap("frames.note_pack", note_pack)
    payloads = [pack(batch) for batch in batches]
    for payload in payloads:
        unpack(payload)
    egos = np.asarray(ctx.inputs.read_nodes[:CODEC_BATCHES])
    for row in egos:
        note_pack(row, row.astype(np.float64))
    totals = tracer.totals()
    return {
        "frames.write_pack_us_per_row": totals["frames.write_pack"]["self_s"] / rows * 1e6,
        "frames.write_unpack_us_per_row": totals["frames.write_unpack"]["self_s"] / rows * 1e6,
        "frames.note_pack_us_per_note": totals["frames.note_pack"]["self_s"] / egos.size * 1e6,
        "frames.bytes_per_row": sum(len(p) for p in payloads) / rows,
    }


def _wal(ctx: Ctx) -> Dict[str, float]:
    """The workload's own batches appended to, synced in and recovered
    from a throwaway log through the public ``WriteAheadLog``."""
    from repro.core.statestore import WriteFrame
    from repro.serve.wal import WriteAheadLog

    tracer = ctx.tracer
    directory = os.path.join(ctx.tmp_dir, "wal-dissect")
    batches = ctx.inputs.write_batches(0)[:CODEC_BATCHES]
    rows = sum(len(batch) for batch in batches)
    appends, syncs = [], []
    try:
        wal = WriteAheadLog(directory)
        try:
            append = tracer.wrap("wal.append", wal.append)
            sync = tracer.wrap("wal.fsync", wal.sync)
            for seq, batch in enumerate(batches, 1):
                record = ("W", seq, {0: WriteFrame.from_items(batch)}, float(seq))
                start = clock()
                append(record)
                middle = clock()
                sync()
                appends.append(middle - start)
                syncs.append(clock() - middle)
            total_bytes = wal.total_bytes()
        finally:
            wal.close()
        reopened, reopen_s = _timed(ctx, "wal.reopen", WriteAheadLog, directory)
        reopened.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "wal.append_p50_ms": median(appends) * 1e3,
        "wal.fsync_p50_ms": median(syncs) * 1e3,
        "wal.reopen_s": reopen_s,
        "wal.bytes_per_event": total_bytes / rows,
    }
