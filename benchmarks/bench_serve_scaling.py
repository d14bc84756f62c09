"""Serving-layer scaling: write throughput against the shard count.

On one warmed write workload (vnm_a + mincut, SUM, the hotpath bench's
configuration) it measures sustained write throughput three ways:

* **serve-K (queue)** — :class:`~repro.serve.server.EAGrServer` with K
  shard **processes** (spawn) on the request-pipe (queue) transport:
  batches cross the process boundary as frames written into a pipe and
  each shard applies its slice through the columnar scatter kernels.
* **serve-K (shm)** — the same deployment on the shared-memory transport:
  write batches scatter into per-shard ingress rings, shards keep their
  columns in named shared segments, the applied watermark replaces
  per-batch acknowledgements, and reads answer zero-copy front-side.
* **serve-inproc** — the same server on the in-process executor (the
  routing overhead alone, no processes; context for the queue cost).

Results append to ``BENCH_serve.json`` at the repo root so CI accumulates
the trajectory (the ``shm`` column records the shared-memory transport).
Every row records its transport, the frame codec its batches rode
(``binary`` record frames vs ``pickle`` payloads, read off the server's
codec-mix counters — see :mod:`repro.serve.frames`) and ingress bytes
per delivered event.  (What binary frames buy over pickling the same
rows is gated by ``bench_frame_codec.py``.)
Every serve row also records the end-to-end **write→notify latency**
percentiles its pass observed (the metrics plane's
``write_notify_latency`` summary), and a ``metrics_overhead`` control leg
re-runs the fastest shm configuration with ``metrics=False`` so the
instrumentation tax is itself a committed number.
``--smoke`` shrinks the workload and asserts the acceptance floors: the
shm transport must actually resolve and must not collapse against the
queue, and no ``/dev/shm`` segment may survive teardown.

Note on hosts: on a single-core container the shard processes time-slice
one CPU, so adding shards adds routing and transport work without adding
parallel speedup; on a multi-core host the same harness shows that
speedup.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    from benchmarks._common import bench_graph, emit_table, workload
except ImportError:  # script mode
    sys.path.insert(0, os.path.dirname(__file__))
    from _common import bench_graph, emit_table, workload

from repro.graph.streams import WriteEvent
from repro.serve import EAGrServer

BATCH_SIZE = 256
# Full runs time ~90 batch submissions per pass: at >500k events/s a
# smaller workload is a <15 ms timed region, and scheduler noise on a
# shared single core swings codec comparisons by ±30%.
NUM_EVENTS = 24_000
SHARD_COUNTS = (1, 2, 4)
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_serve.json")


def write_workload(graph, num_events: int):
    events = workload(graph, num_events, write_read_ratio=10_000.0, seed=23)
    return [
        (e.node, e.value, e.timestamp)
        for e in events
        if isinstance(e, WriteEvent)
    ]


def measure(apply_and_drain, events, passes: int = 3) -> float:
    """Best-of-N events/s for one warmed sink (GC/scheduler noise control)."""
    best = 0.0
    for _ in range(max(1, passes)):
        gc.collect()
        started = time.perf_counter()
        apply_and_drain(events)
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, len(events) / elapsed)
    return best


def bench_serve(
    graph,
    events,
    num_shards: int,
    executor: str,
    passes: int,
    transport: str = "auto",
    metrics="auto",
    check_segments=None,
):
    from repro.core.aggregates import Sum
    from repro.core.query import EgoQuery
    from repro.core.windows import TupleWindow
    from repro.graph.neighborhoods import Neighborhood

    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(1),
        neighborhood=Neighborhood.in_neighbors(),
    )
    server = EAGrServer(
        graph,
        query,
        num_shards=num_shards,
        executor=executor,
        transport=transport,
        metrics=metrics,
        overlay_algorithm="vnm_a",
        dataflow="mincut",
        queue_depth=16,
    )
    if transport == "shm":
        assert server.transport == "shm", "shm transport failed to resolve"
    # A small watched set exercises the notification path so each row's
    # write->notify percentiles are sampled from real deliveries (same
    # set on every serve leg).
    server.subscribe("bench-watch", sorted(graph.nodes(), key=repr)[:8])

    def run(items):
        write_batch = server.write_batch
        for start in range(0, len(items), BATCH_SIZE):
            write_batch(items[start : start + BATCH_SIZE])
        server.drain()

    segment_names = [
        name for spec in server.specs if spec.shm for name in spec.shm.values()
    ]
    try:
        run(events)  # warm: boots workers, compiles every shard's plans
        eps = measure(run, events, passes)
        stats = server.server_stats()
        mix = stats["codec_mix"]
        delivered = max(1, stats["writes_delivered"])
        lat = stats.get("write_notify_latency", {})
        meta = {
            "transport": server.transport,
            "codec": "pickle" if mix.get("write_frames_pickle") else "binary",
            "bytes_per_event": round(
                mix.get("ingress_bytes", 0) / delivered, 1
            ),
            "write_frames_binary": mix.get("write_frames_binary", 0),
            "write_frames_pickle": mix.get("write_frames_pickle", 0),
            # End-to-end write->notify latency over every timed pass, in
            # ms; zeros when the metrics plane is off (the control leg).
            "write_notify_p50_ms": round(lat.get("p50", 0.0) * 1e3, 3),
            "write_notify_p95_ms": round(lat.get("p95", 0.0) * 1e3, 3),
            "write_notify_p99_ms": round(lat.get("p99", 0.0) * 1e3, 3),
            "write_notify_samples": int(lat.get("count", 0)),
        }
        return eps, meta
    finally:
        server.close()
        if check_segments is not None:
            check_segments(segment_names)


def _assert_segments_gone(names):
    from repro.core.statestore import segment_exists

    leaked = [name for name in names if segment_exists(name)]
    assert not leaked, f"leaked shared-memory segments after teardown: {leaked}"


def run_bench(num_events: int = NUM_EVENTS, shard_counts=SHARD_COUNTS, passes: int = 3):
    graph = bench_graph("livejournal-small", scale=0.25)
    events = write_workload(graph, num_events)
    results = {
        "serve": {},
        "shm": {},
        "serve_inprocess_eps": 0.0,
    }

    inproc, inproc_meta = bench_serve(graph, events, 2, "inprocess", passes)
    results["serve_inprocess_eps"] = round(inproc)

    def row(label, eps, meta):
        return [
            label,
            f"{eps:,.0f}",
            meta["codec"],
            f"{meta['bytes_per_event']:,.0f}",
        ]

    rows = [row("serve-inproc x2", inproc, inproc_meta)]
    for shards in shard_counts:
        queue_eps, queue_meta = bench_serve(
            graph, events, shards, "process", passes, transport="queue"
        )
        shm_eps, shm_meta = bench_serve(
            graph, events, shards, "process", passes,
            transport="shm", check_segments=_assert_segments_gone,
        )
        results["serve"][str(shards)] = {
            "eps": round(queue_eps),
            **queue_meta,
        }
        results["shm"][str(shards)] = {
            "eps": round(shm_eps),
            "speedup_vs_queue": round(
                shm_eps / queue_eps if queue_eps else 0.0, 2
            ),
            **shm_meta,
        }
        rows.append(row(f"serve-proc x{shards} (queue)", queue_eps, queue_meta))
        rows.append(row(f"serve-proc x{shards} (shm)", shm_eps, shm_meta))

    # The metrics-off control leg: the fastest configuration (1-shard
    # shm) re-run with the metrics plane disabled.  Relative
    # instrumentation overhead is largest where per-event work is
    # smallest, so this is the worst case for the observability tax
    # (bench_obs_overhead.py measures the same ratio with interleaved
    # passes on the noise-free in-process executor).
    first = str(min(int(s) for s in results["shm"]))
    off_eps, off_meta = bench_serve(
        graph, events, int(first), "process", passes,
        transport="shm", metrics=False, check_segments=_assert_segments_gone,
    )
    on_eps = results["shm"][first]["eps"]
    results["metrics_overhead"] = {
        "shards": int(first),
        "transport": "shm",
        "metrics_on_eps": on_eps,
        "metrics_off_eps": round(off_eps),
        "on_vs_off": round(on_eps / off_eps, 3) if off_eps else 0.0,
    }
    rows.append(row(f"serve-proc x{first} (shm, metrics off)", off_eps, off_meta))
    emit_table(
        "serve_scaling",
        f"Serving layer [SUM, vnm_a+mincut, batch={BATCH_SIZE}]: "
        "write throughput (events/s)",
        ["sink", "events/s", "codec", "B/event"],
        rows,
    )
    return results


def persist(results, num_events: int) -> None:
    history = []
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH) as handle:
                history = json.load(handle)
        except (ValueError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(
        {
            "bench": "serve_scaling",
            "timestamp": time.time(),
            "num_events": num_events,
            "batch_size": BATCH_SIZE,
            "cpus": os.cpu_count(),
            "aggregate": "sum",
            "results": results,
        }
    )
    with open(JSON_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def main(argv):
    smoke = "--smoke" in argv
    num_events = 4_000 if smoke else NUM_EVENTS
    shard_counts = (1, 2) if smoke else SHARD_COUNTS
    # Full runs take best-of-5: at 4 shard processes on a shared single
    # core, scheduler noise swings single passes ±20% — enough to flip a
    # transport comparison that is stable under best-of.
    passes = 2 if smoke else 5
    results = run_bench(num_events=num_events, shard_counts=shard_counts, passes=passes)
    persist(results, num_events)
    top = str(max(int(s) for s in results["serve"]))
    best = results["serve"][top]
    best_shm = results["shm"][top]
    print(
        f"serve x{top} queue: {best['eps']:,} ev/s; "
        f"shm: {best_shm['eps']:,} ev/s "
        f"({best_shm['speedup_vs_queue']}x vs queue); "
        f"write→notify p99 {best_shm['write_notify_p99_ms']} ms; "
        f"metrics on/off {results['metrics_overhead']['on_vs_off']}x; "
        f"JSON -> {JSON_PATH}"
    )
    if smoke:
        # CI tripwire, deliberately loose.  The shm transport ran
        # (bench_serve asserted it resolved and its segments were
        # unlinked); it must not collapse vs the queue.
        assert best_shm["speedup_vs_queue"] >= 0.5, (
            f"shm transport grossly regressed vs queue: "
            f"{best_shm['speedup_vs_queue']}x"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
