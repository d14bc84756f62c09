"""Observability tax: the metrics plane measured against itself.

The metrics plane (``src/repro/obs``) instruments every layer of the
serving hot path — ingress timestamps on write frames, histogram
observes on route/apply/WAL paths, per-shard registries — and its
whole design brief is *cheap enough to leave on in production*.  This
bench proves (or falsifies) that claim with an interleaved A/B:

* **metrics on** — ``EAGrServer(..., metrics=True)``: the full plane,
  ingress stamps, latency histograms, shard registries.
* **metrics off** — the same deployment with ``metrics=False``: null
  metric objects, no timestamps, no shard registries to scrape.

Passes run in on/off pairs within the same process, the leg that goes
first alternating from pair to pair, and the verdict is the median of the
per-pair on/off throughput ratios: a slow stretch of the machine lands
inside one pair and moves one ratio, where a best-of-N per leg lets one
lucky pass on either side decide.  The in-process executor keeps worker
scheduling noise out of the comparison entirely, leaving only the
instrumentation delta, and its leg runs pinned to one CPU: the server's
flusher thread then never hands the interpreter lock across CPUs, which
on a two-vCPU virtual machine moved single passes by up to 30%.  Full
runs repeat the comparison on process shards over the queue transport
(where the shard registries' ``OP_STATS`` scrape adds its cost).

Results append to ``BENCH_obs.json`` at the repo root; each run also
renders the metrics-on server's Prometheus exposition to
``benchmarks/results/metrics.prom`` (the artifact CI uploads).
``--smoke`` shrinks the workload and asserts the acceptance floor: the
median per-pair on/off ratio >= 0.95 (overhead < 5%).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    from benchmarks._common import bench_graph, emit_table
    from benchmarks.bench_serve_scaling import write_workload
except ImportError:  # script mode
    sys.path.insert(0, os.path.dirname(__file__))
    from _common import bench_graph, emit_table
    from bench_serve_scaling import write_workload

from repro.obs import MetricsExporter
from repro.serve import EAGrServer

BATCH_SIZE = 256
NUM_EVENTS = 12_000
PASSES = 25
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_obs.json")
PROM_PATH = os.path.join(os.path.dirname(__file__), "results", "metrics.prom")


def make_server(graph, metrics, executor="inprocess"):
    from repro.core.aggregates import Sum
    from repro.core.query import EgoQuery
    from repro.core.windows import TupleWindow
    from repro.graph.neighborhoods import Neighborhood

    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(1),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return EAGrServer(
        graph,
        query,
        num_shards=2,
        executor=executor,
        metrics=metrics,
        overlay_algorithm="vnm_a",
        dataflow="mincut",
        queue_depth=16,
    )


def timed_pass(server, events) -> float:
    gc.collect()
    write_batch = server.write_batch
    started = time.perf_counter()
    for start in range(0, len(events), BATCH_SIZE):
        write_batch(events[start : start + BATCH_SIZE])
    server.drain()
    elapsed = time.perf_counter() - started
    return len(events) / elapsed if elapsed > 0 else 0.0


def pinned_to_one_cpu():
    """Confine this process to one of its CPUs; returns the CPU set to
    restore, or ``None`` where affinity cannot be set."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        return allowed
    except (AttributeError, OSError):
        return None


def ab_compare(graph, events, passes, executor="inprocess"):
    """``passes`` on/off pairs, one warmed server per leg, the first leg of
    a pair alternating: ``(median on ev/s, median off ev/s, median
    per-pair on/off ratio, latency, exposition)``.  The in-process leg
    runs pinned to one CPU (see the module docstring)."""
    allowed = pinned_to_one_cpu() if executor == "inprocess" else None
    on = make_server(graph, True, executor=executor)
    off = make_server(graph, False, executor=executor)
    try:
        assert on.metrics_enabled and not off.metrics_enabled
        # A small watched set on BOTH legs: the write→notify histogram
        # needs delivered notifications to sample, and keeping the legs
        # identical means the delta is still instrumentation only.
        watched = sorted(graph.nodes(), key=repr)[:8]
        on.subscribe("bench-watch", watched)
        off.subscribe("bench-watch", watched)
        timed_pass(on, events)   # warm: plans, buffers, (workers)
        timed_pass(off, events)
        on_eps, off_eps, ratios = [], [], []
        for pair in range(max(1, passes)):
            if pair % 2:
                off_eps.append(timed_pass(off, events))
                on_eps.append(timed_pass(on, events))
            else:
                on_eps.append(timed_pass(on, events))
                off_eps.append(timed_pass(off, events))
            ratios.append(on_eps[-1] / off_eps[-1] if off_eps[-1] else 0.0)
        exposition = MetricsExporter(on).render()
        latency = on.server_stats()["write_notify_latency"]
        return (
            statistics.median(on_eps), statistics.median(off_eps),
            statistics.median(ratios), latency, exposition,
        )
    finally:
        on.close()
        off.close()
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def run_bench(num_events=NUM_EVENTS, passes=PASSES, with_process=True):
    graph = bench_graph("livejournal-small", scale=0.25)
    events = write_workload(graph, num_events)
    results = {}
    rows = []
    exposition = None
    legs = ["inprocess"] + (["process"] if with_process else [])
    for label in legs:
        on_eps, off_eps, ratio, latency, expo = ab_compare(
            graph, events, passes, executor=label
        )
        results[label] = {
            "metrics_on_eps": round(on_eps),
            "metrics_off_eps": round(off_eps),
            "on_vs_off": round(ratio, 3),
            "overhead_pct": round((1.0 - ratio) * 100.0, 1),
            "write_notify_p50_ms": round(latency["p50"] * 1e3, 3),
            "write_notify_p99_ms": round(latency["p99"] * 1e3, 3),
            "write_notify_samples": int(latency["count"]),
        }
        exposition = expo  # keep the last (richest) leg's exposition
        rows.append([
            label,
            f"{on_eps:,.0f}",
            f"{off_eps:,.0f}",
            f"{ratio:.3f}x",
            f"{latency['p99'] * 1e3:.2f} ms",
        ])
    emit_table(
        "obs_overhead",
        f"Metrics plane overhead [SUM, vnm_a+mincut, batch={BATCH_SIZE}]: "
        "median of alternating on/off pairs",
        ["leg", "on ev/s", "off ev/s", "on/off", "p99 wr→notify"],
        rows,
    )
    if exposition is not None:
        os.makedirs(os.path.dirname(PROM_PATH), exist_ok=True)
        with open(PROM_PATH, "w") as handle:
            handle.write(exposition)
    return results


def persist(results, num_events) -> None:
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
            "bench": "obs_overhead",
            "timestamp": time.time(),
            "num_events": num_events,
            "batch_size": BATCH_SIZE,
            "cpus": os.cpu_count(),
            "results": results,
        }
    )
    with open(JSON_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def main(argv):
    smoke = "--smoke" in argv
    # Smoke still needs a timed region big enough for one pair's ratio to
    # mean something: a ~10 ms region swings +-10% on a shared core, which
    # would gate CI on scheduler luck instead of the instrumentation.
    num_events = 8_000 if smoke else NUM_EVENTS
    # Smoke keeps to the in-process leg: the floor below compares two legs
    # of identical deterministic work, which process-scheduling noise on a
    # shared single-core runner would otherwise drown.
    results = run_bench(num_events=num_events, with_process=not smoke)
    persist(results, num_events)
    inproc = results["inprocess"]
    print(
        f"metrics on/off: {inproc['on_vs_off']}x inprocess "
        f"({inproc['overhead_pct']}% overhead), "
        f"p99 write→notify {inproc['write_notify_p99_ms']} ms; "
        f"exposition -> {PROM_PATH}; JSON -> {JSON_PATH}"
    )
    if smoke:
        assert inproc["write_notify_samples"] > 0, "no latency samples"
        assert inproc["on_vs_off"] >= 0.95, (
            f"metrics plane costs more than 5%: on/off "
            f"{inproc['on_vs_off']}x ({inproc['overhead_pct']}%)"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
