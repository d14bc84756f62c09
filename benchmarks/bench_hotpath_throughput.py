"""Hot-path write throughput: per-event loop vs batched compiled plans.

Not a paper figure — this tracks the repo's own ingestion hot path.  For
every system in ``SYSTEMS`` it measures write events/s four ways on the
same warmed workload:

* **seed interp** — the pre-plan-compiler dict-of-dict DFS;
* **per-event** — ``engine.write`` per event on the object value store
  (each write walks its writer's rows of the scatter table);
* **batched (object)** — ``engine.write_batch`` in chunks of
  ``BATCH_SIZE`` on the object store: one ``writer_step`` and one walk
  of the writer's scatter-table rows per touched writer.  This column
  reads lower than it did while the object store inlined a SUM/COUNT
  kernel in the batch loop (about 0.7×, PERFORMANCE.md "One push
  table"); the object store is only a reference for SUM, which ``auto``
  runs columnar;
* **batched (columnar)** — the same batches on the columnar numpy value
  store (fold-then-scatter kernels; see ``repro/core/statestore.py``).

Results are printed, persisted under ``benchmarks/results/``, and appended
as JSON to ``BENCH_hotpath.json`` at the repo root so CI accumulates a
perf trajectory.  Run as a script (``--smoke`` shrinks the workload for
CI and asserts columnar >= batched-object on SUM) or through pytest.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

try:
    from benchmarks._common import SYSTEMS, bench_graph, build_engine, emit_table, workload
except ImportError:  # script mode: python benchmarks/bench_hotpath_throughput.py
    sys.path.insert(0, os.path.dirname(__file__))
    from _common import SYSTEMS, bench_graph, build_engine, emit_table, workload

from repro.graph.streams import WriteEvent

BATCH_SIZE = 256
NUM_EVENTS = 6_000
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_hotpath.json")


def write_workload(graph, num_events: int):
    """A pure-write trace (plus one warmup write per node)."""
    events = workload(graph, num_events, write_read_ratio=10_000.0, seed=23)
    return [e for e in events if isinstance(e, WriteEvent)]


def measure(run, events, passes: int = 3) -> float:
    """Best-of-N events/s for ``run(events)`` (suppresses GC/scheduler noise)."""
    best = 0.0
    for _ in range(max(1, passes)):
        gc.collect()
        started = time.perf_counter()
        run(events)
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, len(events) / elapsed)
    return best


def run_per_event(engine):
    def run(events):
        write = engine.write
        for event in events:
            write(event.node, event.value, event.timestamp)

    return run


def run_seed_interpreter(engine):
    """The seed's per-event write path: uncompiled dict-of-dict DFS.

    Replays the pre-plan-compiler hot path (writer step + ``propagate_from``
    micro-step traversal) so the bench keeps an honest baseline of what a
    write cost before compiled plans existed.
    """
    runtime = engine.runtime

    def run(events):
        writer_of = runtime.overlay.writer_of
        buffers = runtime.buffers
        for event in events:
            runtime.counters.writes += 1
            timestamp = event.timestamp
            if timestamp is None:
                timestamp = runtime.clock + 1.0
            runtime.clock = max(runtime.clock, timestamp)
            handle = writer_of.get(event.node)
            if handle is None:
                continue
            evicted = buffers[event.node].append(event.value, timestamp)
            message = runtime.writer_step(handle, [event.value], evicted)
            if message is not None:
                runtime.propagate_from(handle, message)

    return run


def run_batched(engine, batch_size: int = BATCH_SIZE):
    def run(events):
        write_batch = engine.write_batch
        for start in range(0, len(events), batch_size):
            write_batch(events[start : start + batch_size])

    return run


def systems_for_sum():
    for name, algorithm, dataflow in SYSTEMS:
        if algorithm == "vnm_d":
            continue  # needs a duplicate-insensitive aggregate
        yield name, algorithm, dataflow


def run_bench(num_events: int = NUM_EVENTS, dataset: str = "livejournal-small"):
    graph = bench_graph(dataset, scale=0.25)
    rows = []
    results = {}
    for name, algorithm, dataflow in systems_for_sum():
        events = write_workload(graph, num_events)

        def fresh_engine(value_store="object"):
            return build_engine(
                graph, aggregate_name="sum", algorithm=algorithm,
                dataflow=dataflow, events=events, value_store=value_store,
            )

        seed = measure(run_seed_interpreter(fresh_engine()), events)
        per_event = measure(run_per_event(fresh_engine()), events)
        batched_engine = fresh_engine()
        batched = measure(run_batched(batched_engine), events)
        columnar_engine = fresh_engine("columnar")
        columnar = measure(run_batched(columnar_engine), events)
        vs_seed = batched / seed if seed else 0.0
        results[name] = {
            "seed_interpreter_eps": round(seed),
            "per_event_eps": round(per_event),
            "batched_eps": round(batched),
            "batched_columnar_eps": round(columnar),
            "speedup_vs_seed": round(vs_seed, 2),
            "speedup_vs_per_event": round(batched / per_event, 2) if per_event else 0.0,
            "columnar_vs_batched": round(columnar / batched, 2) if batched else 0.0,
            "columnar_vs_seed": round(columnar / seed, 2) if seed else 0.0,
            "plan_compiles": batched_engine.runtime.plan_compiles,
            "columnar_backend": columnar_engine.value_store_backend,
        }
        rows.append(
            [
                name, f"{seed:,.0f}", f"{per_event:,.0f}", f"{batched:,.0f}",
                f"{columnar:,.0f}",
                f"{(columnar / batched) if batched else 0.0:.2f}x",
            ]
        )
    emit_table(
        "hotpath_throughput",
        f"Hot path [SUM, batch={BATCH_SIZE}]: write throughput (events/s)",
        [
            "system", "seed interp", "per-event", "batched-obj",
            "batched-col", "col/obj",
        ],
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
            "bench": "hotpath_throughput",
            "timestamp": time.time(),
            "num_events": num_events,
            "batch_size": BATCH_SIZE,
            "aggregate": "sum",
            "systems": results,
        }
    )
    with open(JSON_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


def test_hotpath_batching_correct_and_cached():
    """Smoke-scale: batched state matches per-event state on both stores;
    each runs the one scatter table."""
    graph = bench_graph("livejournal-small", scale=0.12)
    events = write_workload(graph, 600)
    per_event_engine = build_engine(graph, aggregate_name="sum", algorithm="vnm_a")
    for event in events:
        per_event_engine.write(event.node, event.value, event.timestamp)
    for value_store in ("object", "columnar"):
        batched_engine = build_engine(
            graph, aggregate_name="sum", algorithm="vnm_a", value_store=value_store
        )
        run_batched(batched_engine)(events)
        assert batched_engine.runtime.scatter_builds >= 1
        for node in list(graph.nodes())[:40]:
            assert batched_engine.read(node) == per_event_engine.read(node), node


def test_hotpath_backends_agree():
    """Object and columnar batched ingestion end in identical reads."""
    graph = bench_graph("livejournal-small", scale=0.12)
    events = write_workload(graph, 600)
    engines = {
        mode: build_engine(
            graph, aggregate_name="sum", algorithm="vnm_a", value_store=mode
        )
        for mode in ("object", "columnar")
    }
    for engine in engines.values():
        run_batched(engine)(events)
    for node in list(graph.nodes())[:60]:
        assert engines["object"].read(node) == engines["columnar"].read(node), node


def test_hotpath_throughput_bench():
    results = run_bench(num_events=2_000)
    persist(results, 2_000)
    assert set(results) == {n for n, _, _ in systems_for_sum()}


def main(argv):
    smoke = "--smoke" in argv
    num_events = 1_500 if smoke else NUM_EVENTS
    results = run_bench(num_events=num_events)
    persist(results, num_events)
    vnm_a = results.get("vnm_a", {})
    print(
        f"vnm_a+mincut SUM: {vnm_a.get('seed_interpreter_eps', 0):,} ev/s seed, "
        f"{vnm_a.get('per_event_eps', 0):,} ev/s per-event, "
        f"{vnm_a.get('batched_eps', 0):,} ev/s batched-object, "
        f"{vnm_a.get('batched_columnar_eps', 0):,} ev/s batched-columnar "
        f"({vnm_a.get('columnar_vs_batched', 0)}x over object batch); "
        f"JSON -> {JSON_PATH}"
    )
    if smoke and vnm_a.get("columnar_backend") == "columnar":
        # CI guard: the columnar store must never lose to the object
        # batched path on SUM.
        assert (
            vnm_a["batched_columnar_eps"] >= vnm_a["batched_eps"]
        ), "columnar batched SUM slower than object batched"


if __name__ == "__main__":
    main(sys.argv[1:])
