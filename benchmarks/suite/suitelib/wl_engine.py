"""``engine_write_heavy`` / ``engine_read_heavy``: one ``EAGrEngine`` in
the runner, one caller thread, closed loop.

Each iteration is ``write_batch`` → ``changed_readers`` → ``read_batch``;
the two workloads differ only in the rows per call (10 writes : 1 read,
and the reverse) and in the frequencies handed to the engine, so a change
that buys write speed by pushing less shows as a loss on the other one.
The bare engine has no subscription objects: ``changed_readers()`` is
its notification interface (the signal the serve tier builds
subscriptions on), so a notification is one reader it reports and
write→notify is ``write_batch`` call → ``changed_readers`` return.  An
engine keeps no log: after a restart it is built again, so its
``recovery_s`` is the set-up measurement.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from . import layers, oracle
from .harness import (
    ENGINE_OPTS,
    WARM_SHARE,
    Ctx,
    Report,
    Window,
    check_against_oracle,
    clock,
    make_frequencies,
    make_query,
    pacer_lateness,
)


def run(ctx: Ctx) -> Dict:
    from repro import DynamicGraph, EAGrEngine

    inputs, spec, tracer, tally = ctx.inputs, ctx.spec, ctx.tracer, ctx.tally
    query = make_query(spec.window)
    frequencies = make_frequencies(inputs)
    batches = inputs.write_batches(0, stamped=False)
    reads = inputs.read_batches()
    cycle = len(batches)

    report = Report(ctx)
    if tracer.enabled:
        report.metrics.update(layers.dissect(ctx, replay_core=False))

    def build():
        engine = EAGrEngine(
            DynamicGraph.from_edges(inputs.edges), query,
            frequencies=frequencies, value_store="columnar", **ENGINE_OPTS,
        )
        engine.write_batch(batches[0])  # set-up ends when the first operation is accepted
        return engine

    engine = report.set_up(build)
    applied = 1  # batches applied to ``engine`` so far; batch j is ``batches[j % cycle]``

    samples = []

    def step(write, changed, read, k: int) -> None:
        t0 = clock()
        write(batches[k % cycle])
        t1 = clock()
        notes = len(changed())
        t2 = clock()
        read(reads[k % cycle])
        samples.append((t0, t1, t2, clock(), notes))

    def loop(seconds: float, write, changed, read) -> Window:
        nonlocal applied
        start = clock()
        end = start + seconds
        while True:
            now = clock()
            if now >= end:
                return Window(start, seconds)
            ctx.meter.tick(now)
            tracer.set_rid(applied)
            tally.add(3)
            try:
                step(write, changed, read, applied)
            except Exception as exc:  # noqa: BLE001 - a failed call is a counted failure
                tally.fail(f"iteration {applied}: {exc!r}", 3)
            applied += 1

    loop(ctx.seconds * WARM_SHARE, engine.write_batch, engine.changed_readers, engine.read_batch)
    samples.clear()
    window = loop(
        ctx.seconds,
        tracer.wrap("core.write_batch", engine.write_batch),
        tracer.wrap("core.changed_readers", engine.changed_readers),
        tracer.wrap("core.read_batch", engine.read_batch),
    )
    report.measured()

    check_against_oracle(
        ctx, engine.read_batch,
        [oracle.replay_log(inputs.write_nodes[0], inputs.write_vals[0], applied, spec.window)],
    )

    t0, t1, t2, t3, notes = np.array(samples).T
    report.rate("events_per_s", window, t3, np.full(len(t3), spec.write_rows + spec.read_rows))
    report.rate("notes_per_s", window, t2, notes)
    report.latency("ack", window, t1, t1 - t0)
    report.latency("write_notify", window, t2, t2 - t0)
    report.latency("read", window, t3, t3 - t2)
    report.info.update(iterations=len(samples), applied_batches=applied)

    if tracer.enabled:
        iterations = len(samples)
        report.metrics.update(layers.core_metrics(
            ctx, engine, iterations * spec.write_rows, iterations * spec.read_rows
        ))
        report.lateness(pacer_lateness())
    return report.result()
