"""``serve_feed`` and ``durable_ingest``: a two-shard ``EAGrServer`` with
process executors and the default assignment, driven from inside the
runner.

``serve_feed`` is the production path without the network: routing,
``WriteFrame`` packing, the shard transport, shard apply, the change diff
and notification delivery into eight in-process subscriptions drained by
one consumer thread.  Phase A is an open loop at a fixed rate (read and
write→notify latency are taken here, the latter from each batch's due
time), phase B a closed loop with one caller (throughputs and ack latency
are taken here).  The writers' hot set rotates while decisions and
placement were made for its first position; every phase covers whole
passes over the schedule, so that all runs measure the same work.

``durable_ingest`` is the same server with a write-ahead log: two
closed-loop writer threads, because two concurrent callers are the
minimum that lets a group commit show.  After the timed region the server
is closed and the populated log is reopened cold three times:
``recovery_s`` is the median time to the first oracle-equal read.  A
server without a log restarts empty, so ``serve_feed`` reports its set-up
measurement as ``recovery_s``.

Transport: see :data:`TRANSPORT` — the one place the suite departs from
the server's defaults.
"""

from __future__ import annotations

import os
import queue
import shutil
import threading
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import layers, oracle
from .harness import (
    ENGINE_OPTS,
    WARM_SHARE,
    Ctx,
    NoteSink,
    Probes,
    Report,
    Samples,
    SpeedMeter,
    Window,
    check_against_oracle,
    clock,
    drain_subscription,
    make_frequencies,
    make_query,
    pacer_lateness,
    sleep_until,
)

#: Not the default ("auto" = shared-memory rings).  ``ShmRing`` stores its
#: 64-bit cursors with ``struct.Struct("<q").pack_into``, which zero-fills
#: the target before it writes the value; a consumer that loads ``tail`` in
#: between sees 0, takes the ring for non-empty and decodes stale bytes
#: (``repro_shm_ring.py`` shows it on a bare ring within seconds).  In
#: this suite's servers that killed a shard worker once in about 130 runs,
#: and a benchmark's workloads must never fail.  Until the ring
#: publishes its cursors with single stores the servers here use the queue
#: transport; then this becomes ``"auto"`` again and the baseline is
#: measured anew.
TRANSPORT = "queue"
CHECKPOINT_INTERVAL = 256
REOPENS = 3
#: batches per writer thread written after the final checkpoint, so every
#: cold reopen replays the same redo suffix
REDO_TAIL_BATCHES = 64


def _server(ctx: Ctx, **kwargs):
    from repro import DynamicGraph
    from repro.serve import EAGrServer

    return EAGrServer(
        DynamicGraph.from_edges(ctx.inputs.edges),
        make_query(ctx.spec.window),
        num_shards=2,
        executor="inprocess" if ctx.smoke else "process",
        transport=TRANSPORT,
        frequencies=make_frequencies(ctx.inputs),
        **ENGINE_OPTS,
        **kwargs,
    )


class Consumer:
    """One thread draining every in-process subscription into the sink.
    It sleeps on an event the server's delivery hook sets, so a
    notification is in the consumer's hands as soon as the thread runs."""

    def __init__(self, subscriptions: list, sink: NoteSink) -> None:
        self.subscriptions = subscriptions
        self.sink = sink
        self._wake = threading.Event()
        self._stop = threading.Event()
        for subscription in subscriptions:
            subscription.on_delivery = self._wake.set
        self._thread = threading.Thread(target=self._run, name="suite-consumer")
        self._thread.start()

    def _run(self) -> None:
        while True:
            stopping = self._stop.is_set()
            self._wake.wait(0.05)
            self._wake.clear()
            for index, subscription in enumerate(self.subscriptions):
                drain_subscription(index, subscription, self.sink)
            if stopping:
                return

    def stop(self) -> None:
        """Drain what is queued, then end the thread."""
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=30)


class Writer:
    """One closed- or open-loop caller of ``server.write_batch`` /
    ``read_batch`` with its own sample lists (no sharing across threads)."""

    def __init__(self, ctx: Ctx, server, probes: Probes, thread: int, layer: str = "serve") -> None:
        self.ctx = ctx
        self.thread = thread
        self.probes = probes
        self.batches = ctx.inputs.write_batches(thread)
        self.reads = ctx.inputs.read_batches()
        self.sent = 0           # batches acknowledged by this writer
        self.cycle_done: List[float] = []  # when each pass over ``batches`` ended
        self.samples = Samples()
        tracer = ctx.tracer
        self.write = tracer.wrap(f"{layer}.write_batch", server.write_batch)
        self.read = tracer.wrap(f"{layer}.read_batch", server.read_batch)

    def send(self, due: float, inline_reads: bool = True) -> None:
        """The writer's next batch (probe row included), then — every
        ``reads_every`` batches on thread 0 — one ``read_batch``."""
        ctx, region, tally = self.ctx, self.samples, self.ctx.tally
        k = self.sent + 1
        ctx.tracer.set_rid((self.thread, k))
        batch = self.batches[(k - 1) % len(self.batches)] + [
            self.probes.row(self.thread, k, due)
        ]
        tally.add()
        start = clock()
        try:
            self.write(batch)
        except Exception as exc:  # noqa: BLE001 - a refused batch is a counted failure
            tally.fail(f"write_batch {self.thread}/{k}: {exc!r}")
        done = clock()
        self.sent = k
        if k % len(self.batches) == 0:
            self.cycle_done.append(done)
        region.ack_done.append(done)
        region.ack_s.append(done - start)
        region.op_done.append(done)
        region.op_events.append(len(batch))
        if inline_reads and self.thread == 0 and k % ctx.spec.reads_every == 0:
            self.read_once((k - 1) % len(self.batches) // ctx.spec.reads_every)

    def read_once(self, index: int) -> None:
        region, tally = self.samples, self.ctx.tally
        egos = self.reads[index % len(self.reads)]
        tally.add()
        start = clock()
        try:
            self.read(egos)
        except Exception as exc:  # noqa: BLE001
            tally.fail(f"read_batch {index}: {exc!r}")
        done = clock()
        region.read_done.append(done)
        region.read_s.append(done - start)
        region.op_done.append(done)
        region.op_events.append(len(egos))

    def closed_loop(self, seconds: float, gate=None, whole_cycles: bool = False) -> Window:
        """Send back to back for ``seconds`` — with ``whole_cycles``, on to
        the end of the pass over the schedule that is under way then;
        ``gate`` (if given) is called before each batch and may block to
        bound what is in flight.  Returns the region it ran in."""
        start = clock()
        end = start + seconds
        while True:
            now = clock()
            if now >= end and not (whole_cycles and self.sent % len(self.batches)):
                return Window(start, now - start)
            if self.thread == 0:
                self.ctx.meter.tick(now)
            if gate is not None:
                gate()
                now = clock()
            self.send(now)

    def open_loop(self, rate: float, seconds: float, whole_cycles: bool = False) -> Window:
        """Batch ``j`` goes out at ``start + j / rate`` however the
        previous ones fared, and is timed from that due time; with
        ``whole_cycles`` as many batches as whole passes over the schedule
        fit into ``seconds`` (at least one pass).  Returns the region the
        batches were due in.  The read
        that follows every ``reads_every``-th batch is issued by a second
        thread half a period after that batch was due: inline it would
        hold the next batch back past its due time, and right behind the
        acknowledgement it races the batch's own fan-out, which makes its
        latency two-peaked and the median jump between the peaks."""
        start = clock()
        every = self.ctx.spec.reads_every
        pending: "queue.SimpleQueue[Optional[Tuple[int, float]]]" = queue.SimpleQueue()

        def reads() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                index, due = item
                sleep_until(due)
                self.ctx.tracer.set_rid(("read", index))
                self.read_once(index)

        reader = threading.Thread(target=reads, name="suite-reader")
        reader.start()
        try:
            count = int(rate * seconds)
            if whole_cycles:
                count = max(1, count // len(self.batches)) * len(self.batches)
            for j in range(count):
                due = start + j / rate
                if due - clock() > 4 * SpeedMeter.NOMINAL_S:  # only where it cannot delay a send
                    self.ctx.meter.tick(clock())
                sleep_until(due)
                self.samples.late_s.append(clock() - due)
                self.send(due, inline_reads=False)
                if self.sent % every == 0:
                    pending.put((self.sent // every, due + 0.5 / rate))
        finally:
            pending.put(None)
            reader.join()
        return Window(start, max(count / rate, clock() - start))

    def log(self, window: int):
        return oracle.replay_log(
            self.ctx.inputs.write_nodes[self.thread],
            self.ctx.inputs.write_vals[self.thread],
            self.sent, window,
        )


def check_probes_complete(ctx: Ctx, sink: NoteSink, writers: List[Writer]) -> None:
    """Every batch carried a probe, so every batch must have become
    visible to the consumer by the end."""
    seen = len(sink.lat_values)
    sent = sum(w.sent for w in writers)
    ctx.tally.add()
    if seen != sent:
        ctx.tally.fail(f"{sent} batches sent but {seen} made visible by probe notifications")


def call_metrics(layer: str, before: dict, after: dict, seconds: float) -> Dict[str, float]:
    """How long the callers spent inside ``<layer>``'s ``write_batch`` /
    ``read_batch`` (summed over the caller threads), as seconds and as a
    share of the timed wall, and how often they called — from the tracer's
    totals at the start and at the end of the timed regions, so warm-up
    and tail are left out."""
    out = {}
    empty = {"count": 0, "self_s": 0.0}
    for call in ("write", "read"):
        name = f"{layer}.{call}_batch"
        first, last = before.get(name, empty), after.get(name, empty)
        busy = last["self_s"] - first["self_s"]
        out[f"{name}_busy_s"] = busy
        out[f"{layer}.{call}_share"] = busy / seconds
        out[f"{layer}.{call}_calls"] = last["count"] - first["count"]
    return out


def span_seconds(tracer, names) -> Dict[str, float]:
    """``<span>_s`` = total seconds of each one-off span that was recorded."""
    totals = tracer.totals()
    return {f"{name}_s": totals[name]["total_s"] for name in names if name in totals}


def server_stats_metrics(stats: dict, wal: dict, batches: int) -> Dict[str, float]:
    """``serve.*`` / ``shard.*`` / ``wal.*`` from the server's own
    ``server_stats()`` and the WAL section of ``metrics()``."""
    load = stats["shard_load"]
    applied = [row["applied_eps"] for row in load]
    latency = stats["write_notify_latency"]
    return {
        "serve.writes_sent": stats["writes_sent"],
        "serve.writes_delivered": stats["writes_delivered"],
        "serve.observed_replication_factor": stats["observed_replication_factor"],
        "serve.coalesced_flushes": stats["coalesced_flushes"],
        "serve.notifications_delivered": stats["notifications_delivered"],
        # the server's own histogram: a cross-check of the probes, not a substitute
        "serve.srv_write_notify_p99_ms": float(latency.get("p99", 0.0)) * 1e3,
        "shard.busy_fraction_max": max(row["busy_fraction"] for row in load),
        "shard.applied_skew": max(applied) / (sum(applied) / len(applied)) if sum(applied) else 0.0,
        "shard.ring_depth_max": max(row["ring_depth"] for row in load),
        "wal.fsyncs_per_batch": wal["fsyncs"] / max(1, batches),
    }


def closed_loop_metrics(
    report: Report, window: Window, writers: List[Writer], sink: NoteSink, edges=None,
) -> None:
    """What every server workload takes from its closed-loop region: both
    throughputs (over 1-s slices, or over the stretches between ``edges``)
    and the ack latency."""
    def gathered(field: str) -> np.ndarray:
        return np.concatenate([getattr(w.samples, field) for w in writers])

    report.rate("events_per_s", window, gathered("op_done"), gathered("op_events"), edges)
    report.rate("notes_per_s", window, sink.recv_times, sink.recv_counts, edges)
    report.latency("ack", window, gathered("ack_done"), gathered("ack_s"))
    report.info.update(batches_sent=sum(w.sent for w in writers), notifications=sink.total)


def run_feed(ctx: Ctx) -> Dict:
    inputs, spec, tracer = ctx.inputs, ctx.spec, ctx.tracer
    report = Report(ctx)
    if tracer.enabled:
        report.metrics.update(layers.dissect(ctx, replay_core=True))

    def build():
        server = tracer.wrap("serve.ctor", _server)(ctx)
        try:
            subscriptions = tracer.wrap("serve.subscribe", lambda: [
                server.subscribe(f"s{i}", egos) for i, egos in enumerate(inputs.watch)
            ])()
            writer = Writer(ctx, server, Probes(inputs.probes, writers=1), 0)
            writer.send(clock())  # set-up ends when the first batch is accepted
        except BaseException:
            server.close()
            raise
        return server, subscriptions, writer

    server, subscriptions, writer = report.set_up(build)
    consumer = None
    try:
        sink = NoteSink(writer.probes, len(inputs.watch), ctx.tally, tracer)
        consumer = Consumer(subscriptions, sink)

        # The hot set drifts, and what a batch costs and how many
        # notifications it causes follow it (2.5x between positions): every
        # region starts at the top of the schedule and covers whole passes
        # over it, so all runs measure the same work.
        writer.closed_loop(ctx.seconds * WARM_SHARE, whole_cycles=True)
        spans_before = tracer.totals()
        seconds_a = ctx.seconds * spec.open_share
        open_window = writer.open_loop(spec.open_rate, seconds_a, whole_cycles=True)
        closed_window = writer.closed_loop(ctx.seconds - seconds_a, whole_cycles=True)
        passes = [closed_window.start] + [t for t in writer.cycle_done if t > closed_window.start]
        spans_after = tracer.totals()
        tracer.wrap("serve.drain", server.drain)()
        consumer.stop()
        report.measured()

        check_against_oracle(ctx, server.read_batch, [writer.log(spec.window)])
        check_probes_complete(ctx, sink, [writer])

        closed_loop_metrics(report, closed_window, [writer], sink, edges=passes)
        report.latency("read", open_window, writer.samples.read_done, writer.samples.read_s)
        report.latency("write_notify", open_window, sink.lat_times, sink.lat_values)
        report.lateness(writer.samples.late_s)
        report.info.update(passes=len(passes) - 1)
        report.info.update(assignment=server.assignment, transport=server.transport)
        if tracer.enabled:
            report.metrics.update(call_metrics("serve", spans_before, spans_after, ctx.seconds))
            report.metrics.update(
                server_stats_metrics(server.server_stats(), server.metrics()["wal"], writer.sent)
            )
    finally:
        if consumer is not None:
            consumer.stop()
        tracer.wrap("serve.close", server.close)()
    report.metrics.update(
        span_seconds(tracer, ("serve.ctor", "serve.subscribe", "serve.drain", "serve.close"))
    )
    return report.result()


def run_durable(ctx: Ctx) -> Dict:
    inputs, spec, tracer = ctx.inputs, ctx.spec, ctx.tracer
    report = Report(ctx)
    if tracer.enabled:
        report.metrics.update(layers.dissect(ctx, replay_core=True))

    wal_dir = os.path.join(ctx.tmp_dir, "wal")
    copies = [os.path.join(ctx.tmp_dir, f"wal-reopen{i}") for i in range(REOPENS)]
    probes = Probes(inputs.probes, writers=spec.writers)

    def build():
        server = tracer.wrap("serve.ctor", _server)(
            ctx, wal_dir=wal_dir, checkpoint_interval=CHECKPOINT_INTERVAL
        )
        try:
            subscription = tracer.wrap("serve.subscribe", server.subscribe)("s0", inputs.watch[0])
            writers = [Writer(ctx, server, probes, t) for t in range(spec.writers)]
            writers[0].send(clock())  # set-up ends when the first batch is durable
        except BaseException:
            server.close()
            raise
        return server, subscription, writers

    try:
        server, subscription, writers = report.set_up(build, recovers=False)
        consumer = None
        try:
            sink = NoteSink(probes, 1, ctx.tally, tracer)
            consumer = Consumer([subscription], sink)

            def in_threads(seconds: float) -> None:
                threads = [
                    threading.Thread(target=w.closed_loop, args=(seconds,), name=f"suite-writer{w.thread}")
                    for w in writers
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            in_threads(ctx.seconds * WARM_SHARE)
            spans_before = tracer.totals()
            window = Window(clock(), ctx.seconds)
            in_threads(ctx.seconds)
            spans_after = tracer.totals()
            server.drain()

            # Pin the redo suffix a cold reopen replays: checkpoint, then a
            # fixed number of batches from one thread at a time.
            server.checkpoint()
            for w in writers:
                for _ in range(REDO_TAIL_BATCHES):
                    w.send(clock())
            tracer.wrap("serve.drain", server.drain)()
            consumer.stop()
            want = check_against_oracle(
                ctx, server.read_batch, [w.log(spec.window) for w in writers]
            )
            check_probes_complete(ctx, sink, writers)

            closed_loop_metrics(report, window, writers, sink)
            report.latency("read", window, writers[0].samples.read_done, writers[0].samples.read_s)
            report.latency("write_notify", window, sink.lat_times, sink.lat_values)
            if tracer.enabled:
                report.metrics.update(call_metrics("serve", spans_before, spans_after, ctx.seconds))
                report.metrics.update(server_stats_metrics(
                    server.server_stats(), server.metrics()["wal"], sum(w.sent for w in writers)
                ))
                report.lateness(pacer_lateness())
        finally:
            if consumer is not None:
                consumer.stop()
            tracer.wrap("serve.close", server.close)()

        # Cold reopens, each of its own copy of the log, so that all recover
        # the same state whatever a reopened server writes to its log.
        for copy in copies:
            shutil.copytree(wal_dir, copy)
        recoveries = []
        for copy in copies:
            ctx.tally.add()
            start = clock()
            revived = tracer.wrap("serve.recover", _server)(
                ctx, wal_dir=copy, checkpoint_interval=CHECKPOINT_INTERVAL
            )
            try:
                got = revived.read_batch(inputs.check_egos)
                recoveries.append(clock() - start)
                if got != want:
                    ctx.tally.fail("recovered reads differ from the oracle")
                report.metrics["wal.recovered_batches"] = revived.recovered_batches
            finally:
                revived.close()
        report.measured()
        report.metrics["recovery_s"] = median(recoveries)
    finally:
        for directory in (wal_dir, *copies):
            shutil.rmtree(directory, ignore_errors=True)
    report.metrics.update(
        span_seconds(tracer, ("serve.ctor", "serve.subscribe", "serve.drain", "serve.close"))
    )
    return report.result()
