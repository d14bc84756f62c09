"""``gateway_fanout``: the network edge in isolation.

The server and its ``GatewayServer`` live in a host subprocess
(``gateway_host.py``: one shard, in-process executor, so the shard
transport is bypassed); the runner holds the two TCP connections — a
blocking writer ``EAGrClient`` and an ``AsyncEAGrClient`` that carries 16
subscription streams over overlapping ego sets, each pumped by its own
task on one event-loop thread.  What is measured is the frame codec over
TCP, the gateway's event loop, per-subscriber fan-out and flow control.
Both phases are closed loops.  Phase A sends one batch at a time — write,
wait until its notifications have reached the subscriber, read — and
gives the read and write→notify latencies: service times of the path on a
busy system.  (An open loop at a fraction of saturation leaves the system
idle between batches; what it then measures is how long this host takes to
wake an idle process, four hops in a row, which doubled from one run to
the next.)  Phase B keeps up to ``INFLIGHT_BATCHES`` batches in flight and
gives the throughputs and the ack latency.  The host keeps no log: a
restarted one is a new one, so ``recovery_s`` repeats the set-up
measurement.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import threading
from typing import Dict, List

from . import layers
from .harness import (
    WARM_SHARE,
    Ctx,
    NoteSink,
    Probes,
    Report,
    Window,
    check_against_oracle,
    clock,
    pacer_lateness,
)
from .wl_serve import (
    Writer,
    check_probes_complete,
    call_metrics,
    closed_loop_metrics,
    server_stats_metrics,
    span_seconds,
)

HOST_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "gateway_host.py")
HOST_BOOT_TIMEOUT_S = 60.0
QUIESCE_TIMEOUT_S = 30.0
#: closed-loop batches whose notifications have not reached the
#: subscriber yet.  An acknowledgement only says the server applied the
#: batch; fan-out is asynchronous and slower, so an unbounded caller
#: measures the write path of a gateway drowning in its own backlog: on
#: one and the same seed its throughput came out anywhere from 1 370 to
#: 2 450 events/s (and with 10-row batches the paused streams' resume fell
#: off the 4096-entry journal: ``ResumeGapError``).  A well-behaved client
#: bounds what it has in flight; so does this one.  Measured against four
#: other configurations in the README (*Deviations*).
INFLIGHT_BATCHES = 4


class Host:
    """The gateway host subprocess and its one-line-each-way protocol."""

    def __init__(self, ctx: Ctx) -> None:
        command = [sys.executable, HOST_SCRIPT, "--seed", str(ctx.inputs.seed)]
        if ctx.smoke:
            command.append("--smoke")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("gateway host ended before it was listening")
            address = json.loads(line)
            self.address = (address["host"], address["port"])
        except BaseException:
            self.close()
            raise

    def close(self) -> dict:
        """Ask for the statistics line, let the host close gateway →
        server, wait for it to end."""
        stats: dict = {}
        if self.process.poll() is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
                line = self.process.stdout.readline()
                stats = json.loads(line) if line else {}
            except (OSError, ValueError):
                pass
        try:
            self.process.wait(timeout=HOST_BOOT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            self.process.wait(timeout=10)
        self.process.stdin.close()
        self.process.stdout.close()
        return stats


class Subscriber:
    """One ``AsyncEAGrClient`` on its own event-loop thread: one stream
    per watch set, one pump task per stream."""

    def __init__(self, address, watch: List[List[int]]) -> None:
        from repro.serve import AsyncEAGrClient

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="suite-subscriber", daemon=True
        )
        self.thread.start()
        self.client = AsyncEAGrClient(*address, client_id="suite-subscriber")
        self.tasks: List[asyncio.Task] = []

        async def connect():
            await self.client.connect()
            return [
                await self.client.subscribe(egos, subscriber=f"s{i}")
                for i, egos in enumerate(watch)
            ]

        try:
            self.streams = self._call(connect())
        except BaseException:
            self.close()
            raise

    def _call(self, coroutine, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    def start(self, sink: NoteSink, tally) -> None:
        async def pump(index: int, stream) -> None:
            try:
                while True:
                    notes = [await stream.get()]
                    notes += await stream.poll()
                    sink.deliver(
                        index,
                        [n.ego for n in notes],
                        [n.value for n in notes],
                        [n.stamp for n in notes],
                        clock(),
                    )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - a dead stream is a counted failure
                tally.fail(f"stream {index}: {exc!r}")

        async def spawn():
            self.tasks = [
                asyncio.ensure_future(pump(i, s)) for i, s in enumerate(self.streams)
            ]

        self._call(spawn())

    def close(self) -> None:
        async def shutdown():
            for task in self.tasks:
                task.cancel()
            await asyncio.gather(*self.tasks, return_exceptions=True)
            await self.client.close()

        try:
            self._call(shutdown(), timeout=30.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            if not self.loop.is_running():
                self.loop.close()


class Rig:
    """Host + writer client + subscriber client, closed in reverse."""

    def __init__(self, ctx: Ctx) -> None:
        from repro.serve import EAGrClient

        tracer = ctx.tracer
        self.host = self.client = self.subscriber = None
        try:
            self.host = tracer.wrap("gateway.start", Host)(ctx)
            self.client = tracer.wrap("client.connect", EAGrClient)(
                *self.host.address, client_id="suite-writer"
            )
            self.subscriber = tracer.wrap("client.subscribe", Subscriber)(
                self.host.address, ctx.inputs.watch
            )
            self.writer = Writer(
                ctx, self.client, Probes(ctx.inputs.probes, writers=1), 0, layer="client"
            )
            self.writer.send(clock())  # set-up ends when the first batch is acknowledged
        except BaseException:
            self.close()
            raise

    def close(self) -> dict:
        """Subscriber and writer clients first, then the host (which
        closes gateway → server); each step runs even if an earlier one
        raised.  Returns the host's statistics."""
        stats: dict = {}
        with contextlib.ExitStack() as stack:
            if self.host is not None:
                stack.callback(lambda: stats.update(self.host.close()))
            if self.client is not None:
                stack.callback(self.client.close)
            if self.subscriber is not None:
                stack.callback(self.subscriber.close)
        return stats


def run(ctx: Ctx) -> Dict:
    inputs, spec, tracer, tally, meter = ctx.inputs, ctx.spec, ctx.tracer, ctx.tally, ctx.meter
    report = Report(ctx)
    if tracer.enabled:
        report.metrics.update(layers.dissect(ctx, replay_core=True))

    rig = report.set_up(lambda: Rig(ctx))
    try:
        writer = rig.writer
        sink = NoteSink(writer.probes, len(inputs.watch), tally, tracer)
        rig.subscriber.start(sink, tally)

        probe_seen = threading.Event()
        sink.on_probe = probe_seen.set

        def wait_until_in_flight(limit: int) -> None:
            """Block while more than ``limit`` batches have not reached
            the subscriber yet (every batch carries a probe)."""
            deadline = clock() + QUIESCE_TIMEOUT_S
            while writer.sent - len(sink.lat_values) > limit and clock() < deadline:
                probe_seen.wait(0.05)
                probe_seen.clear()

        def gate() -> None:
            wait_until_in_flight(INFLIGHT_BATCHES - 1)

        def one_at_a_time(seconds: float) -> Window:
            """Write, wait for the batch's notifications, read; again."""
            start = clock()
            while clock() - start < seconds:
                meter.tick(clock())
                writer.send(clock(), inline_reads=False)
                wait_until_in_flight(0)
                writer.read_once(writer.sent)
            return Window(start, clock() - start)

        writer.closed_loop(ctx.seconds * WARM_SHARE, gate)
        spans_before = tracer.totals()
        single_window = one_at_a_time(ctx.seconds * spec.open_share)
        closed_window = writer.closed_loop(ctx.seconds - single_window.seconds, gate)
        spans_after = tracer.totals()

        # no drain() over the wire: the run is over when the last batch's
        # probe notification has reached the subscriber
        wait_until_in_flight(0)
        report.measured()
        check_probes_complete(ctx, sink, [writer])

        check_against_oracle(ctx, rig.client.read_batch, [writer.log(spec.window)])
    finally:
        host_stats = rig.close()

    closed_loop_metrics(report, closed_window, [writer], sink)
    report.latency("read", single_window, writer.samples.read_done, writer.samples.read_s)
    report.latency("write_notify", single_window, sink.lat_times, sink.lat_values)

    if tracer.enabled:
        report.lateness(pacer_lateness())
        metrics = report.metrics
        metrics.update(call_metrics("client", spans_before, spans_after, ctx.seconds))
        metrics.update(span_seconds(tracer, ("gateway.start", "client.connect", "client.subscribe")))
        # one write in flight: the client's round trips are the ack and read latencies
        metrics["client.write_rtt_p50_ms"] = metrics["ack_p50_ms"]
        metrics["client.read_rtt_p50_ms"] = metrics["read_p50_ms"]
        metrics["gateway.write_notify_p99_ms"] = metrics["write_notify_p99_ms"]
        metrics["gateway.notes_per_write_event"] = sink.total / (writer.sent * spec.write_rows)
        if host_stats:  # none = the host died, counted as a failure above
            metrics.update(server_stats_metrics(host_stats["stats"], host_stats["wal"], writer.sent))
    return report.result()
