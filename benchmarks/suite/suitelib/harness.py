"""What the workload runners share: failure accounting, probes, the
notification sink, open-loop pacing and the report of a run.

``repro`` is imported lazily inside functions so that importing this
module (the self-test does) needs nothing but numpy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import oracle
from .gen import Inputs, Spec
from .stats import edge_rates, median_rate, region_percentile
from .trace import Tracer

clock = time.perf_counter

#: untimed closed-loop warm-up before a timed region (lazy plan compiles,
#: worker caches), as a share of ``--seconds``
WARM_SHARE = 0.2
ENGINE_OPTS = dict(overlay_algorithm="vnm_a", dataflow="mincut")


class SpeedMeter:
    """How fast this machine is running right now, sampled all through
    the run, so that times can be reported at *nominal* machine speed.

    Why: each of this sandbox's two virtual CPUs slows down on its own,
    for seconds to minutes at a time, when a neighbour on the host gets
    busy (the reference below costs 0.14 ms on a calm CPU, 0.23 ms for a
    minute while the other CPU stays at 0.14, now and then 0.56).  One and
    the same process timed in consecutive 10-s windows therefore runs up
    to 1.9x slower from one window to the next, while the benchmark
    contract allows no regression bound above 0.25 and accepts a metric
    only if its run-to-run spread stays inside its bound: raw wall-clock
    numbers cannot be gated here at all (README, *Times are reported at
    nominal machine speed*, has the measurements).

    How: the load loops run a small fixed reference computation every
    ``INTERVAL_S`` and record the thread CPU time it took (CPU time, so
    that being descheduled by the workload's own processes is not mistaken
    for a slow machine).  Durations are divided, and rates multiplied, by
    the *slowdown* at the moment they were taken: the reference's cost
    relative to ``NOMINAL_S``, averaged over half-second bins.  A reported
    second is a second of a machine that runs the reference in exactly
    ``NOMINAL_S``; the constants only fix that unit, and every raw
    wall-clock value is printed beside the compensated one (``raw.*``).
    The runner confines the whole run to one CPU (``runner.pin_to_one_cpu``)
    so that the meter speaks for all of it.

    The reference does what the system is made of - numpy gathers and
    scatters, dictionary look-ups, building a list of tuples - because it
    has to slow down by the same factor as the system when the machine
    does (a register-only loop slowed half as much as the engine and left
    twice the residual spread).  It runs its kernel ``REPEATS`` times back
    to back: the first finds the caches as the system left them, the
    others find them warm.  Fitted over the passes of eight ``serve_feed``
    runs, throughput follows the cold cost with exponent -1.07 and 0.08
    residual, the warm cost with -0.80 and 0.04, and the sum of one cold
    and two warm with -0.97 and 0.05 - the one whose exponent is the -1
    the compensation assumes.

    Limits: a change that alters what the system leaves in the caches
    moves the cold part of the reference a little, whatever the machine
    does.  The traced run reports the median slowdown as
    ``suite.slowdown``: a change whose ``suite.slowdown`` differs from its
    parent's over alternating pairs has influenced the reference, and its
    claim must then hold on the ``raw.*`` values too.
    """

    NOMINAL_S = 0.58e-3
    REPEATS = 3
    INTERVAL_S = 0.025
    BIN_S = 0.5
    COLUMN = 20_000
    SCATTERS = 2_000
    KEYS = 1_000

    def __init__(self) -> None:
        self.times: List[float] = []
        self.costs: List[float] = []
        self._due = 0.0
        self._column = np.arange(self.COLUMN, dtype=np.float64)
        # a fixed permutation, so the gather jumps through the column
        self._index = (np.arange(self.COLUMN) * 7919) % self.COLUMN
        self._table = {key: key for key in range(self.KEYS)}

    def reference(self) -> float:
        """Thread CPU seconds one reference computation took: the same
        kernel ``REPEATS`` times back to back."""
        column, index, table = self._column, self._index, self._table
        start = time.thread_time()
        for _ in range(self.REPEATS):
            gathered = column[index]
            gathered += 1.0
            np.add.at(column, index[: self.SCATTERS], 1.0)
            gathered.sum()
            total = 0
            for key in range(self.KEYS):
                total += table[key]
            _rows = [(key, float(key)) for key in range(self.KEYS)]
        return time.thread_time() - start

    def tick(self, now: float) -> None:
        """Sample if the interval has passed.  Called from the load loop
        of a run's first caller thread, and from no other."""
        if now >= self._due:
            self.costs.append(self.reference())
            self.times.append(clock())
            self._due = self.times[-1] + self.INTERVAL_S

    def median_slowdown(self) -> float:
        return float(np.median(self.costs)) / self.NOMINAL_S if self.costs else 0.0

    def slowdown_at(self, times) -> np.ndarray:
        """Slowdown factor at each of ``times`` (1.0 = nominal speed)."""
        t = np.asarray(self.times, dtype=np.float64)
        cost = np.asarray(self.costs, dtype=np.float64) / self.NOMINAL_S
        bins = np.floor((t - t[0]) / self.BIN_S).astype(np.int64)
        sums = np.bincount(bins, weights=cost)
        counts = np.bincount(bins)
        filled = counts > 0
        centres = t[0] + (np.flatnonzero(filled) + 0.5) * self.BIN_S
        return np.interp(np.asarray(times, dtype=np.float64), centres, sums[filled] / counts[filled])


class Tally:
    """Operations attempted and failed (raised, refused, timed out, wrong
    against the oracle, stamp gap or duplicate)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()  # callers, consumer and pumps all count

    def add(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        with self._lock:
            self.failed += count
            if len(self.reasons) < 20:
                self.reasons.append(reason)


@dataclass
class Ctx:
    """One run: inputs, knobs of the invocation, tracer and tally."""

    workload: str
    inputs: Inputs
    seconds: float
    tracer: Tracer
    tmp_dir: str
    smoke: bool
    tally: Tally = field(default_factory=Tally)
    meter: SpeedMeter = field(default_factory=SpeedMeter)

    @property
    def spec(self) -> Spec:
        return self.inputs.spec


def make_query(window: int):
    from repro import EgoQuery, Neighborhood, Sum, TupleWindow

    return EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(window),
        neighborhood=Neighborhood.in_neighbors(),
    )


def make_frequencies(inputs: Inputs):
    from repro import FrequencyModel

    return FrequencyModel(read=dict(inputs.read_freq), write=dict(inputs.write_freq))


# ---------------------------------------------------------------------------
# probes: write -> notify latency measured from outside
# ---------------------------------------------------------------------------


class Probes:
    """Each write batch carries one write of a unique integer to a probe
    writer whose only reader is a watched probe ego.  With window 1 and
    ``Sum`` the notified value *is* that integer, so it names the batch
    that caused it: latency = receive time − due time of that batch.

    Writer thread ``t`` sends its ``k``-th batch (``k`` from 1) with value
    ``k * writers + t`` to the probe pairs it owns, round-robin.  A shard
    may coalesce batches; the next notification of that probe then makes
    every skipped batch visible at once and each is sampled at that
    (later) time.
    """

    def __init__(self, pairs: Sequence[Tuple[int, int]], writers: int) -> None:
        self.writers = writers
        self.owned = [pairs[t::writers] for t in range(writers)]
        self.ego_slot = {
            ego: (t, slot)
            for t, owned in enumerate(self.owned)
            for slot, (_writer, ego) in enumerate(owned)
        }
        self.first_ego = min(self.ego_slot, default=1 << 62)
        #: due[t][k-1] = when thread t's k-th batch was due
        self.due: List[List[float]] = [[] for _ in range(writers)]
        self._seen: Dict[int, int] = {ego: 0 for ego in self.ego_slot}

    def row(self, thread: int, k: int, due: float) -> Tuple[int, float, float]:
        """The probe row of thread ``thread``'s ``k``-th batch; records
        its due time."""
        self.due[thread].append(due)
        owned = self.owned[thread]
        writer = owned[k % len(owned)][0]
        value = float(k * self.writers + thread)
        return (writer, value, value)

    def decode(self, ego: int, value: float) -> Tuple[int, List[int]]:
        """``(thread, batches)`` made visible by a probe notification."""
        thread, slot = self.ego_slot[ego]
        k = int(value) // self.writers
        step = len(self.owned[thread])
        first = self._seen[ego] + step if self._seen[ego] else (slot or step)
        self._seen[ego] = k
        return thread, list(range(first, k + 1, step))


class NoteSink:
    """Where every received notification lands: checks that each
    subscriber's stamps run 1, 2, 3, … without gap or duplicate, counts
    notifications per receive time, and turns probe notifications into
    write→notify latency samples."""

    def __init__(self, probes: Probes, subscribers: int, tally: Tally, tracer: Tracer) -> None:
        self.probes = probes
        self.tally = tally
        self.tracer = tracer
        self.next_stamp = [1] * subscribers
        self.recv_times: List[float] = []
        self.recv_counts: List[int] = []
        self.lat_times: List[float] = []
        self.lat_values: List[float] = []
        self.total = 0
        self.on_probe = None

    def deliver(self, sub: int, egos, values, stamps, now: float) -> None:
        """A run of notifications for subscriber ``sub`` (parallel
        sequences or arrays), in the consumer's hands at ``now``."""
        count = len(stamps)
        if not count:
            return
        self.tally.add(count)
        expected = self.next_stamp[sub]
        if int(stamps[0]) != expected or int(stamps[-1]) != expected + count - 1:
            self.tally.fail(
                f"subscriber {sub}: stamps {int(stamps[0])}..{int(stamps[-1])} "
                f"after {expected - 1} ({count} notes)"
            )
        self.next_stamp[sub] = int(stamps[-1]) + 1
        self.total += count
        self.recv_times.append(now)
        self.recv_counts.append(count)
        egos = np.asarray(egos)
        for index in np.flatnonzero(egos >= self.probes.first_ego):
            ego = int(egos[index])
            if ego not in self.probes.ego_slot:
                continue
            thread, batches = self.probes.decode(ego, float(values[index]))
            due = self.probes.due[thread]
            for k in batches:
                self.lat_times.append(now)
                self.lat_values.append(now - due[k - 1])
                self.tracer.add("wl.write_notify", due[k - 1], now, rid=(thread, k))
            if batches and self.on_probe is not None:
                self.on_probe()


def drain_subscription(sub_index: int, subscription, sink: NoteSink) -> None:
    """Hand everything queued on an in-process ``Subscription`` to the
    sink — raw ``NoteFrame`` records where the binary plane delivered
    them, ``Notification`` objects otherwise."""
    items = subscription.poll_batch()
    if not items:
        return
    now = clock()
    run: List[Any] = []
    for item in items:
        records = getattr(item, "records", None)
        if records is None:
            run.append(item)
            continue
        if run:
            _deliver_objects(sub_index, run, sink, now)
            run = []
        sink.deliver(sub_index, records["ego"], records["value"], records["stamp"], now)
    if run:
        _deliver_objects(sub_index, run, sink, now)


def _deliver_objects(sub_index: int, notes: list, sink: NoteSink, now: float) -> None:
    sink.deliver(
        sub_index,
        [n.ego for n in notes],
        [n.value for n in notes],
        [n.stamp for n in notes],
        now,
    )


def check_against_oracle(ctx: Ctx, read_batch: Callable, logs: Sequence[Tuple[np.ndarray, np.ndarray]]) -> List[float]:
    """Read the seeded check egos through ``read_batch`` and compare them
    with the brute-force values of the suite's own event ``logs`` (one per
    writer thread); every differing ego is a failed operation.  Returns
    the expected values."""
    inputs = ctx.inputs
    want = oracle.expected_values(
        inputs.edges, logs, ctx.spec.window, inputs.total_nodes, inputs.check_egos
    )
    got = read_batch(inputs.check_egos)
    ctx.tally.add(len(want))
    wrong = sum(1 for g, w in zip(got, want) if g != w)
    if wrong:
        ctx.tally.fail(f"{wrong} of {len(want)} egos differ from the oracle", wrong)
    return want


# ---------------------------------------------------------------------------
# pacing and summaries
# ---------------------------------------------------------------------------


def sleep_until(due: float) -> None:
    """Sleep, then spin the last stretch: ``time.sleep`` alone overshoots
    by more than the 1 ms lateness limit on a busy two-core box."""
    while True:
        remaining = due - clock()
        if remaining <= 0:
            return
        if remaining > 0.002:
            time.sleep(remaining - 0.0015)


def pacer_lateness(ticks: int = 200, rate: float = 1000.0) -> List[float]:
    """How late :func:`sleep_until` returns on this machine with nothing
    to send — what a workload without an open-loop phase reports as
    generator lateness (the same validity guard: a machine on which the
    pacer alone runs late cannot time anything to the millisecond)."""
    start = clock()
    late = []
    for tick in range(ticks):
        due = start + tick / rate
        sleep_until(due)
        late.append(clock() - due)
    return late


@dataclass
class Samples:
    """What one caller measured, as parallel lists (one instance per
    thread, so nothing is shared).  ``*_done`` is the completion time that
    places a sample inside a window."""

    op_done: List[float] = field(default_factory=list)
    op_events: List[int] = field(default_factory=list)
    ack_done: List[float] = field(default_factory=list)
    ack_s: List[float] = field(default_factory=list)
    read_done: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Window:
    """A timed region: ``[start, start + seconds)``."""

    start: float
    seconds: float


class Report:
    """The metrics of one run, as the runner writes them out: one flat
    dictionary (end-to-end and per-layer names never collide); the driver
    picks the ones ``BENCHMARK.json`` declares for the kind of run and
    prints the rest as not declared."""

    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.info: Dict[str, Any] = {}
        self.rss_until = None

    def measured(self) -> None:
        """Everything the metrics cover has happened.  The driver ignores
        memory samples taken after this moment, so the oracle's own
        arrays (tens of MB for a fraction of a second, caught or missed by
        the 5 Hz sampler) do not decide ``peak_rss_mb``."""
        self.rss_until = time.monotonic()

    def set_up(self, build: Callable[[], Any], recovers: bool = True):
        """Run ``build`` — inputs ready → first operation accepted — and
        report its duration as ``setup_s``, at nominal machine speed and
        raw.  ``build`` is one call and cannot tick the speed meter, so a
        thread samples the reference beside it (the reference's cost is
        thread CPU time: waiting for the interpreter lock is not in it).
        A system that keeps no log restarts by booting cold: unless
        ``recovers`` is false the same measurement is its ``recovery_s``."""
        costs: List[float] = []
        done = threading.Event()

        def sample() -> None:
            meter = self.ctx.meter
            while not done.wait(meter.INTERVAL_S):
                costs.append(meter.reference())

        sampler = threading.Thread(target=sample, name="suite-setup-meter")
        sampler.start()
        start = clock()
        try:
            system = build()
        finally:
            elapsed = clock() - start
            done.set()
            sampler.join()
        # nominal seconds = integral of dt / slowdown(t), sampled evenly in time
        speed = float(np.mean(SpeedMeter.NOMINAL_S / np.asarray(costs))) if costs else 1.0
        self.metrics["setup_s"] = elapsed * speed
        self.metrics["raw.setup_s"] = elapsed
        if recovers:
            self.metrics["recovery_s"] = self.metrics["setup_s"]
        return system

    def rate(self, name: str, window: Window, done, amounts, edges=None) -> None:
        """``name``: median over 1-s slices of ``amounts`` completed at
        ``done``, at nominal machine speed and raw.  With ``edges`` the
        slices are the stretches between them (one repetition of a
        periodic schedule each) instead of seconds."""
        amounts = np.asarray(amounts, dtype=np.float64)
        scaled = amounts * self.ctx.meter.slowdown_at(done)
        if edges is None:
            self.metrics[name] = median_rate(done, scaled, window.start, window.seconds)
            self.metrics[f"raw.{name}"] = median_rate(done, amounts, window.start, window.seconds)
        else:
            self.metrics[name] = float(np.median(edge_rates(done, scaled, edges)))
            self.metrics[f"raw.{name}"] = float(np.median(edge_rates(done, amounts, edges)))

    def latency(self, name: str, window: Window, done, seconds) -> None:
        """``<name>_p50_ms`` and ``<name>_p99_ms`` over every sample of
        the window, at nominal machine speed and raw, and how many
        samples there were."""
        seconds = np.asarray(seconds, dtype=np.float64)
        scaled = seconds / self.ctx.meter.slowdown_at(done)
        for q in (50, 99):
            value, count = region_percentile(done, scaled, q, window.start, window.seconds)
            raw, _ = region_percentile(done, seconds, q, window.start, window.seconds)
            self.metrics[f"{name}_p{q}_ms"] = value * 1e3
            self.metrics[f"raw.{name}_p{q}_ms"] = raw * 1e3
        self.samples[name] = count

    def lateness(self, late_s: Sequence[float]) -> None:
        """How late the open-loop generator ran."""
        self.metrics["gen.late_p99_ms"] = float(np.percentile(late_s, 99)) * 1e3

    def result(self) -> Dict[str, Any]:
        if self.ctx.tracer.enabled:
            self.metrics["suite.slowdown"] = self.ctx.meter.median_slowdown()
        return {"metrics": self.metrics, "samples": self.samples, "info": self.info,
                "rss_until": self.rss_until}
