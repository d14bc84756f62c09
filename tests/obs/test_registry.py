"""Registry math: bucket boundaries, quantile recovery, shard merges.

The registry's one structural promise is that two registries making the
same registration calls in the same order are layout-compatible — that
is what lets a front-end decode a shard's slab bytes by declaring the
same schema.  These tests pin that promise.
"""

import math

import pytest

from repro.obs.registry import (
    HIST_BUCKETS,
    MetricsRegistry,
    SlowOpLog,
    bucket_bounds_us,
    bucket_index,
    percentile_from_buckets,
)


# ---------------------------------------------------------------------------
# bucket math
# ---------------------------------------------------------------------------

def test_bucket_zero_is_sub_microsecond():
    assert bucket_index(0.0) == 0
    assert bucket_index(0.9999e-6) == 0


def test_bucket_boundaries_are_powers_of_two_microseconds():
    # Bucket i (1 <= i < 47) covers [2**(i-1), 2**i) µs: each boundary
    # value lands in the bucket whose half-open range starts there.
    for i in range(1, HIST_BUCKETS - 1):
        lower_us = 2 ** (i - 1)
        assert bucket_index(lower_us / 1e6) == i, i
        just_below = (lower_us - 0.5) / 1e6
        assert bucket_index(just_below) == i - 1


def test_bucket_overflow_clamps():
    an_hour = 3600.0
    assert bucket_index(an_hour) < HIST_BUCKETS
    assert bucket_index(1e12) == HIST_BUCKETS - 1
    assert bucket_index(float(2 ** 60)) == HIST_BUCKETS - 1


def test_bucket_bounds_match_index():
    bounds = bucket_bounds_us()
    assert len(bounds) == HIST_BUCKETS
    assert bounds[0] == 1.0
    assert bounds[-1] == float("inf")
    # Every finite upper bound is exclusive: an observation exactly at
    # the bound belongs to the next bucket.
    for i, bound in enumerate(bounds[:-1]):
        assert bucket_index((bound - 0.25) / 1e6) == i
        assert bucket_index(bound / 1e6) == i + 1


def test_percentile_empty_histogram_is_finite_zero():
    assert percentile_from_buckets([0.0] * HIST_BUCKETS, 0.99) == 0.0


def test_percentile_interpolates_within_bucket():
    counts = [0.0] * HIST_BUCKETS
    counts[bucket_index(100e-6)] = 100.0  # all samples in [64, 128) µs
    p50 = percentile_from_buckets(counts, 0.50)
    assert 64e-6 <= p50 < 128e-6
    # Linear interpolation: p99 sits near the top of the bucket.
    p99 = percentile_from_buckets(counts, 0.99)
    assert p50 < p99 < 128e-6


def test_percentile_overflow_clamps_to_floor():
    counts = [0.0] * HIST_BUCKETS
    counts[-1] = 10.0
    p99 = percentile_from_buckets(counts, 0.99)
    assert math.isfinite(p99)
    assert p99 == pytest.approx(2 ** (HIST_BUCKETS - 2) / 1e6)


# ---------------------------------------------------------------------------
# registry behavior
# ---------------------------------------------------------------------------

def make_schema(registry):
    h = registry.histogram("lat_seconds")
    c = registry.counter("ops")
    g = registry.gauge("depth")
    return h, c, g


def test_histogram_summary_fields():
    r = MetricsRegistry()
    h, c, g = make_schema(r)
    for us in (10, 100, 1000, 10_000):
        h.observe(us / 1e6)
    s = h.summary()
    assert s["count"] == 4.0
    assert s["sum"] == pytest.approx(0.01111, rel=1e-3)
    assert 0.0 < s["p50"] <= s["p95"] <= s["p99"]
    assert all(math.isfinite(s[k]) for k in ("count", "sum", "p50", "p95", "p99"))


def test_disabled_registry_still_tracks_layout():
    on = MetricsRegistry(enabled=True)
    off = MetricsRegistry(enabled=False)
    make_schema(on)
    h, c, g = make_schema(off)
    # Null metrics: every operation is a no-op...
    h.observe(1.0)
    c.inc()
    g.set(5.0)
    assert h.count == 0.0 and c.value == 0.0 and g.value == 0.0
    # ...but the slot layout still matches the enabled twin, so a
    # disabled registry can size and address a slab.
    assert off.n_slots == on.n_slots
    assert off.schema() == on.schema()


def test_merge_accumulates_across_shards():
    shard_a = MetricsRegistry()
    shard_b = MetricsRegistry()
    front = MetricsRegistry()
    ha, ca, ga = make_schema(shard_a)
    hb, cb, gb = make_schema(shard_b)
    make_schema(front)
    for _ in range(3):
        ha.observe(50e-6)
    ca.inc(7)
    ga.set(2.0)
    for _ in range(5):
        hb.observe(900e-6)
    cb.inc(11)
    gb.set(3.0)

    front.merge_values(shard_a.values_snapshot())
    front.merge_values(shard_b.values_snapshot())
    merged = front.snapshot()
    assert merged["ops"] == 18.0
    assert merged["depth"] == 5.0  # gauges sum: fleet total
    assert merged["lat_seconds"]["count"] == 8.0
    # The merged distribution spans both shards' buckets.
    assert merged["lat_seconds"]["p50"] >= 50e-6
    assert merged["lat_seconds"]["p99"] < 1024e-6


def test_load_values_rejects_wrong_width():
    r = MetricsRegistry()
    make_schema(r)
    with pytest.raises(ValueError):
        r.load_values([0.0] * (r.n_slots + 1))
    with pytest.raises(ValueError):
        r.merge_values([0.0])


def test_kind_conflict_raises():
    r = MetricsRegistry()
    r.counter("x")
    with pytest.raises(ValueError):
        r.gauge("x")


def test_reregistration_returns_same_metric():
    r = MetricsRegistry()
    assert r.counter("x") is r.counter("x")
    assert r.n_slots == 1


# ---------------------------------------------------------------------------
# slow-op log
# ---------------------------------------------------------------------------

def test_slow_op_log_gates_on_threshold():
    log = SlowOpLog(threshold=0.010, capacity=4)
    assert not log.note("fast", 0.001)
    assert len(log) == 0
    assert log.note("slow", 0.020, shard=3)
    event = log.snapshot()[0]
    assert event["op"] == "slow" and event["shard"] == 3
    assert event["seconds"] == pytest.approx(0.020)


def test_slow_op_log_bounded():
    log = SlowOpLog(threshold=0.0, capacity=2)
    for i in range(5):
        log.note(f"op{i}", 1.0)
    assert len(log) == 2
    assert [e["op"] for e in log.snapshot()] == ["op3", "op4"]
    assert log.dropped == 3
