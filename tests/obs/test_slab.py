"""Metrics slab: create/attach lifecycle, publish/scrape round-trips,
and the seqlock's torn-read protocol under a concurrent writer.
"""

import threading

import pytest

from repro.core.statestore import segment_exists
from repro.obs.registry import MetricsRegistry
from repro.obs.slab import MetricsSlab
from repro.obs.schema import SHARD_METRICS, declare_shard_metrics


@pytest.fixture
def slab_name(request):
    return f"eagr-test-slab-{request.node.name[:24]}"


def test_create_publish_attach_scrape(slab_name):
    owner = MetricsSlab.create(slab_name, 4)
    try:
        owner.publish([1.0, 2.5, -3.0, 4.0])
        reader = MetricsSlab.attach(slab_name)
        assert reader.n_slots == 4
        assert list(reader.scrape()) == [1.0, 2.5, -3.0, 4.0]
        reader.close()
    finally:
        owner.close()
        owner.unlink()
    assert not segment_exists(slab_name)


def test_attach_validates_magic_and_width(slab_name):
    from repro.core.statestore import create_segment, unlink_segment

    shm = create_segment(slab_name, 64)
    try:
        shm.buf[:8] = b"\x00" * 8  # no magic
        with pytest.raises(ValueError, match="not a metrics slab"):
            MetricsSlab.attach(slab_name)
    finally:
        shm.close()
        unlink_segment(slab_name)

    owner = MetricsSlab.create(slab_name, 4)
    try:
        with pytest.raises(ValueError, match="4 slots"):
            MetricsSlab.attach(slab_name, n_slots=5)
    finally:
        owner.close()
        owner.unlink()


def test_registry_roundtrip_through_slab(slab_name):
    """A shard registry's snapshot survives the publish→scrape→decode path."""
    shard = MetricsRegistry()
    metrics = declare_shard_metrics(shard)
    metrics["shard_apply_seconds"].observe(0.002)
    metrics["shard_apply_seconds"].observe(0.040)
    metrics["shard_batches_applied"].inc(2)
    metrics["shard_engine_write_seconds"].set(0.0417)

    owner = MetricsSlab.create(slab_name, shard.n_slots)
    try:
        owner.publish(shard.values_snapshot())
        decoder = MetricsRegistry()
        declare_shard_metrics(decoder)
        decoder.load_values(owner.scrape())
        decoded = decoder.snapshot()
        assert decoded == shard.snapshot()
        assert decoded["shard_batches_applied"] == 2.0
        assert decoded["shard_apply_seconds"]["count"] == 2.0
    finally:
        owner.close()
        owner.unlink()


def test_schema_width_matches_slab(slab_name):
    """The wire schema's declared width is what slabs are sized from."""
    sizer = MetricsRegistry(enabled=False)  # disabled registries still lay out
    declare_shard_metrics(sizer)
    owner = MetricsSlab.create(slab_name, sizer.n_slots)
    try:
        assert owner.n_slots == sizer.n_slots
        assert len(owner.scrape()) == sizer.n_slots
        assert len(SHARD_METRICS) == 12
    finally:
        owner.close()
        owner.unlink()


def test_scrape_skips_torn_reads(slab_name):
    """A scrape never returns a half-published write: with the seqlock
    held odd the reader retries, and each returned copy is internally
    consistent (all slots from the same publish)."""
    owner = MetricsSlab.create(slab_name, 8)
    try:
        owner.publish([1.0] * 8)
        # Hold the seqlock odd, mutate the data area directly — a reader
        # arriving now must not trust the bytes.
        owner._set_seq(owner._seq() + 1)
        torn = [99.0] + [1.0] * 7
        owner._view()[:] = torn
        reader = MetricsSlab.attach(slab_name)
        got = list(reader.scrape())
        # All attempts saw an odd seq; the last-resort copy is whatever
        # is there — but completing the publish makes scrapes clean again.
        owner._set_seq(owner._seq() + 1)
        clean = list(reader.scrape())
        assert clean == torn
        reader.close()
        assert got is not None
    finally:
        owner.close()
        owner.unlink()


def test_scrape_under_concurrent_publisher(slab_name):
    """Hammer publishes from a thread while scraping: every scrape must
    be one coherent publish — all slots equal — never a torn mix."""
    n_slots = 64
    owner = MetricsSlab.create(slab_name, n_slots)
    reader = MetricsSlab.attach(slab_name)
    stop = threading.Event()

    def pound():
        i = 0
        while not stop.is_set():
            i += 1
            owner.publish([float(i)] * n_slots)

    thread = threading.Thread(target=pound, daemon=True)
    thread.start()
    try:
        torn = 0
        for _ in range(2000):
            values = list(reader.scrape())
            if len(set(values)) > 1:
                torn += 1
        # The seqlock retry loop gives up after a bounded number of
        # attempts rather than wedging, so an adversarial publisher can
        # in principle tear a scrape — but it must be vanishingly rare,
        # not the norm.
        assert torn <= 20, f"{torn}/2000 scrapes torn"
    finally:
        stop.set()
        thread.join(timeout=10)
        reader.close()
        owner.close()
        owner.unlink()
