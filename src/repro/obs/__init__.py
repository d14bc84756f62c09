"""Observability: low-overhead metrics registry + shared-memory scrape plane.

The serving tier (``repro.serve``) is a multi-process system: a front-end
routes write batches to shard workers over shared-memory rings, shard
workers apply them against their own engines, and notifications flow
back.  Asking a worker "how are you doing?" with a control message would
perturb exactly the thing being measured, so this package keeps the
measurement plane on the same zero-copy substrate as the data plane:

* :class:`~repro.obs.registry.MetricsRegistry` — a slot-backed registry
  of counters, gauges and log-bucketed latency histograms.  All metric
  values live in one flat numpy float64 array, so an increment is one
  indexed add and a snapshot is one copy.  A disabled registry hands out
  shared no-op metrics, making the metrics-off cost a single attribute
  load.
* :class:`~repro.obs.slab.MetricsSlab` — a named shared-memory segment
  (same ``multiprocessing.shared_memory`` + seqlock discipline as
  ``SharedColumnarStore``/``ShmRing``) into which each shard worker
  publishes its registry's value array; the front-end scrapes every
  shard with zero IPC and no control round-trip.
* :func:`~repro.obs.schema.declare_shard_metrics` — the fixed, ordered
  shard-side schema, so worker and scraper agree on slot layout.
* :class:`~repro.obs.exporter.MetricsExporter` — Prometheus text
  exposition (``render()``) and an optional stdlib-http endpoint.
* :class:`~repro.obs.registry.SlowOpLog` — a threshold-gated bounded
  ring of structured slow-operation events.

Metrics default **on** (they are cheap enough to leave on in
production — ``benchmarks/bench_obs_overhead.py`` proves the overhead);
``EAGR_METRICS=0`` or ``EAGrServer(metrics=False)`` turns them off.
"""

from .registry import (
    HIST_BUCKETS,
    MetricsRegistry,
    SlowOpLog,
    bucket_bounds_us,
    bucket_index,
    percentile_from_buckets,
)
from .slab import MetricsSlab
from .schema import (
    GATEWAY_METRICS,
    SHARD_METRICS,
    declare_gateway_metrics,
    declare_shard_metrics,
)
from .exporter import MetricsExporter, serve_metrics_http

__all__ = [
    "HIST_BUCKETS",
    "MetricsRegistry",
    "MetricsSlab",
    "MetricsExporter",
    "SlowOpLog",
    "GATEWAY_METRICS",
    "SHARD_METRICS",
    "bucket_bounds_us",
    "bucket_index",
    "declare_gateway_metrics",
    "declare_shard_metrics",
    "percentile_from_buckets",
    "serve_metrics_http",
]
