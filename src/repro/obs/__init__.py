"""Observability: a low-overhead metrics registry and its exposition.

The serving tier (``repro.serve``) is a multi-process system: a front-end
routes write batches to shard workers, shard workers apply them against
their own engines, and notifications flow back.  Each shard keeps its
own registry; the front-end scrapes it with one ``OP_STATS`` round trip
and decodes it against the same schema:

* :class:`~repro.obs.registry.MetricsRegistry` — a slot-backed registry
  of counters, gauges and log-bucketed latency histograms.  All metric
  values live in one flat numpy float64 array, so an increment is one
  indexed add and a snapshot is one copy.  A disabled registry hands out
  shared no-op metrics, making the metrics-off cost a single attribute
  load.
* :func:`~repro.obs.schema.declare_shard_metrics` — the fixed, ordered
  shard-side schema, so worker and scraper agree on slot layout.
* :class:`~repro.obs.exporter.MetricsExporter` — Prometheus text
  exposition (``render()``) and an optional stdlib-http endpoint.
* :class:`~repro.obs.registry.SlowOpLog` — a threshold-gated bounded
  ring of structured slow-operation events.

Metrics default **on** (they are cheap enough to leave on in
production — ``benchmarks/bench_obs_overhead.py`` proves the overhead);
``EAGrServer(metrics=False)`` turns them off (null metric objects).
"""

from repro._lazy import facade

#: Public name -> the submodule that defines it, resolved on first use:
#: a shard worker reads only the registry and the shard schema, and the
#: exporter loads with the first name that needs it.
_EXPORTS = {
    "HIST_BUCKETS": "registry",
    "MetricsRegistry": "registry",
    "MetricsExporter": "exporter",
    "SlowOpLog": "registry",
    "GATEWAY_METRICS": "schema",
    "SHARD_METRICS": "schema",
    "bucket_bounds_us": "registry",
    "bucket_index": "registry",
    "declare_gateway_metrics": "schema",
    "declare_shard_metrics": "schema",
    "percentile_from_buckets": "registry",
    "serve_metrics_http": "exporter",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(globals(), _EXPORTS)
