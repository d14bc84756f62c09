"""Fixed shard-side metric schema: worker and scraper must agree on slots.

A shard sends its registry's flat value array to the front-end in its
``OP_STATS`` reply; the front-end decodes the scrape by loading those
values into a registry of its own.  Both sides build
their registry with :func:`declare_shard_metrics`, which registers the
same metrics in the same order — the order **is** the wire format, so
changes here are wire-format changes: append new metrics at the end and
never reorder, or front-end and workers from the same build disagree on
slot layout.
"""

from __future__ import annotations

from .registry import KIND_COUNTER, KIND_GAUGE, KIND_HISTOGRAM

#: (name, kind) in slot order.  Appended-to, never reordered.
SHARD_METRICS = (
    ("shard_apply_seconds", KIND_HISTOGRAM),
    ("shard_recompute_seconds", KIND_HISTOGRAM),
    ("shard_batches_applied", KIND_COUNTER),
    ("shard_writes_applied", KIND_COUNTER),
    ("shard_notices_emitted", KIND_COUNTER),
    ("shard_engine_write_seconds", KIND_GAUGE),
    ("shard_engine_read_seconds", KIND_GAUGE),
    # Windowed load gauges (refreshed by the host when scraped/published
    # at least 50 ms apart): the rebalance policy's skew inputs.
    ("shard_busy_fraction", KIND_GAUGE),
    ("shard_applied_eps", KIND_GAUGE),
)

#: (name, kind) of the network gateway's connection/stream metrics.
#: Declared on the *front-end* registry (the gateway lives in the same
#: process as the EAGrServer it fronts), so they surface in
#: ``server.metrics()["server"]`` and the Prometheus exposition without
#: any new scrape path.  Same append-only discipline as SHARD_METRICS.
GATEWAY_METRICS = (
    ("gw_connections_opened", KIND_COUNTER),
    ("gw_connections_active", KIND_GAUGE),
    ("gw_streams_active", KIND_GAUGE),
    ("gw_frames_in", KIND_COUNTER),
    ("gw_frames_out", KIND_COUNTER),
    ("gw_bytes_in", KIND_COUNTER),
    ("gw_bytes_out", KIND_COUNTER),
    ("gw_notes_sent", KIND_COUNTER),
    ("gw_stream_pauses", KIND_COUNTER),
    ("gw_stream_resumes", KIND_COUNTER),
    ("gw_resume_gaps", KIND_COUNTER),
    ("gw_protocol_errors", KIND_COUNTER),
    ("gw_send_seconds", KIND_HISTOGRAM),
)

_REGISTRARS = {
    KIND_COUNTER: lambda reg, name: reg.counter(name),
    KIND_GAUGE: lambda reg, name: reg.gauge(name),
    KIND_HISTOGRAM: lambda reg, name: reg.histogram(name),
}


def declare_shard_metrics(registry):
    """Register the shard schema on ``registry``; return ``{name: metric}``."""
    out = {}
    for name, kind in SHARD_METRICS:
        out[name] = _REGISTRARS[kind](registry, name)
    return out


def declare_gateway_metrics(registry):
    """Register the gateway schema on ``registry``; return ``{name: metric}``.

    Idempotent per registry (re-registration returns the same metric
    objects), so a second :class:`~repro.serve.gateway.GatewayServer`
    attached to the same front-end shares the counters.
    """
    out = {}
    for name, kind in GATEWAY_METRICS:
        out[name] = _REGISTRARS[kind](registry, name)
    return out
