"""Prometheus text exposition for the metrics snapshot API.

:class:`MetricsExporter` renders the structured snapshot returned by
``EAGrServer.metrics(include_buckets=True)`` (or any nested dict of the
same shape) as Prometheus text format (version 0.0.4):

* plain numbers become untyped samples named by their flattened path
  (``eagr_server_writes_sent``);
* histogram summaries (dicts with ``buckets``/``sum``/``count``) become
  the canonical ``_bucket{le=...}`` / ``_sum`` / ``_count`` triplet with
  cumulative buckets (boundaries in **seconds**, converted from the
  registry's µs buckets);
* sections keyed by shard id (``shards``, ``shard_io``)
  become a ``shard="i"`` label instead of a path component;
* non-numeric leaves (strings, the slow-op list) are skipped — they
  belong to the structured snapshot, not the exposition.

:func:`serve_metrics_http` mounts ``render()`` on a stdlib
``ThreadingHTTPServer`` daemon thread (``GET /metrics``) for anything
that wants to scrape over HTTP; it is optional and never started unless
asked for.
"""

from __future__ import annotations

import re
import threading

from .registry import bucket_bounds_us

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
_SHARD_KEYED = {"shards", "shard_io"}


def _clean(part):
    return _NAME_OK.sub("_", str(part)).strip("_")


def _is_histogram_summary(value):
    return (
        isinstance(value, dict)
        and "buckets" in value
        and "sum" in value
        and "count" in value
    )


def _is_quantile_summary(value):
    return isinstance(value, dict) and "p50" in value and "count" in value


class MetricsExporter:
    """Render a metrics snapshot source as Prometheus text exposition."""

    def __init__(self, source, prefix="eagr"):
        """``source``: a zero-arg callable returning the snapshot dict, or
        an object with a ``metrics(include_buckets=True)`` method (an
        ``EAGrServer``), or a plain snapshot dict."""
        self._source = source
        self.prefix = _clean(prefix)

    def _snapshot(self):
        src = self._source
        if isinstance(src, dict):
            return src
        metrics = getattr(src, "metrics", None)
        if callable(metrics) and not callable(src):
            return metrics(include_buckets=True)
        return src()

    def render(self):
        lines = []
        self._walk(self._snapshot(), [self.prefix], "", lines)
        return "\n".join(lines) + "\n"

    # -- walker -------------------------------------------------------
    def _walk(self, node, path, labels, lines):
        if _is_histogram_summary(node):
            self._render_histogram(node, path, labels, lines)
            return
        if _is_quantile_summary(node):
            name = "_".join(path)
            for q_key, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                q_label = 'quantile="%s"' % q
                lines.append(
                    f"{name}{_merge(labels, q_label)} {_fmt(node[q_key])}"
                )
            lines.append(f"{name}_sum{_brace(labels)} {_fmt(node.get('sum', 0.0))}")
            lines.append(f"{name}_count{_brace(labels)} {_fmt(node['count'])}")
            return
        if isinstance(node, dict):
            for key, value in node.items():
                # Shard ids become a label, not a path component — but only
                # the id keys themselves; metric dicts nested under a shard
                # (histogram summaries) keep their name in the path.
                if (
                    path[-1] in _SHARD_KEYED
                    and str(key).isdigit()
                    and not isinstance(value, (int, float, bool))
                ):
                    child_labels = _merge_raw(labels, f'shard="{_clean(key)}"')
                    self._walk(value, path, child_labels, lines)
                else:
                    self._walk(value, path + [_clean(key)], labels, lines)
            return
        if isinstance(node, bool):
            lines.append(f"{'_'.join(path)}{_brace(labels)} {1 if node else 0}")
            return
        if isinstance(node, (int, float)):
            lines.append(f"{'_'.join(path)}{_brace(labels)} {_fmt(node)}")
            return
        # strings, lists (slow-op events), None: structured-only leaves

    def _render_histogram(self, summary, path, labels, lines):
        name = "_".join(path)
        lines.append(f"# TYPE {name} histogram")
        bounds = bucket_bounds_us()
        cum = 0.0
        for count, bound_us in zip(summary["buckets"], bounds):
            cum += count
            le = "+Inf" if bound_us == float("inf") else _fmt(bound_us / 1e6)
            le_label = 'le="%s"' % le
            lines.append(f"{name}_bucket{_merge(labels, le_label)} {_fmt(cum)}")
        lines.append(f"{name}_sum{_brace(labels)} {_fmt(summary['sum'])}")
        lines.append(f"{name}_count{_brace(labels)} {_fmt(summary['count'])}")


def _fmt(v):
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _brace(labels):
    return f"{{{labels}}}" if labels else ""


def _merge_raw(labels, extra):
    return f"{labels},{extra}" if labels else extra


def _merge(labels, extra):
    return _brace(_merge_raw(labels, extra))


def serve_metrics_http(source, host="127.0.0.1", port=0, prefix="eagr"):
    """Serve ``GET /metrics`` from a daemon thread; returns the endpoint.

    The returned object has ``.port`` (useful with ``port=0``) and
    ``.shutdown()``.  Uses only the stdlib ``http.server``; nothing is
    imported until this is called, and nothing keeps the process alive.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    exporter = MetricsExporter(source, prefix=prefix)

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - stdlib API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_response(404)
                self.end_headers()
                return
            body = exporter.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # keep scrapes out of stderr
            pass

    httpd = ThreadingHTTPServer((host, port), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True, name="eagr-metrics-http")
    thread.start()

    class _Endpoint:
        def __init__(self):
            self.port = httpd.server_address[1]
            self.host = httpd.server_address[0]

        def shutdown(self):
            httpd.shutdown()
            httpd.server_close()

    return _Endpoint()
