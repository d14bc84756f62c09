"""The metrics plane end-to-end: registry wiring, shard scrapes, the
write→notify latency pipeline, replay hygiene, and the exposition paths.

The latency tests pin the plane's one subtle invariant: an ingress
timestamp taken in ``write_batch`` must ride the frame through routing,
outbox coalescing, the transport, the shard's change report and the
journal — and must be **zeroed** on every replay path (WAL recovery,
shard restart redo, journal resume), because a replayed notification
measured against a dead epoch's clock is a bogus sample.
"""

import math
import urllib.error
import urllib.request

import pytest

from repro.core.aggregates import Sum
from repro.core.query import EgoQuery
from repro.graph.generators import random_graph
from repro.serve import EAGrServer


def make_server(graph, query, num_shards=2, **kwargs):
    kwargs.setdefault("executor", "inprocess")
    kwargs.setdefault("overlay_algorithm", "vnm_a")
    return EAGrServer(graph, query, num_shards=num_shards, **kwargs)


def drive(server, nodes, rounds=4, width=25):
    for r in range(rounds):
        server.write_batch([(n, 1.0 + r, None) for n in nodes[:width]])
    server.drain()


@pytest.fixture
def graph():
    return random_graph(40, 180, seed=91)


@pytest.fixture
def query():
    return EgoQuery(aggregate=Sum())


LATENCY_FIELDS = ("count", "sum", "p50", "p95", "p99")


class TestLatencyPipeline:
    def test_inprocess_latency_sampled(self, graph, query):
        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            lat = server.server_stats()["write_notify_latency"]
            assert lat["count"] > 0
            for field in LATENCY_FIELDS:
                assert math.isfinite(lat[field])
            assert 0.0 < lat["p50"] <= lat["p95"] <= lat["p99"] < 3600.0

    def test_process_latency_and_stats_scrape(self, graph, query):
        """The acceptance path: real worker processes, binary frames on
        the request pipe, latency measured end-to-end and every shard's
        metrics scraped with one ``OP_STATS`` round trip each."""
        with make_server(graph, query, executor="process") as server:
            assert server.transport == "queue"
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes, rounds=6)

            lat = server.server_stats()["write_notify_latency"]
            assert lat["count"] > 0
            assert 0.0 < lat["p99"] < 3600.0

            m = server.metrics()
            assert set(m["shards"]) == {"0", "1"}
            assert "rings" not in m
            for sid, shard in m["shards"].items():
                assert shard["shard_batches_applied"] > 0, sid
                assert shard["shard_writes_applied"] > 0, sid
                assert shard["shard_apply_seconds"]["count"] > 0, sid
            load = server.server_stats()["shard_load"]
            assert all(row["ring_depth"] == 0 for row in load)

    def test_timestamped_writes_carry_ingress(self, graph, query):
        """Explicit-timestamp batches take the door-pack fast path into a
        binary WriteFrame; the stamp must ride that path too."""
        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            t = 0.0
            for r in range(4):
                batch = []
                for n in nodes[:25]:
                    t += 1.0
                    batch.append((n, 1.0 + r, t))
                server.write_batch(batch)
            server.drain()
            lat = server.server_stats()["write_notify_latency"]
            assert lat["count"] > 0
            assert lat["p99"] < 3600.0


class TestReplayHygiene:
    def test_wal_recovery_replays_without_latency_samples(
        self, graph, query, tmp_path
    ):
        wal_dir = str(tmp_path / "wal")
        with make_server(graph, query, wal_dir=wal_dir) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            live = server.server_stats()["write_notify_latency"]
            assert live["count"] > 0

        with make_server(graph, query, wal_dir=wal_dir) as revived:
            revived.subscribe("watcher", resume_from=0)
            revived.drain()
            assert revived.recovered_batches > 0
            lat = revived.server_stats()["write_notify_latency"]
            assert lat["count"] == 0, (
                "WAL replay produced write→notify samples from a dead "
                f"epoch's clock: {lat}"
            )
            # Fresh traffic after recovery samples normally again.
            drive(revived, nodes, rounds=2)
            lat = revived.server_stats()["write_notify_latency"]
            assert lat["count"] > 0
            assert 0.0 < lat["p99"] < 3600.0
            assert lat["sum"] >= 0.0

    def test_journal_resume_replays_without_latency_samples(
        self, graph, query
    ):
        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            sub = server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            notes = sub.poll()
            assert notes
            baseline = server.server_stats()["write_notify_latency"]["count"]

            server.disconnect("watcher")
            resumed = server.subscribe("watcher", resume_from=0)
            replayed = resumed.poll()
            assert [n.stamp for n in replayed] == [n.stamp for n in notes]
            after = server.server_stats()["write_notify_latency"]["count"]
            assert after == baseline, "journal replay re-observed latency"

    def test_restart_redo_replays_without_latency_samples(self, graph, query):
        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            baseline = server.server_stats()["write_notify_latency"]["count"]
            server.restart_shard(0)
            server.drain()
            after = server.server_stats()["write_notify_latency"]
            assert after["count"] == baseline
            assert after["sum"] >= 0.0


class TestMetricsSnapshot:
    def test_snapshot_shape(self, graph, query, tmp_path):
        with make_server(
            graph, query, wal_dir=str(tmp_path / "wal")
        ) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            m = server.metrics()
            assert m["enabled"] is True
            server_m = m["server"]
            assert server_m["srv_write_batches"] > 0
            assert server_m["srv_route_seconds"]["count"] > 0
            assert server_m["wal_append_seconds"]["count"] > 0
            assert m["wal"]["enabled"] and m["wal"]["total_bytes"] > 0
            assert m["wal"]["appends"] > 0 and m["wal"]["fsyncs"] > 0
            assert m["journal"]["subscribers"] == 1
            assert m["journal"]["notes"] > 0
            assert isinstance(m["slow_ops"], list)
            # include_buckets threads down to every histogram summary.
            rich = server.metrics(include_buckets=True)
            buckets = rich["server"]["srv_write_notify_seconds"]["buckets"]
            assert len(buckets) == 48

    def test_metrics_off_parity(self, graph, query):
        """metrics=False must not change results, and every stats field
        tests or dashboards key on must still be present (zeroed)."""
        nodes = list(graph.nodes())
        with make_server(graph, query) as on, make_server(
            graph, query, metrics=False
        ) as off:
            assert on.metrics_enabled and not off.metrics_enabled
            on.subscribe("watcher", nodes[:6])
            off.subscribe("watcher", nodes[:6])
            drive(on, nodes)
            drive(off, nodes)
            assert on.read_batch(nodes) == off.read_batch(nodes)

            stats = off.server_stats()
            assert stats["metrics_enabled"] is False
            lat = stats["write_notify_latency"]
            for field in LATENCY_FIELDS:
                assert lat[field] == 0.0
            m = off.metrics()
            assert m["enabled"] is False
            assert m["shards"] == {}

    def test_env_var_gates_metrics(self, graph, query, monkeypatch):
        monkeypatch.setenv("EAGR_METRICS", "0")
        with make_server(graph, query) as server:
            assert not server.metrics_enabled
        monkeypatch.setenv("EAGR_METRICS", "1")
        with make_server(graph, query) as server:
            assert server.metrics_enabled
        # Explicit argument beats the environment.
        with make_server(graph, query, metrics=False) as server:
            assert not server.metrics_enabled

    def test_server_stats_compat_keys(self, graph, query):
        """server_stats() is now a view over metrics(); the pre-existing
        consumer contract must hold key for key."""
        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            drive(server, nodes, rounds=1)
            stats = server.server_stats()
            for key in (
                "num_shards", "executor", "transport", "assignment",
                "replication_factor", "shard_sizes", "writes_sent",
                "writes_delivered", "notifications_delivered",
                "coalesced_flushes", "restarts", "replayed_batches",
                "wal", "wal_bytes", "recovered_batches",
                "shard_io", "codec_mix", "metrics_enabled",
                "write_notify_latency",
            ):
                assert key in stats, key
            assert isinstance(stats["shard_io"], list)
            assert len(stats["shard_io"]) == 2


class TestExposition:
    def test_prometheus_render(self, graph, query):
        from repro.obs import MetricsExporter

        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            text = MetricsExporter(server).render()
            assert "# TYPE eagr_server_srv_write_notify_seconds histogram" in text
            assert 'eagr_shards_shard_apply_seconds_count{shard="0"}' in text
            assert 'le="+Inf"' in text
            # Exposition never carries structured-only leaves.
            assert "slow_ops" not in text

    def test_http_endpoint(self, graph, query):
        with make_server(graph, query) as server:
            nodes = list(graph.nodes())
            server.subscribe("watcher", nodes[:6])
            drive(server, nodes)
            endpoint = server.metrics_http()
            try:
                url = f"http://127.0.0.1:{endpoint.port}/metrics"
                body = urllib.request.urlopen(url).read().decode()
                assert "eagr_server_writes_sent" in body
                missing = urllib.request.urlopen(
                    f"http://127.0.0.1:{endpoint.port}/nope"
                )
            except urllib.error.HTTPError as err:
                assert err.code == 404
            else:
                pytest.fail(f"expected 404, got {missing.status}")
            finally:
                endpoint.shutdown()
