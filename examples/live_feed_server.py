"""Live feed serving: a sharded, crash-consistent EAGrServer.

The scenario: every user's feed header shows the SUM of their friends'
recent activity scores, continuously.  This example stands up an
:class:`~repro.serve.server.EAGrServer` — reader space partitioned over
shard processes, each hosting its own compiled engine, every accepted
batch persisted to a write-ahead log (``wal_dir=``) — subscribes a
handful of egos, streams a Zipf-skewed write workload in batches, and
prints the notifications as the shards push them.  A
:class:`~repro.serve.replica.ReplicaServer` then attaches to the same
WAL and serves staleness-bounded reads a bounded lag behind the primary.

Run:  python examples/live_feed_server.py            (2 shard processes)
      python examples/live_feed_server.py --stats-interval 0.5
          (same, plus a one-line dashboard printed every 0.5 s while
          streaming: events/s, notifications delivered, p99 write→notify
          latency and p99 WAL fsync — all read from ``server.metrics()``.)
      python examples/live_feed_server.py --smoke    (in-process shards,
          small workload, asserts round-trips and clean shutdown — the
          configuration the CI smoke job boots.  Also performs a real
          kill -9: a sacrificial child process ingests against a WAL and
          is SIGKILLed mid-stream; the cold restart must recover every
          acknowledged batch and resume the subscription gap-free.
          Finishes with a TCP round trip through a GatewayServer.)
      python examples/live_feed_server.py --listen 127.0.0.1:7432
          (stand up the deployment behind a network gateway and serve
          until Ctrl-C; any machine that can reach the port talks to it
          with ``repro.serve.EAGrClient`` — write_batch / read_batch /
          subscribe with resume tokens.  Port 0 picks a free port.)
"""

import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro import EAGrEngine, EgoQuery, Neighborhood, Sum, TupleWindow
from repro.graph.generators import social_graph
from repro.serve import EAGrClient, EAGrServer, GatewayServer, ReplicaServer
from repro.workload import WorkloadSpec, generate_events

BATCH_SIZE = 128
ENGINE_OPTS = dict(overlay_algorithm="vnm_a", dataflow="mincut")


def build_workload(nodes, num_events, seed=5):
    events = generate_events(
        nodes,
        WorkloadSpec(
            num_events=num_events, write_read_ratio=10_000.0, seed=seed
        ),
    )
    return [
        (event.node, event.value, event.timestamp)
        for event in events
        if hasattr(event, "value")
    ]


def dashboard_line(server, events_done, elapsed):
    """One line of ops truth, assembled purely from ``server.metrics()``.

    Everything here comes from the front-end registry and each shard's
    ``OP_STATS`` scrape.
    """
    m = server.metrics()
    eps = events_done / elapsed if elapsed > 0 else 0.0
    notes = int(m["server"]["notifications_delivered"])
    lat = m["server"].get("srv_write_notify_seconds", {})
    fsync = m["server"].get("wal_fsync_seconds", {})
    return (
        f"[stats] {eps:>9.0f} ev/s | {notes:>7} notes | "
        f"write→notify p99 {lat.get('p99', 0.0) * 1e3:7.2f} ms "
        f"({int(lat.get('count', 0))} samples) | "
        f"wal fsync p99 {fsync.get('p99', 0.0) * 1e3:6.2f} ms"
    )


# ---------------------------------------------------------------------------
# the kill -9 round trip (smoke mode)
# ---------------------------------------------------------------------------

def wal_env():
    """The deployment the sacrificial child and the cold restart share."""
    graph = social_graph(num_nodes=60, edges_per_node=5, seed=9)
    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(),
    )
    return graph, query


def wal_workload(nodes, seed=17, batches=12):
    """Deterministic timestamped batches — regenerated identically by
    the restart's oracle, so no state needs to survive except the WAL."""
    rng = random.Random(seed)
    out, t = [], 0.0
    for _ in range(batches):
        batch = []
        for _ in range(6):
            t += 1.0
            batch.append((rng.choice(nodes), float(rng.randint(1, 50)), t))
        out.append(batch)
    return out


def sacrifice(wal_dir):
    """Child-process mode: ingest against the WAL, then die by SIGKILL —
    no close(), no final flush, workers and outboxes full of in-flight
    state.  Everything acknowledged must survive in ``wal_dir``."""
    graph, query = wal_env()
    nodes = sorted(graph.nodes(), key=repr)
    server = EAGrServer(
        graph, query, num_shards=2, executor="inprocess",
        wal_dir=wal_dir, checkpoint_interval=5, **ENGINE_OPTS,
    )
    server.subscribe("feed-widget", nodes[:8])
    for batch in wal_workload(nodes):
        server.write_batch(batch)
    os.kill(0, signal.SIGKILL)


def kill9_round_trip():
    wal_dir = tempfile.mkdtemp(prefix="eagr-wal-")
    try:
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sacrifice", wal_dir],
            start_new_session=True,
        )
        returncode = child.wait(timeout=60)
        assert returncode == -signal.SIGKILL, returncode

        graph, query = wal_env()
        nodes = sorted(graph.nodes(), key=repr)
        with EAGrServer(
            graph, query, num_shards=2, executor="inprocess",
            wal_dir=wal_dir, checkpoint_interval=5, **ENGINE_OPTS,
        ) as revived:
            revived.drain()
            oracle = EAGrEngine(graph, query, **ENGINE_OPTS)
            for batch in wal_workload(nodes):
                oracle.write_batch(batch)
            assert revived.read_batch(nodes) == oracle.read_batch(nodes), (
                "cold restart lost acknowledged batches"
            )
            # The dead epoch's subscription resumes gap-free, and fresh
            # live traffic splices in with contiguous stamps.
            resumed = revived.subscribe("feed-widget", resume_from=0)
            stamps = [note.stamp for note in resumed.poll()]
            assert stamps == list(range(1, len(stamps) + 1)), stamps
            revived.write_batch([(nodes[0], 123.0, 10_000.0)])
            revived.drain()
            stamps += [note.stamp for note in resumed.poll()]
            assert stamps == list(range(1, len(stamps) + 1)), stamps
            recovered = revived.recovered_batches
        print(
            f"kill -9 round-trip OK: child SIGKILLed mid-ingest, cold "
            f"restart recovered {recovered} batches, reads oracle-equal, "
            f"resume stream gap-free ({len(stamps)} stamps)"
        )
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# network gateway mode
# ---------------------------------------------------------------------------

def listen(spec: str) -> None:
    """Stand up the feed deployment behind a TCP gateway and serve until
    interrupted.  ``spec`` is ``host:port`` (port 0 picks a free one)."""
    host, _, port = spec.rpartition(":")
    graph = social_graph(num_nodes=400, edges_per_node=6, seed=3)
    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(),
    )
    with EAGrServer(
        graph, query, num_shards=2, executor="process", **ENGINE_OPTS
    ) as server:
        gateway = GatewayServer(server, host or "127.0.0.1", int(port or 0))
        bound_host, bound_port = gateway.start()
        print(server.describe())
        print(f"gateway listening on {bound_host}:{bound_port}")
        print(
            "connect with:\n"
            "  from repro.serve import EAGrClient\n"
            f"  client = EAGrClient({bound_host!r}, {bound_port}, "
            "client_id='me')\n"
            "  client.write_batch([(node, value, timestamp), ...])\n"
            "  stream = client.subscribe([ego, ...])  # .get() / .poll()\n"
            "Ctrl-C to stop."
        )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            gateway.close()


# ---------------------------------------------------------------------------
# the main demo
# ---------------------------------------------------------------------------

def main(argv) -> None:
    if "--sacrifice" in argv:
        sacrifice(argv[argv.index("--sacrifice") + 1])
        return  # unreachable: sacrifice() ends in SIGKILL
    if "--listen" in argv:
        listen(argv[argv.index("--listen") + 1])
        return

    smoke = "--smoke" in argv
    stats_interval = 0.0
    if "--stats-interval" in argv:
        stats_interval = float(argv[argv.index("--stats-interval") + 1])
    executor = "inprocess" if smoke else "process"
    num_nodes = 120 if smoke else 400
    num_events = 2_000 if smoke else 20_000

    graph = social_graph(num_nodes=num_nodes, edges_per_node=6, seed=3)
    query = EgoQuery(
        aggregate=Sum(),
        window=TupleWindow(2),
        neighborhood=Neighborhood.in_neighbors(),
    )
    nodes = sorted(graph.nodes(), key=repr)
    writes = build_workload(nodes, num_events)

    wal_dir = tempfile.mkdtemp(prefix="eagr-feed-wal-")
    try:
        with EAGrServer(
            graph,
            query,
            num_shards=2,
            executor=executor,
            wal_dir=wal_dir,
            **ENGINE_OPTS,
        ) as server:
            print(server.describe())

            watched = nodes[:5]
            feed = server.subscribe("feed-widget", watched)
            print(f"subscribed {len(watched)} egos; baseline: {feed.snapshot}")

            stream_t0 = time.monotonic()
            next_stats = stream_t0 + stats_interval
            for start in range(0, len(writes), BATCH_SIZE):
                server.write_batch(writes[start : start + BATCH_SIZE])
                now = time.monotonic()
                if stats_interval and now >= next_stats:
                    print(dashboard_line(
                        server, start + BATCH_SIZE, now - stream_t0
                    ))
                    next_stats = now + stats_interval
            server.drain()
            if stats_interval:
                print(dashboard_line(
                    server, len(writes), time.monotonic() - stream_t0
                ))

            notes = feed.poll()
            print(f"\n{len(notes)} notifications pushed while streaming "
                  f"{len(writes)} writes:")
            for note in notes[:12]:
                print(
                    f"  #{note.stamp:<4} ego={note.ego!r:<12} -> "
                    f"{note.value:<8g} (shard {note.shard}, "
                    f"batch {note.batch})"
                )
            if len(notes) > 12:
                print(f"  ... and {len(notes) - 12} more")

            stats = server.stats()
            for s in stats:
                print(
                    f"shard {s['shard']}: {s['readers']} readers, "
                    f"{s['writes']} writes in {s['batches']} batches, "
                    f"{s['notices_emitted']} notices, "
                    f"backend={s['value_store_backend']}"
                )
            front = server.server_stats()
            print(f"WAL: {front['wal_bytes']} bytes across the accepted "
                  f"stream (every acknowledged batch is on disk)")

            # A warm replica tails the same WAL: staleness-bounded reads
            # without touching the primary's shards.
            with ReplicaServer(
                graph, query, wal_dir, **ENGINE_OPTS
            ) as replica:
                replica_reads = replica.read_batch(nodes, max_lag_bytes=0)
                print(f"replica caught up: watermark={replica.watermark()}, "
                      f"lag={replica.lag_bytes()}B")
                if smoke:
                    assert replica_reads == server.read_batch(nodes), (
                        "replica reads diverged from the primary"
                    )

            if smoke:
                # The metrics plane must report a real end-to-end
                # write→notify distribution: every percentile field
                # present and finite, with at least one sample behind it.
                lat = front["write_notify_latency"]
                for field in ("count", "sum", "p50", "p95", "p99"):
                    assert field in lat, f"latency summary missing {field}"
                    assert math.isfinite(lat[field]), (field, lat[field])
                assert lat["count"] > 0, "no write→notify samples recorded"
                assert 0.0 < lat["p99"] < 3600.0, lat
                print(dashboard_line(server, len(writes), 1.0))
                # CI assertions: round-trips agree with a single engine
                # and the subscription stream is exactly the changed
                # watched egos.
                single = EAGrEngine(graph, query, overlay_algorithm="vnm_a")
                single.write_batch(writes)
                assert server.read_batch(nodes) == single.read_batch(nodes), (
                    "sharded reads diverged from the single-engine oracle"
                )
                stamps = [note.stamp for note in notes]
                assert stamps == sorted(stamps)
                assert len(set(stamps)) == len(stamps)
                final = dict(zip(nodes, single.read_batch(nodes)))
                for note in notes:
                    assert note.ego in set(watched)
                changed_watched = {
                    n for n in watched if final[n] != feed.snapshot[n]
                }
                assert {note.ego for note in notes} >= changed_watched
                # Durable resume: drop the connection mid-stream,
                # reconnect with a resume token, and the journal replays
                # the missed suffix with the original stamps.
                last_seen = notes[len(notes) // 2].stamp if notes else 0
                server.disconnect("feed-widget")
                server.write_batch([(nodes[10], 999.0, None)])
                server.drain()
                resumed = server.subscribe("feed-widget", resume_from=last_seen)
                got = [n.stamp for n in resumed.poll()]
                assert got == list(
                    range(last_seen + 1, last_seen + 1 + len(got))
                ), "resume replay is not the contiguous missed suffix"
                print(f"resumed from stamp {last_seen}: {len(got)} "
                      "notifications replayed, stream gap-free")
                # The TCP edge: the same deployment behind a gateway,
                # driven by a real client over localhost.
                gateway = GatewayServer(server)
                gw_host, gw_port = gateway.start()
                try:
                    with EAGrClient(
                        gw_host, gw_port, client_id="smoke-client"
                    ) as client:
                        assert client.read_batch(nodes[:6]) == (
                            server.read_batch(nodes[:6])
                        ), "gateway reads diverged from in-process reads"
                        stream = client.subscribe(nodes)
                        client.write_batch([(nodes[1], 777.0, 20_000.0)])
                        server.drain()
                        note = stream.get(timeout=15.0)
                        assert note is not None, (
                            "no notification arrived over TCP"
                        )
                        assert note.subscriber == "smoke-client"
                    print(f"gateway round-trip OK: TCP client on port "
                          f"{gw_port} read, wrote and streamed "
                          f"(first stamp {note.stamp})")
                finally:
                    gateway.close()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)

    if smoke:
        kill9_round_trip()
        print("\nsmoke OK: reads byte-identical, notifications exact, "
              "replica consistent, crash recovery exact, clean shutdown")
    else:
        print("\nserver closed cleanly")


if __name__ == "__main__":
    main(sys.argv[1:])
