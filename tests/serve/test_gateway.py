"""The TCP gateway end-to-end: real sockets, real clients, real resume.

Everything here goes through actual TCP connections to a
:class:`~repro.serve.gateway.GatewayServer` fronting an in-process
deployment — the wire protocol, request correlation, subscription
pumps, flow control and reconnect-with-resume are exercised exactly as
a remote client would drive them.  The 1000-subscription acceptance
test lives in ``test_gateway_load.py`` (separate process driver).
"""

import pickle
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import (
    EAGrClient,
    EAGrServer,
    GatewayClosed,
    GatewayServer,
    ResumeGapError,
    ServeError,
)
from repro.core.statestore import WriteFrame
from repro.serve.frames import (
    K_ERROR,
    K_PICKLE,
    K_READ,
    K_WRITE,
    LENGTH_PREFIX,
    WRITE_HEADER,
    decode_control,
    encode_control,
)

from tests.serve.faultlib import assert_contiguous, deadline, wait_until


def make_query(window=None):
    return EgoQuery(aggregate=Sum(), window=window or TupleWindow(1))


@pytest.fixture()
def deployment():
    graph = random_graph(30, 140, seed=81)
    server = EAGrServer(
        graph, make_query(), num_shards=2, executor="inprocess",
        overlay_algorithm="vnm_a",
    )
    gateway = GatewayServer(server)
    gateway.start()
    yield graph, server, gateway
    gateway.close()
    server.close()


def drain_stream(stream, count, timeout=10.0, idle=0.3):
    """Collect at least ``count`` notifications from a client stream."""
    out = []
    deadline_at = time.monotonic() + timeout
    while len(out) < count:
        note = stream.get(timeout=min(idle, deadline_at - time.monotonic()))
        if note is not None:
            out.append(note)
        elif time.monotonic() >= deadline_at:
            raise AssertionError(
                f"collected {len(out)}/{count} notifications in {timeout}s"
            )
    out.extend(stream.poll())
    return out


class TestRoundTrip:
    def test_write_read_parity_with_oracle(self, deployment):
        graph, server, gateway = deployment
        oracle = EAGrEngine(graph, make_query(), overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        host, port = gateway.address
        with EAGrClient(host, port, client_id="rt") as client:
            assert client.server_info["num_shards"] == server.num_shards
            for round_ in range(4):
                batch = [
                    (n, float(round_ + i % 3), float(round_))
                    for i, n in enumerate(nodes[:11])
                ]
                assert client.write_batch(batch) == len(batch)
                oracle.write_batch(batch)
            server.drain()
            assert client.read_batch(nodes) == oracle.read_batch(nodes)

    def test_non_packable_batch_rides_pickle_fallback(self, deployment):
        graph, server, gateway = deployment
        nodes = list(graph.nodes())
        host, port = gateway.address
        with EAGrClient(host, port, client_id="px") as client:
            # 2-tuples (server assigns timestamps) fail the WriteFrame
            # gate client-side and must still apply.
            assert client.write_batch([(nodes[0], 3.0), (nodes[1], 4.0)]) == 2
            server.drain()
            assert client.read_batch([nodes[0]]) == server.read_batch([nodes[0]])

    def test_read_your_writes_without_drain(self, deployment):
        """The ack comes before the fan-out; a read sent right after it
        must still see the write (it flushes the owner's outbox first)."""
        graph, server, gateway = deployment
        oracle = EAGrEngine(graph, make_query(), overlay_algorithm="vnm_a")
        nodes = list(graph.nodes())
        host, port = gateway.address
        with EAGrClient(host, port, client_id="ryw") as client:
            for round_ in range(6):
                written = nodes[round_ * 4 : round_ * 4 + 9]
                batch = [(n, float(round_ + 2), float(round_)) for n in written]
                assert client.write_batch(batch) == len(batch)
                oracle.write_batch(batch)
                assert client.read_batch(written) == oracle.read_batch(written)
            assert client.read_batch(nodes) == oracle.read_batch(nodes)

    def test_ack_precedes_the_fan_out(self, deployment):
        """A write is acknowledged once accepted: a subscriber whose
        delivery hook is held must not hold the writer's ack."""
        graph, server, gateway = deployment
        nodes = list(graph.nodes())
        held, release = threading.Event(), threading.Event()
        blocker = server.subscribe("blocker", nodes)

        def hook():
            held.set()
            release.wait(30.0)

        blocker.on_delivery = hook
        host, port = gateway.address
        try:
            with EAGrClient(host, port, client_id="ack") as client, \
                    ThreadPoolExecutor(max_workers=1) as pool:
                stream = client.subscribe(nodes)
                acks = pool.submit(
                    lambda: [
                        client.write_batch(
                            [(n, float(r + 1), float(r)) for n in nodes[:7]]
                        )
                        for r in range(3)
                    ]
                )
                assert acks.result(timeout=10.0) == [7, 7, 7]
                assert held.wait(10.0), "the fan-out never reached the hook"
                release.set()
                server.drain()
                notes = drain_stream(stream, server.last_stamp("ack"))
                assert_contiguous([n.stamp for n in notes], tag="ack stream:")
                assert_contiguous(
                    [n.stamp for n in blocker.poll()], tag="held subscriber:"
                )
        finally:
            release.set()

    def test_server_error_surfaces_in_caller(self, deployment):
        graph, server, gateway = deployment
        host, port = gateway.address
        with EAGrClient(host, port, client_id="err") as client:
            server.close()
            with pytest.raises(ServeError):
                client.write_batch([(0, 1.0, 1.0)])


class TestSubscriptions:
    def test_live_stream_contiguous_stamps(self, deployment):
        graph, server, gateway = deployment
        nodes = list(graph.nodes())
        host, port = gateway.address
        with EAGrClient(host, port, client_id="sub") as client:
            stream = client.subscribe(nodes)
            assert set(stream.snapshot) == set(nodes)
            total = 0
            for round_ in range(5):
                batch = [(n, float(round_ + 1), float(round_)) for n in nodes[:7]]
                client.write_batch(batch)
            server.drain()
            wait_until(
                lambda: server.notifications_delivered > 0,
                desc="notifications delivered",
            )
            expected = int(server.notifications_delivered)
            notes = drain_stream(stream, expected)
            assert_contiguous([n.stamp for n in notes], tag="live stream:")
            assert all(n.subscriber == "sub" for n in notes)
            # Writes that enter through the gateway carry their ingress
            # stamp to delivery: the write->notify trace sees them.
            assert server.server_stats()["write_notify_latency"]["count"] > 0

    def test_two_subscribers_one_connection(self, deployment):
        graph, server, gateway = deployment
        nodes = list(graph.nodes())
        host, port = gateway.address
        with EAGrClient(host, port, client_id="base") as client:
            a = client.subscribe(nodes[:5], subscriber="a")
            b = client.subscribe(nodes[:5], subscriber="b")
            client.write_batch([(n, 9.0, 1.0) for n in nodes])
            server.drain()
            notes_a = drain_stream(a, 1)
            notes_b = drain_stream(b, 1)
            assert {n.subscriber for n in notes_a} == {"a"}
            assert {n.subscriber for n in notes_b} == {"b"}
            assert_contiguous([n.stamp for n in notes_a], tag="sub a:")
            assert_contiguous([n.stamp for n in notes_b], tag="sub b:")

    def test_resume_gap_maps_to_real_exception(self, deployment):
        graph, server, gateway = deployment
        host, port = gateway.address
        with EAGrClient(host, port, client_id="gap") as client:
            client.subscribe(list(graph.nodes())[:3])
            with pytest.raises(ResumeGapError):
                client.subscribe(resume_from=10_000)

    def test_failed_resume_of_an_invented_id_registers_nothing(self, deployment):
        """Any TCP client can send K_SUBSCRIBE with a made-up subscriber
        id and a resume token: each must fail without leaving a
        subscriber (queue, journal) behind on the server."""
        graph, server, gateway = deployment
        host, port = gateway.address
        with EAGrClient(host, port, client_id="honest") as client:
            client.subscribe(list(graph.nodes())[:3])
            for invented in ("ghost-1", "ghost-2"):
                with pytest.raises(ResumeGapError):
                    client.subscribe(subscriber=invented, resume_from=5)
            assert server.metrics()["journal"]["subscribers"] == 1


class TestReconnect:
    def test_drop_resume_gap_free(self, deployment):
        """Kill the TCP connection mid-stream; a new client with the old
        stream's resume token continues with no gap and no duplicate."""
        graph, server, gateway = deployment
        nodes = list(graph.nodes())
        host, port = gateway.address
        with deadline(60, "gateway reconnect"):
            c1 = EAGrClient(host, port, client_id="w")
            s1 = c1.subscribe(nodes, auto_ack=False)
            for round_ in range(3):
                c1.write_batch(
                    [(n, float(round_ + 1), float(round_)) for n in nodes[:5]]
                )
            server.drain()
            pre = drain_stream(s1, 1)
            token = s1.resume_token
            assert token >= pre[-1].stamp
            c1.drop()  # unclean network cut, no goodbye
            wait_until(
                lambda: gateway.connections == 0, desc="gateway saw the cut"
            )
            # the world keeps moving while the client is gone
            with EAGrClient(host, port, client_id="other") as writer:
                for round_ in range(3, 6):
                    writer.write_batch(
                        [(n, float(round_ + 1), float(round_)) for n in nodes[:5]]
                    )
            server.drain()
            c2 = EAGrClient(host, port, client_id="w")
            s2 = c2.subscribe(resume_from=token, auto_ack=False)
            expected_total = int(server.notifications_delivered)
            post = drain_stream(s2, expected_total - token)
            # the resumed stream is exactly the suffix after the token:
            # original stamps, no gap, no duplicate
            assert [n.stamp for n in post] == list(
                range(token + 1, expected_total + 1)
            )
            # and the client's merged view covers everything once
            merged = sorted({n.stamp for n in pre} | set(range(1, token + 1))
                            | {n.stamp for n in post})
            assert_contiguous(merged, tag="reconnect:")
            assert max(merged) == expected_total
            # the severed stream fails loudly, never silently ends (notes
            # that arrived before the cut are still handed out first: the
            # ack precedes the fan-out, so some may postdate ``pre``)
            late = []
            with pytest.raises(GatewayClosed):
                while True:
                    note = s1.get(timeout=1.0)
                    if note is None:
                        break
                    late.append(note)
            # ... and what it handed out late is the rest of the same
            # stream: no stray, no duplicate, no gap after ``pre``
            stamps = [n.stamp for n in pre + late]
            assert_contiguous(stamps, tag="severed stream:")
            assert stamps[-1] <= expected_total
            c2.close()

    def test_gateway_restart_clients_resume(self, deployment):
        """Bouncing the *gateway* (not the server) preserves resume — the
        journals live in the server."""
        graph, server, gateway = deployment
        nodes = list(graph.nodes())
        host, port = gateway.address
        c1 = EAGrClient(host, port, client_id="w")
        s1 = c1.subscribe(nodes, auto_ack=False)
        c1.write_batch([(n, 2.0, 1.0) for n in nodes[:5]])
        server.drain()
        notes = drain_stream(s1, 1)
        token = s1.resume_token
        gateway.close()
        c1.close()
        server.write_batch([(n, 7.0, 2.0) for n in nodes[:5]])
        server.drain()
        gw2 = GatewayServer(server)
        gw2.start()
        try:
            h2, p2 = gw2.address
            with EAGrClient(h2, p2, client_id="w") as c2:
                s2 = c2.subscribe(resume_from=token, auto_ack=False)
                expected_total = int(server.notifications_delivered)
                post = drain_stream(s2, expected_total - token)
                merged = sorted(set(range(1, token + 1)) | {n.stamp for n in post})
                assert_contiguous(merged, tag="gateway restart:")
        finally:
            gw2.close()


class TestFlowControl:
    def test_slow_consumer_pauses_and_stays_bounded(self):
        """A consumer that never acks pauses its connection at the
        in-flight budget: the backlog accumulates in the *server's
        journal*, the gateway's per-connection memory stays bounded, and
        manual acks later drain the whole stream gap-free."""
        graph = random_graph(30, 140, seed=82)
        server = EAGrServer(
            graph, make_query(), num_shards=2, executor="inprocess",
            overlay_algorithm="vnm_a", journal_capacity=100_000,
        )
        budget = 2000
        gateway = GatewayServer(server, max_inflight_bytes=budget)
        gateway.start()
        try:
            host, port = gateway.address
            nodes = list(graph.nodes())
            with deadline(90, "slow consumer"):
                client = EAGrClient(host, port, client_id="slow")
                stream = client.subscribe(nodes, auto_ack=False)
                for round_ in range(30):
                    client.write_batch(
                        [(n, float(round_), float(round_ + 10)) for n in nodes]
                    )
                server.drain()
                wait_until(
                    lambda: server.metrics()["server"]["gw_stream_pauses"] >= 1,
                    desc="stream paused at the budget",
                )
                # bounded: un-acked wire bytes never exceed budget + one frame
                for conn in list(gateway._connections):
                    assert conn.inflight <= budget + 65536
                # the backlog is journal-side, not gateway-side
                backlog = server.resume_horizon("slow")
                assert server.last_stamp("slow") > 0
                # drain with manual acks: pause/resume cycles must splice
                # gap-free
                seen = []
                idle = 0
                while idle < 8:
                    notes = stream.poll()
                    if notes:
                        idle = 0
                        seen.extend(notes)
                        stream.ack()
                    else:
                        idle += 1
                        time.sleep(0.1)
                        if seen:
                            stream.ack()
                assert_contiguous([n.stamp for n in seen], tag="slow consumer:")
                metrics = server.metrics()["server"]
                assert metrics["gw_stream_pauses"] >= 1
                assert metrics["gw_stream_resumes"] >= 1
                assert len(seen) == int(server.notifications_delivered)
                client.close()
        finally:
            gateway.close()
            server.close()


    def test_a_watch_extension_while_paused_loses_nothing(self):
        """A plain subscribe that extends a paused stream's watch set
        leaves it paused: the resume from the last stamp sent still
        reads the remainder the pause dropped."""
        graph = random_graph(30, 140, seed=82)
        server = EAGrServer(
            graph, make_query(), num_shards=2, executor="inprocess",
            overlay_algorithm="vnm_a", journal_capacity=100_000,
        )
        gateway = GatewayServer(server, max_inflight_bytes=2000)
        gateway.start()
        try:
            host, port = gateway.address
            nodes = list(graph.nodes())
            with deadline(90, "watch extension while paused"):
                client = EAGrClient(host, port, client_id="slow")
                stream = client.subscribe(nodes[:-3], auto_ack=False)
                # hold the loop so the pump meets every report in one
                # round: the pause then drops a drained remainder
                gateway._loop.call_soon_threadsafe(time.sleep, 0.5)
                for round_ in range(10):
                    server.write_batch([(n, float(round_), 1.0) for n in nodes])
                server.drain()
                wait_until(
                    lambda: server.metrics()["server"]["gw_stream_pauses"] >= 1,
                    desc="stream paused at the budget",
                )
                client.subscribe(nodes[-3:], auto_ack=False)
                client.write_batch([(n, 50.0, 1.0) for n in nodes])
                server.drain()
                seen = []
                idle = 0
                while idle < 8:
                    notes = stream.poll()
                    if notes:
                        idle = 0
                        seen.extend(notes)
                        stream.ack()
                    else:
                        idle += 1
                        time.sleep(0.1)
                        if seen:
                            stream.ack()
                assert_contiguous([n.stamp for n in seen], tag="extended:")
                assert len(seen) == server.last_stamp("slow")
                assert {n.ego for n in seen} >= set(nodes[-3:])
                client.close()
        finally:
            gateway.close()
            server.close()

    def test_a_live_stream_a_whole_journal_behind_gets_a_gap_frame(self):
        """The stream's cursor is the journal's: a report larger than the
        journal overtakes it before the pump reads, and the client is
        told with a ResumeGapError frame — the connection stays up."""
        graph = random_graph(30, 140, seed=82)
        server = EAGrServer(
            graph, make_query(), num_shards=1, executor="inprocess",
            overlay_algorithm="vnm_a", journal_capacity=4,
        )
        gateway = GatewayServer(server)
        gateway.start()
        try:
            host, port = gateway.address
            nodes = list(graph.nodes())
            with deadline(60, "gap frame"), EAGrClient(
                host, port, client_id="lagging"
            ) as client:
                stream = client.subscribe(nodes)
                client.write_batch([(n, 5.0, 1.0) for n in nodes])
                server.drain()
                assert server.last_stamp("lagging") > 4
                with pytest.raises(ResumeGapError):
                    while stream.get(timeout=10.0) is not None:
                        pass
                assert server.metrics()["server"]["gw_resume_gaps"] == 1
                assert client.read_batch(nodes[:1]) == server.read_batch(nodes[:1])
        finally:
            gateway.close()
            server.close()


def exchange_raw(address, payload):
    """Send one raw frame; return every reply payload until the gateway
    hangs up (a socket timeout means it did not)."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(LENGTH_PREFIX.pack(len(payload)) + payload)
        data = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    replies = []
    while data:
        (length,) = LENGTH_PREFIX.unpack_from(data)
        replies.append(data[LENGTH_PREFIX.size : LENGTH_PREFIX.size + length])
        data = data[LENGTH_PREFIX.size + length :]
    return replies


def write_payload(count, rows):
    """A K_WRITE payload whose header claims ``count`` rows over ``rows``."""
    frame = WriteFrame.from_items([(n, 1.0, 1.0) for n in range(rows)])
    return WRITE_HEADER.pack(K_WRITE, 1, -1, count, 0.0) + frame.records.tobytes()


MALFORMED = {
    "write-shorter-than-header": bytes([K_WRITE]) + b"\x00" * 8,
    "write-count-exceeds-rows": write_payload(5, 2),
    "write-count-short-of-rows": write_payload(1, 2),
    "write-count-minus-one": write_payload(-1, 2),
    "control-wrong-arity": encode_control(K_READ, (1,)),
    "pickle-unpicklable": bytes([K_PICKLE]) + b"not a pickle",
    "pickle-wrong-arity": bytes([K_PICKLE]) + pickle.dumps((1, 2)),
}


class TestProtocol:
    def test_unknown_frame_kind_is_reported(self, deployment):
        graph, server, gateway = deployment
        host, port = gateway.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            payload = bytes([250]) + b"garbage"
            sock.sendall(LENGTH_PREFIX.pack(len(payload)) + payload)
            header = sock.recv(4)
            (length,) = LENGTH_PREFIX.unpack(header)
            reply = b""
            while len(reply) < length:
                reply += sock.recv(length - len(reply))
            from repro.serve.frames import K_ERROR, decode_control
            assert reply[0] == K_ERROR
            rid, kind, message, subscriber = decode_control(reply)
            assert kind == "GatewayError"
            assert "unknown frame kind" in message
        wait_until(
            lambda: server.metrics()["server"]["gw_protocol_errors"] >= 1,
            desc="protocol error counted",
        )

    def test_oversized_frame_rejected_and_connection_dropped(self, deployment):
        graph, server, gateway = deployment
        host, port = gateway.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(LENGTH_PREFIX.pack(gateway._max_frame + 1))
            # gateway answers with an error frame, then hangs up
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
            assert data  # the error frame arrived before the close

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_frame_is_a_protocol_error(self, deployment, case):
        """A frame that does not decode is answered, counted and hung up
        on, like an oversized one — never a silently dropped connection."""
        graph, server, gateway = deployment
        replies = exchange_raw(gateway.address, MALFORMED[case])
        assert [reply[0] for reply in replies] == [K_ERROR]
        rid, kind, message, subscriber = decode_control(replies[0])
        assert kind == "GatewayError" and "malformed" in message
        wait_until(
            lambda: server.metrics()["server"]["gw_protocol_errors"] == 1,
            desc="protocol error counted",
        )
        assert server.writes_sent == 0

    def test_metrics_ride_the_existing_exposition(self, deployment):
        graph, server, gateway = deployment
        host, port = gateway.address
        with EAGrClient(host, port, client_id="m") as client:
            client.write_batch([(list(graph.nodes())[0], 1.0, 1.0)])
        wait_until(
            lambda: gateway.connections == 0, desc="connection torn down"
        )
        snap = server.metrics()["server"]
        assert snap["gw_connections_opened"] >= 1
        assert snap["gw_connections_active"] == 0
        assert snap["gw_frames_in"] >= 2
        assert snap["gw_frames_out"] >= 2
        assert snap["gw_bytes_in"] > 0 and snap["gw_bytes_out"] > 0

