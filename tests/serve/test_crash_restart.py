"""Crash/restart under real ``multiprocessing`` spawn workers.

Each seeded schedule kills a real shard worker process at a deterministic
point mid-batch — either on *receiving* a write batch (lost unapplied) or
after *applying* it but before the acknowledgement leaves (the worst
window) — restarts it from its ``ShardSpec`` + checkpoint, replays the
redo log, and asserts the delivery contract end to end: a subscriber that
reconnects with ``resume_from=N`` receives exactly the notifications with
stamps ``> N``, in order, with no gaps and no duplicates, and the
recovered shard's reads are byte-equal to a single-process oracle that
never crashed.

Twenty seeded schedules run over the process transport, so the kill
points of the one worker loop are reached through its worker half.  One
2-shard process server is shared across the seeds (worker boots are the
dominant cost); every seed
gets a fresh subscriber, so stamp streams are independent, and shard 0
is re-checkpointed at the start of each schedule so redo logs stay
short.  Shard 1 is never killed — its uninterrupted service is asserted
implicitly through the oracle equality.

All waits are condition-based (``faultlib``): after ``drain()`` returns,
every notice from earlier batches is already in the subscriber queues
(the reply stream is FIFO per shard and the drain reply trails them), so
``poll()`` is deterministic, not racy.
"""

import random

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import random_graph
from repro.serve import EAGrServer

from tests.serve.faultlib import (
    arm_kill_point,
    assert_contiguous,
    assert_spliced_stream,
    assert_subsequence,
    disarm,
    kill_shard,
    transitions_by_ego,
    wait_dead,
)

NUM_SEEDS = 20


@pytest.fixture(scope="module", params=["queue"])
def crashpad(request):
    """One process-mode deployment on the transport + the accumulated
    accepted-batch log."""
    graph = random_graph(14, 52, seed=41)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    server = EAGrServer(
        graph,
        query,
        num_shards=2,
        executor="process",
        transport=request.param,
        overlay_algorithm="identity",
        dataflow="all_push",
        reply_timeout=30.0,
    )
    env = {
        "graph": graph,
        "query": query,
        "server": server,
        "nodes": list(graph.nodes()),
        "batches": [],  # every accepted batch, in acceptance order
    }
    yield env
    server.close()


def write_random_batch(env, rng):
    """Write one random batch; returns True when it reached shard 0
    (deterministic kill points count only batches the doomed worker
    actually receives)."""
    server = env["server"]
    nodes = env["nodes"]
    batch = [
        (rng.choice(nodes), float(rng.randint(1, 9)))
        for _ in range(rng.randint(2, 6))
    ]
    server.write_batch(batch)
    env["batches"].append(batch)
    return any(
        0 in server.writer_shards.get(node, ()) for node, _ in batch
    )


def fresh_oracle(env):
    return EAGrEngine(
        env["graph"], env["query"],
        overlay_algorithm="identity", dataflow="all_push",
    )


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_seeded_crash_restart_resume(seed, crashpad):
    env = crashpad
    server = env["server"]
    nodes = env["nodes"]
    rng = random.Random(1000 + seed)
    name = f"watcher-{seed}"
    tag = f"seed {seed} ({server.transport}):"

    # Short redo log + fresh restart baseline for this schedule.
    server.checkpoint()
    sub = server.subscribe(name, nodes)
    sub_batch = len(env["batches"])

    # -- pre-crash traffic --------------------------------------------------
    for _ in range(rng.randint(1, 3)):
        write_random_batch(env, rng)
    server.drain()
    seen = sub.poll()

    # -- deterministic mid-batch kill --------------------------------------
    kill_after = rng.random() < 0.5
    nth = rng.randint(1, 3)
    if kill_after:
        arm_kill_point(server, 0, after=nth, rng_tag=tag)
    else:
        arm_kill_point(server, 0, before=nth, rng_tag=tag)
    fatal_sent = 0
    while fatal_sent < nth:
        if write_random_batch(env, rng):
            fatal_sent += 1
    wait_dead(server, 0)
    # writes accepted while the worker is a corpse land in the redo log
    for _ in range(rng.randint(0, 2)):
        write_random_batch(env, rng)

    # -- recovery -----------------------------------------------------------
    disarm(server, 0)
    server.restart_shard(0)
    server.drain()
    seen += sub.poll()

    # -- disconnect / resume ------------------------------------------------
    if seen and rng.random() < 0.8:
        resume_from = seen[rng.randrange(len(seen))].stamp
    else:
        resume_from = seen[-1].stamp if seen else 0
    server.disconnect(name)
    resumed = server.subscribe(name, resume_from=resume_from)
    merged = assert_spliced_stream(seen, resume_from, resumed.poll(), tag=tag)

    # live delivery splices in with no gap after the replay
    write_random_batch(env, rng)
    server.drain()
    merged += resumed.poll()
    assert_contiguous([n.stamp for n in merged], tag=f"{tag} final view:")

    # -- oracle equivalence -------------------------------------------------
    oracle = fresh_oracle(env)
    history = transitions_by_ego(env["batches"], oracle, nodes)
    final = dict(zip(nodes, oracle.read_batch(nodes)))
    assert dict(zip(nodes, server.read_batch(nodes))) == final, (
        f"{tag} recovered reads diverge from the never-crashed oracle"
    )
    per_ego = {}
    for note in merged:
        per_ego.setdefault(note.ego, []).append(note.value)
    for ego, values in per_ego.items():
        transitions = [
            value for index, value in history[ego] if index >= sub_batch
        ]
        # Coalesced batches may collapse intermediate transitions, and the
        # crash window may re-derive then suppress — but delivered values
        # must be an ordered subsequence of true transitions, ending at
        # the true final value.
        assert_subsequence(values, transitions, tag=f"{tag} ego {ego!r}:")
        assert values[-1] == final[ego], (
            f"{tag} ego {ego!r} last delivered {values[-1]} != final "
            f"{final[ego]}"
        )
    server.unsubscribe(name)


def test_external_kill_recovers_without_checkpoint(crashpad):
    """SIGTERM a worker that was never checkpointed in its current epoch:
    restart must rebuild from the spec alone and replay the entire redo
    log (extends the dead-worker coverage of test_executors.py — the
    worker death here is external, not a cooperative kill point)."""
    env = crashpad
    server = env["server"]
    nodes = env["nodes"]
    rng = random.Random(99)

    server.checkpoint()
    sub = server.subscribe("external-kill-watcher", nodes)
    for _ in range(3):
        write_random_batch(env, rng)
    kill_shard(server, 0)
    for _ in range(2):
        write_random_batch(env, rng)  # accepted while dead
    server.restart_shard(0)
    server.drain()
    notes = sub.poll()
    assert_contiguous([n.stamp for n in notes], tag="external kill:")

    oracle = fresh_oracle(env)
    for batch in env["batches"]:
        oracle.write_batch(batch)
    assert server.read_batch(nodes) == oracle.read_batch(nodes)
    final = dict(zip(nodes, oracle.read_batch(nodes)))
    last_per_ego = {}
    for note in notes:
        last_per_ego[note.ego] = note.value
    for ego, value in last_per_ego.items():
        assert value == final[ego]
    server.unsubscribe("external-kill-watcher")


def test_dead_shard_read_fails_fast_then_recovers(crashpad):
    """A read routed at a dead worker surfaces as an error in well under
    the full reply timeout, and the same read succeeds after restart."""
    import time

    from repro.serve import ServeError

    env = crashpad
    server = env["server"]
    shard0_nodes = [
        n for n, s in server.reader_shard.items() if s == 0
    ]
    assert shard0_nodes
    server.checkpoint()
    kill_shard(server, 0)
    started = time.monotonic()
    with pytest.raises((ServeError, RuntimeError)):
        server.read(shard0_nodes[0])
    assert time.monotonic() - started < server._reply_timeout / 2
    server.restart_shard(0)
    oracle = fresh_oracle(env)
    for batch in env["batches"]:
        oracle.write_batch(batch)
    assert server.read(shard0_nodes[0]) == oracle.read(shard0_nodes[0])
