"""Live resharding: reader migration with no lost or duplicated notice.

``EAGrServer.reshard(plan)`` splices reader sets between running shards
(quiesce → checkpoint → splice → atomic swap → release).  This suite
pins the contract on the deterministic in-process executor plus one
process-executor pass:

* reads equal a never-resharded oracle before, across and after moves;
* a subscriber's stream stays stamp-contiguous and value-exact across a
  migration (the oracle replay of ``transitions_by_ego``);
* writes are never blocked by a migration — ``write_batch`` completes
  *from inside the migration's own fault hooks*;
* a failure before the hand-over point aborts cleanly (old partition
  intact, retry succeeds); the WAL ``P`` record makes recovery land
  entirely before or after the swap (kill -9 schedules live in
  ``test_reshard_faults.py``);
* the load-driven policy (``propose_rebalance`` / ``rebalance()``)
  proposes hot→cold writer-closure moves and stays quiet when balanced.

Timing note: after a reshard the affected workers are *freshly booted*
(spawn takes ~1s under the process executor), and ``flush()`` does not
wait for application — so every post-reshard assertion uses counted
``collect(sub, count=N)`` waits, never idle-based drains.
"""

import threading

import pytest

from repro.core.aggregates import Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import community_graph, random_graph
from repro.core.partition import mincut_assignment
from repro.serve import EAGrServer, ReshardPlan, ServeError
from repro.serve.messages import ShardCheckpoint
from repro.serve.reshard import (
    RebalancePolicy,
    plan_from_assignment,
    propose_rebalance,
    reroute,
    splice,
)

from tests.serve.faultlib import (
    assert_contiguous,
    assert_subsequence,
    collect,
    deadline,
    transitions_by_ego,
)


def make_server(graph, query, num_shards=3, **kwargs):
    kwargs.setdefault("executor", "inprocess")
    kwargs.setdefault("overlay_algorithm", "identity")
    kwargs.setdefault("dataflow", "all_push")
    return EAGrServer(graph, query, num_shards=num_shards, **kwargs)


def build_env(seed=41):
    graph = random_graph(16, 60, seed=seed)
    query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
    return graph, query


def make_batches(nodes, count, seed=7, size=5):
    import random

    rng = random.Random(seed)
    return [
        [(rng.choice(nodes), float(rng.randint(1, 9))) for _ in range(size)]
        for _ in range(count)
    ]


def cross_shard_plan(server, movers=4):
    """Move the first ``movers`` readers of shard 0 to the last shard."""
    dst = server.num_shards - 1
    moves = {}
    for node in sorted(server.reader_shard, key=repr):
        if server.reader_shard[node] == 0:
            moves[node] = dst
            if len(moves) >= movers:
                break
    assert moves, "shard 0 owns no readers in this seed"
    return moves


class TestBasicMigration:
    def test_reads_preserved_across_moves(self):
        graph, query = build_env()
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query) as server:
            batches = make_batches(nodes, 6, seed=11)
            for batch in batches[:3]:
                server.write_batch(batch)
                oracle.write_batch(batch)
            moves = cross_shard_plan(server)
            summary = server.reshard(moves)
            assert summary["moved"] == len(moves)
            assert summary["epoch"] == 1
            assert server.partition_epoch == 1
            for node, dst in moves.items():
                assert server.reader_shard[node] == dst
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
            for batch in batches[3:]:
                server.write_batch(batch)
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)

    def test_rounds_pending_at_the_swap_count_once(self):
        """Rounds accepted but not yet fanned out when a reshard starts
        (``accept`` with the flusher stopped) drain into the old epoch up
        to one common seq on every affected shard.  Drained one round per
        shard instead, shard 0 would drain the writer-11 round and shard 2
        the first writer-4 round, which shard 0 then replays as residue on
        top of the spliced buffers: counted twice."""
        graph, _ = build_env(seed=41)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(8))
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query, assign=lambda n: n % 3) as server:
            # writer 11 is read on shard 0 only, writer 4 on shards 0 and 2
            assert server.writer_shards[11] == (0,)
            assert sorted(server.writer_shards[4]) == [0, 2]
            server._stop_flusher.set()
            server._wake_flusher.set()
            server._flusher.join(timeout=5.0)
            batches = [[(11, 1.0)], [(4, 2.0)], [(4, 3.0)], [(11, 5.0)], [(4, 7.0)]]
            for batch in batches:
                server.accept(batch)
                oracle.write_batch(batch)
            server.reshard(cross_shard_plan(server, movers=2))
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)

    def test_a_snapshot_taken_before_the_swap_is_not_logged_after_it(self):
        """The flusher snapshots the due shards, then a reshard replaces
        their workers before the ``C`` records can be logged (they wait
        for the flush locks the reshard holds).  Logged after the ``P``
        record, an old worker's snapshot — same ``applied_through`` as
        the synthetic checkpoint — would replace it, and a restart would
        boot the shard with its pre-move buffers."""
        graph, query = build_env(seed=41)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query, checkpoint_interval=1) as server:
            snapped, swapped, logged = (threading.Event() for _ in range(3))
            await_, checkpoint = server._await, server.checkpoint

            def on_flusher():
                return threading.current_thread().name == "eagr-server-flusher"

            def stall_after_snapshot(calls):
                replies = await_(calls)
                if on_flusher() and not snapped.is_set():
                    snapped.set()
                    swapped.wait(10.0)
                return replies

            def checkpoint_and_note(shards=None):
                try:
                    return checkpoint(shards)
                finally:
                    if on_flusher():
                        logged.set()

            server._await = stall_after_snapshot
            server.checkpoint = checkpoint_and_note
            batch = [(node, 3.0) for node in nodes]
            server.accept(batch)
            oracle.write_batch(batch)
            assert snapped.wait(10.0), "the flusher never checkpointed"
            # The flusher stalls on shard 0.  Move it a reader with a
            # writer it did not hold: only the synthetic checkpoint has
            # that writer's window on shard 0.
            mover = next(
                node
                for node in sorted(server.reader_shard, key=repr)
                if server.reader_shard[node] != 0
                and any(
                    0 not in server.writer_shards.get(writer, ())
                    for writer in query.neighborhood(graph, node)
                )
            )
            server.reshard({mover: 0})
            swapped.set()
            assert logged.wait(10.0), "the flusher's checkpoint never ended"
            server._executors[0].kill()
            server.restart_shard(0)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)

    def test_reshard_plan_object_and_back(self):
        graph, query = build_env(seed=42)
        with make_server(graph, query) as server:
            moves = cross_shard_plan(server, movers=3)
            plan = ReshardPlan(moves=moves, kind="migrate", reason="test")
            assert len(plan) == len(moves) and bool(plan)
            server.reshard(plan)
            # Move them home again: a second migration over the same egos.
            back = {node: 0 for node in moves}
            summary = server.reshard(back)
            assert summary["epoch"] == 2
            assert all(server.reader_shard[n] == 0 for n in moves)

    def test_noop_and_filtered_plans(self):
        graph, query = build_env(seed=43)
        with make_server(graph, query) as server:
            assert server.reshard({})["moved"] == 0
            some = next(iter(server.reader_shard))
            stay = {some: server.reader_shard[some]}  # already there
            ghost = {"never-a-reader": 1}
            assert server.reshard(stay)["moved"] == 0
            assert server.reshard(ghost)["moved"] == 0
            assert server.partition_epoch == 0

    def test_invalid_destination(self):
        graph, query = build_env(seed=44)
        with make_server(graph, query) as server:
            some = next(iter(server.reader_shard))
            with pytest.raises(ValueError):
                server.reshard({some: 99})

    def test_replication_windows(self):
        graph, query = build_env(seed=45)
        nodes = sorted(graph.nodes())
        with make_server(graph, query) as server:
            planned = server.replication_factor
            assert planned >= 1.0
            for batch in make_batches(nodes, 4, seed=46):
                server.write_batch(batch)
            server.drain()
            observed = server.observed_replication_factor
            assert observed > 0.0
            stats = server.server_stats()
            assert stats["replication_factor"] == planned
            assert stats["observed_replication_factor"] == observed
            # A reshard opens a fresh observation window: with no writes
            # in it yet, the observed factor reports the new plan.
            server.reshard(cross_shard_plan(server, movers=2))
            assert (
                server.observed_replication_factor
                == server.replication_factor
            )

    def test_reads_after_shard_growth(self):
        """A migration that moves every reader onto one process shard
        rebuilds that worker with a larger overlay than it booted with;
        reads before and after it, and after further writes, equal a
        single engine's."""
        graph, query = build_env(seed=48)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query, executor="process") as server:
            for batch in make_batches(nodes, 3, seed=49):
                server.write_batch(batch)
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
            # Every reader lands on the last shard: its overlay (readers
            # plus writer closures) outgrows the boot-time segment.
            dst = server.num_shards - 1
            moves = {
                node: dst
                for node, shard in server.reader_shard.items()
                if shard != dst
            }
            assert server.reshard(moves)["moved"] == len(moves)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
            for batch in make_batches(nodes, 2, seed=50):
                server.write_batch(batch)
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)

    def test_shard_load_rows(self):
        graph, query = build_env(seed=47)
        with make_server(graph, query) as server:
            rows = server.server_stats()["shard_load"]
            assert len(rows) == server.num_shards
            for row in rows:
                assert set(row) >= {
                    "shard", "readers", "busy_fraction", "applied_eps",
                    "ring_depth", "outbox_pending",
                }
            assert sum(row["readers"] for row in rows) == len(server.reader_shard)


class TestNotificationStream:
    @pytest.mark.parametrize("executor", ["inprocess", "process"])
    def test_gap_free_across_migration(self, executor):
        graph, query = build_env(seed=48)
        nodes = sorted(graph.nodes())
        with deadline(120, f"reshard stream ({executor})"):
            with make_server(graph, query, executor=executor) as server:
                sub = server.subscribe("watcher", nodes)
                batches = make_batches(nodes, 8, seed=49)
                for batch in batches[:4]:
                    server.write_batch(batch)
                server.drain()
                server.reshard(cross_shard_plan(server))
                for batch in batches[4:]:
                    server.write_batch(batch)
                # drain() waits for application even on the freshly
                # booted post-reshard workers; flush() alone would not.
                server.drain()

                oracle = EAGrEngine(
                    graph, query, overlay_algorithm="identity",
                    dataflow="all_push",
                )
                history = transitions_by_ego(batches, oracle, nodes)
                notes = collect(sub, timeout=60, idle=1.0)
                assert_contiguous(
                    sorted(n.stamp for n in notes), tag=f"{executor}:"
                )
                by_ego = {}
                for note in notes:
                    by_ego.setdefault(note.ego, []).append(note.value)
                finals = dict(zip(nodes, oracle.read_batch(nodes)))
                for node in nodes:
                    got = by_ego.get(node, [])
                    want = [value for _, value in history[node]]
                    # Coalescing may skip intermediate values (several
                    # client batches applied as one shard batch), but the
                    # stream must stay an in-order subsequence of the
                    # oracle's transitions with no consecutive repeats,
                    # and must land on the final value.
                    assert_subsequence(
                        got, want, tag=f"{executor}: ego {node}:"
                    )
                    assert all(a != b for a, b in zip(got, got[1:])), (
                        f"{executor}: ego {node} saw a duplicate in {got}"
                    )
                    if got:
                        assert got[-1] == finals[node]
                    if want:
                        assert got, (
                            f"{executor}: ego {node} changed "
                            f"{len(want)} times but never notified"
                        )
                assert server.read_batch(nodes) == oracle.read_batch(nodes)

    def test_moved_ego_keeps_notifying(self):
        # The strictest slice of the contract: an ego that moves shards
        # mid-stream must keep producing notices for later changes (the
        # batch-counter alignment in the splice is what makes the
        # front-end's replay filter accept them).
        graph, query = build_env(seed=50)
        nodes = sorted(graph.nodes())
        with make_server(graph, query) as server:
            moves = cross_shard_plan(server)
            mover = next(iter(moves))
            writers = sorted(query.neighborhood(graph, mover))
            assert writers, "need a mover with at least one writer"
            sub = server.subscribe("watcher", [mover])
            server.write_batch([(writers[0], 3.0)])
            server.drain()
            first = collect(sub, count=1, timeout=30)
            server.reshard(moves)
            server.write_batch([(writers[0], 5.0)])
            server.flush()
            second = collect(sub, count=1, timeout=30)
            assert first[0].ego == mover and second[0].ego == mover
            assert second[0].stamp > first[0].stamp
            # TupleWindow(1): the writer's second write replaces its first.
            assert first[0].value == 3.0 and second[0].value == 5.0


class TestAvailability:
    def test_writes_never_block_during_migration(self):
        # write_batch must return from *inside* the migration window —
        # both for unaffected writers (routed around the quiesce) and for
        # migrating ones (parked as residue) — and nothing parked is lost.
        graph, query = build_env(seed=51)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query) as server:
            moves = cross_shard_plan(server)
            mover = next(iter(moves))
            moving_writer = sorted(query.neighborhood(graph, mover))[0]
            mid_batches = [
                [(node, 2.0) for node in nodes[:4]],  # broad batch
                [(moving_writer, 7.0)],  # lands in the quiesced residue
            ]
            in_window = []

            def mid_migration():
                for batch in mid_batches:
                    server.write_batch(batch)
                    in_window.append(len(batch))

            server.reshard_faults["pre_swap"] = mid_migration
            with deadline(60, "write during migration"):
                server.reshard(moves)
            assert in_window == [4, 1], "a write blocked inside the window"
            for batch in mid_batches:
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)

    def test_concurrent_writer_thread(self):
        graph, query = build_env(seed=52)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query) as server:
            batches = make_batches(nodes, 30, seed=53, size=3)
            errors = []

            def pump():
                try:
                    for batch in batches:
                        server.write_batch(batch)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            writer = threading.Thread(target=pump)
            writer.start()
            try:
                server.reshard(cross_shard_plan(server))
            finally:
                writer.join(timeout=60)
            assert not writer.is_alive() and not errors
            for batch in batches:
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)


class TestAbort:
    @pytest.mark.parametrize("point", ["pre_checkpoint", "pre_swap"])
    def test_clean_abort_before_handover(self, point):
        graph, query = build_env(seed=54)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query) as server:
            for batch in make_batches(nodes, 3, seed=55):
                server.write_batch(batch)
                oracle.write_batch(batch)
            before = dict(server.reader_shard)
            moves = cross_shard_plan(server)

            class Boom(RuntimeError):
                pass

            def explode():
                raise Boom(point)

            server.reshard_faults[point] = explode
            with pytest.raises(Boom):
                server.reshard(moves)
            # Old partition fully intact, server unpoisoned and usable.
            assert server.reader_shard == before
            assert server.partition_epoch == 0
            extra = make_batches(nodes, 2, seed=56)
            for batch in extra:
                server.write_batch(batch)
                oracle.write_batch(batch)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
            # ... and the retry (hook disarmed) goes through.
            del server.reshard_faults[point]
            assert server.reshard(moves)["moved"] == len(moves)
            assert server.read_batch(nodes) == oracle.read_batch(nodes)


class TestWalRecovery:
    def test_cold_restart_replays_the_new_partition(self, tmp_path):
        graph, query = build_env(seed=57)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        wal_dir = str(tmp_path / "wal")
        server = make_server(graph, query, wal_dir=wal_dir)
        try:
            batches = make_batches(nodes, 6, seed=58)
            for batch in batches[:3]:
                server.write_batch(batch)
            moves = cross_shard_plan(server)
            server.reshard(moves)
            for batch in batches[3:]:
                server.write_batch(batch)
            server.drain()
            # Simulated kill -9: abandon everything but release the flock
            # the kernel would release for a dead process.
            server._stop_flusher.set()
            server._flusher.join(timeout=10)
            server._wal.close()
        finally:
            pass
        for batch in batches:
            oracle.write_batch(batch)

        with make_server(graph, query, wal_dir=wal_dir) as revived:
            assert revived.partition_epoch == 1
            for node, dst in moves.items():
                assert revived.reader_shard[node] == dst
            revived.drain()
            assert revived.read_batch(nodes) == oracle.read_batch(nodes)


class TestRebalancePolicy:
    @staticmethod
    def load_rows(server, busy):
        sizes = server.shard_sizes()
        return [
            {
                "shard": shard_id,
                "readers": sizes[shard_id],
                "busy_fraction": busy[shard_id],
                "applied_eps": busy[shard_id] * 1000.0,
                "ring_depth": 0,
                "outbox_pending": 0,
            }
            for shard_id in range(server.num_shards)
        ]

    def test_balanced_load_proposes_nothing(self):
        graph, query = build_env(seed=59)
        with make_server(graph, query) as server:
            load = self.load_rows(server, [0.4, 0.4, 0.4])
            assert propose_rebalance(server, load=load) is None

    def test_idle_skew_is_noise(self):
        graph, query = build_env(seed=60)
        with make_server(graph, query) as server:
            load = self.load_rows(server, [0.01, 0.0, 0.0])
            assert propose_rebalance(server, load=load) is None

    def test_hot_shard_sheds_writer_closures(self):
        # Disconnected communities: each is one writer closure, so the
        # hot shard has something smaller than itself to shed.
        graph = community_graph(
            num_communities=6, community_size=10, intra_probability=0.5,
            inter_edges=0, seed=61,
        )
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        with make_server(graph, query, num_shards=2) as server:
            load = self.load_rows(server, [0.9, 0.05])
            # The default balance cap would leave no headroom on the
            # destination (the seed partition is already lopsided), so
            # the policy gets room to trade balance for heat.
            plan = propose_rebalance(
                server, policy=RebalancePolicy(balance=2.0), load=load
            )
            assert plan is not None and plan.moves
            assert all(server.reader_shard[n] == 0 for n in plan.moves)
            dst = set(plan.moves.values())
            assert len(dst) == 1 and 0 not in dst
            # Bounded step: never more than the policy's move fraction
            # (closure granularity may add the last closure's overhang).
            hot_size = server.shard_sizes()[0]
            assert len(plan.moves) <= hot_size
            summary = server.reshard(plan)
            assert summary["moved"] == len(plan.moves)

    def test_rebalance_applies_and_reports(self):
        graph = community_graph(
            num_communities=6, community_size=10, intra_probability=0.5,
            inter_edges=12, seed=62,
        )
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        with make_server(graph, query, num_shards=3) as server:
            # Quiet server: the metrics-plane gauges read idle.
            summary = server.rebalance()
            assert summary["moved"] == 0 and summary["plan"] is None
            assert server.partition_epoch == 0

    def test_policy_thresholds(self):
        policy = RebalancePolicy(skew_threshold=10.0)
        graph, query = build_env(seed=63)
        with make_server(graph, query) as server:
            load = self.load_rows(server, [0.9, 0.1, 0.1])
            assert propose_rebalance(server, policy=policy, load=load) is None

    def test_oversized_first_closure_respects_balance(self):
        # Same disconnected communities, hot side reversed, and a
        # balance cap that leaves the destination one reader of
        # headroom — less than *every* writer closure on the hot
        # shard.  The policy must propose nothing: moving a closure
        # anyway just because the plan is still empty would overfill
        # the cold shard past policy.balance.
        graph = community_graph(
            num_communities=6, community_size=10, intra_probability=0.5,
            inter_edges=0, seed=61,
        )
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        with make_server(graph, query, num_shards=2) as server:
            load = self.load_rows(server, [0.05, 0.9])
            sizes = server.shard_sizes()
            total = len(server.reader_shard)
            policy = RebalancePolicy(balance=0.8)
            cap = max(1, int(policy.balance * total / server.num_shards))
            # This seed partitions 23/37; the smallest hot closure has
            # 7 readers, far over the single-reader headroom.
            assert cap - sizes[0] == 1
            assert propose_rebalance(server, policy=policy, load=load) is None


class TestPlanFromAssignment:
    def test_diff_against_target(self):
        graph, query = build_env(seed=64)
        with make_server(graph, query) as server:
            target = dict(server.reader_shard)
            movers = sorted(target, key=repr)[:5]
            for node in movers:
                target[node] = (target[node] + 1) % server.num_shards
            plan = plan_from_assignment(server, target)
            assert plan.kind == "assignment"
            assert set(plan.moves) == set(movers)
            server.reshard(plan)
            assert dict(server.reader_shard) == target

    def test_identity_target_is_empty(self):
        graph, query = build_env(seed=65)
        with make_server(graph, query) as server:
            plan = plan_from_assignment(server, dict(server.reader_shard))
            assert not plan

    def test_accepts_mincut_assignment(self):
        # The documented pairing: re-run the partitioner offline (here
        # with write frequencies steering it away from the boot-time
        # partition), feed its TableAssignment straight in.
        graph, query = build_env(seed=66)
        with make_server(graph, query) as server:
            freq = {node: float(1 + (hash(node) % 5)) for node in graph.nodes()}
            target = mincut_assignment(
                graph, query, server.num_shards, write_freq=freq
            )
            plan = plan_from_assignment(server, target)
            assert plan.kind == "assignment"
            for node, dst in plan.moves.items():
                assert target(node) == dst
            if plan:
                server.reshard(plan)
                assert all(
                    server.reader_shard[node] == target(node)
                    for node in server.reader_shard
                )

    def test_accepts_plain_callable(self):
        # community_assignment-style callables (no .get) work too: every
        # current reader is mapped through the callable directly.
        graph, query = build_env(seed=67)
        with make_server(graph, query) as server:
            plan = plan_from_assignment(server, lambda node: 0)
            assert set(plan.moves) == {
                node
                for node, shard in server.reader_shard.items()
                if shard != 0
            }
            assert set(plan.moves.values()) <= {0}


class TestWriteRouteRace:
    """A ``write_batch`` racing the swap must re-route under the lock.

    The columnar path routes a packed batch *before* taking the route
    lock.  If a whole migration completes in that window, the step-4
    residue re-route has already run, so a push routed by the dead
    table would be applied (and WAL-replayed) on shards the moved
    readers just left and never reach their new home — a durably lost
    notification.  ``write_batch`` re-verifies the partition snapshot by
    dict identity under the lock and re-routes; this pins that.
    """

    def test_write_routed_across_swap_lands_on_new_home(self):
        graph, query = build_env(seed=77)
        nodes = sorted(graph.nodes())
        oracle = EAGrEngine(graph, query, overlay_algorithm="identity",
                            dataflow="all_push")
        with make_server(graph, query) as server:
            router = server._router
            assert router.routes().table is not None  # int keys: frames split
            moves = cross_shard_plan(server, movers=len(nodes))
            orig = router.split
            fired = []

            def racy(frame, routes):
                parts = orig(frame, routes)
                if not fired:
                    # A full migration completes inside the window
                    # between write_batch's routing and its push.
                    fired.append(True)
                    server.reshard(moves)
                return parts

            router.split = racy
            batch = [(node, 2.0, float(i + 1)) for i, node in enumerate(nodes)]
            try:
                assert server.write_batch(batch) == len(batch)
            finally:
                router.split = orig
            oracle.write_batch(batch)
            assert fired and server.partition_epoch == 1
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)
            # Steady state after the race stays exact too.
            for later in make_batches(nodes, 3, seed=78):
                server.write_batch(later)
                oracle.write_batch(later)
            server.drain()
            assert server.read_batch(nodes) == oracle.read_batch(nodes)


class TestSpliceAndReroute:
    """Steps 3 and 4 of a migration, as the pure functions they are."""

    TABLE = {"a": 0, "b": 0, "c": 1}

    @staticmethod
    def checkpoints():
        return {
            0: ShardCheckpoint(
                0, 5, 40, 7.0, {"w": [1.0]},
                {"a": ("s1",), "b": ("s2",)}, {"a": 1.0, "b": 2.0},
            ),
            1: ShardCheckpoint(
                1, 3, 90, 6.0, {"x": [2.0]}, {"c": ("s3",)}, {"c": 3.0},
            ),
        }

    def test_a_moved_ego_takes_its_watchers_and_baseline(self):
        readers, synthetic = splice(
            self.TABLE, {"a": 1}, self.checkpoints(), {0: 5, 1: 3}
        )
        assert readers == {0: {"b"}, 1: {"a", "c"}}
        assert synthetic[0].watchers == {"b": ("s2",)}
        assert synthetic[0].baseline == {"b": 2.0}
        assert synthetic[1].watchers == {"c": ("s3",), "a": ("s1",)}
        assert synthetic[1].baseline == {"c": 3.0, "a": 1.0}

    def test_counters_are_the_group_max_and_no_buffer_is_shared(self):
        cks = self.checkpoints()
        _readers, synthetic = splice(self.TABLE, {"a": 1}, cks, {0: 5, 1: 3})
        for shard_id, ck in synthetic.items():
            assert ck.shard_id == shard_id
            assert (ck.applied_through, ck.stamp, ck.clock) == (5, 90, 7.0)
            assert ck.buffers == {"w": [1.0], "x": [2.0]}
        buffers = [ck.buffers[w] for ck in synthetic.values() for w in ("w", "x")]
        buffers += [cks[0].buffers["w"], cks[1].buffers["x"]]
        assert len({id(buffer) for buffer in buffers}) == len(buffers)

    def test_residue_stays_where_read_and_reaches_each_new_reader_once(self):
        w, v, u = ("w", 1.0, 1.0), ("v", 2.0, 2.0), ("u", 3.0, 3.0)
        old = {"w": (0, 1), "v": (1,), "u": (0,)}
        new = {"w": (1, 2), "v": (1, 2), "u": (0,)}
        rounds = {0: [(1, [w]), (2, [u])], 1: [(1, [w, v])]}
        assert reroute(rounds, [0, 1, 2], old, new) == {
            0: [u],  # w is no longer read on 0
            1: [w, v],  # both still read on 1
            2: [w, v],  # newly reached: w from donor 0 only, v from 1
        }
