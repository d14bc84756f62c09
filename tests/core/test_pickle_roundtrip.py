"""Pickle round-trips for everything the serving layer ships to workers.

The sharded serving layer (``repro.serve``) builds shard engines in worker
processes from pickled state, so compiled plans, the columnar value store,
CSR overlay snapshots, and the shard spec itself must survive pickling —
*byte-identically*: re-pickling the round-tripped object must produce the
same bytes, which pins down hidden state (locks, lambdas, open handles)
that pickle would silently mangle or reject.
"""

import pickle

import pytest

from repro.core.aggregates import Count, Max, Mean, Min, Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.statestore import ColumnarStore
from repro.core.windows import TupleWindow
from repro.graph.generators import paper_figure1, random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.overlay.dynamic import OverlayMaintainer
from repro.serve.shard import ShardSpec

from tests.conftest import as_object, oracle_for


def roundtrip(obj, byte_identical=True):
    """Pickle → unpickle; asserts byte identity, returns the clone.

    ``byte_identical=False`` is for objects carrying hash-ordered
    collections (the plans' ``touched`` frozensets): a rebuilt set may
    iterate in a different-but-equal order, so their pickles legally
    differ byte-for-byte while the contents are identical — those objects
    assert byte identity over their order-deterministic fields via
    :func:`stable_fields` instead.
    """
    data = pickle.dumps(obj)
    clone = pickle.loads(data)
    if byte_identical:
        assert pickle.dumps(clone) == data
    return clone


def stable_fields(obj, names):
    """Byte identity of the order-deterministic projection of ``obj``."""
    project = lambda o: pickle.dumps(tuple(getattr(o, n) for n in names))  # noqa: E731
    clone = pickle.loads(pickle.dumps(obj))
    assert project(clone) == project(obj)
    return clone


def warmed_engine(aggregate=None):
    graph = random_graph(24, 110, seed=19)
    engine = EAGrEngine(
        graph,
        EgoQuery(aggregate=aggregate or Sum(), window=TupleWindow(2)),
        overlay_algorithm="vnm_a",
    )
    nodes = list(graph.nodes())
    engine.write_batch([(n, float(i % 5)) for i, n in enumerate(nodes)] * 2)
    engine.read_batch(nodes)  # compiles pull plans/segments
    return engine


class TestCompiledPlans:
    def test_push_plans_roundtrip(self):
        """The scatter table every group write runs, and the list copy a
        per-writer write walks, survive pickling byte-identically."""
        for aggregate in (as_object(Sum()), Sum()):
            engine = warmed_engine(aggregate)
            engine.write(next(iter(engine.graph.nodes())), 7.0)  # builds the lists
            table = engine.runtime._scatter
            assert table is not None and table._lists is not None
            clone = roundtrip(table)
            for field in ("indptr", "dst", "push_indptr", "push_dst", "push_coeff"):
                before, after = getattr(table, field), getattr(clone, field)
                assert after.dtype == before.dtype
                assert after.tolist() == before.tolist()
            assert clone.has_push == table.has_push
            assert clone.lists() == table.lists()

    def test_pull_plans_roundtrip(self):
        engine = warmed_engine(as_object(Sum()))
        runtime = engine.runtime
        assert runtime._pull_plans, "expected compiled pull plans"
        for plan in runtime._pull_plans.values():
            clone = stable_fields(
                plan, ("program", "pull_ops", "exit_nodes", "observe_all")
            )
            assert clone.spans == plan.spans
            assert clone.touched == plan.touched

    def test_pull_rows_roundtrip(self):
        engine = warmed_engine()
        rows = engine.runtime._pull_rows
        assert len(rows), "expected compiled pull rows"
        clone = roundtrip(rows, byte_identical=False)
        assert clone.used == rows.used
        assert set(clone.touched) == set(rows.touched)
        for handle in rows.touched:
            before, after = rows.row(handle), clone.row(handle)
            for field in ("leaf", "coeff", "observe", "credit"):
                assert list(getattr(after, field)) == list(getattr(before, field))
            assert after.touched == before.touched
            again = roundtrip(before, byte_identical=False)
            assert list(again.leaf) == list(before.leaf)

    def test_reader_closures_roundtrip(self):
        engine = warmed_engine()
        engine.write_batch([(node, 1.0) for node in list(engine.graph.nodes())[:8]])
        engine.changed_readers()  # compiles closures
        closures = engine.runtime._closures
        assert len(closures), "expected compiled reader closures"
        clone = roundtrip(closures, byte_identical=False)
        for field in ("slots", "slot_of", "bitrow", "start", "count", "bits"):
            assert (getattr(clone, field) == getattr(closures, field)).all()
        assert list(clone.entries[:clone.used]) == list(closures.entries[:closures.used])
        assert (clone.used, clone.bits_used) == (closures.used, closures.bits_used)
        for writer in closures.touched:
            before, after = closures.row(writer), clone.row(writer)
            assert list(after.readers) == list(before.readers)
            assert after.touched == before.touched
            again = stable_fields(before, ("readers",))
            assert list(again.readers) == list(before.readers)


class TestColumnarStore:
    @pytest.mark.parametrize("aggregate", [Sum(), Count(), Mean(), Max(), Min()])
    def test_roundtrip_preserves_columns(self, aggregate):
        store = ColumnarStore(aggregate.column_spec, 12)
        store[3] = aggregate.lift(7)
        store[5] = aggregate.lift(2)
        store.clear(5)
        clone = roundtrip(store)
        for handle in range(12):
            assert clone[handle] == store[handle]
        for left, right in zip(clone.columns, store.columns):
            assert left.dtype == right.dtype

    def test_live_engine_store_roundtrip(self):
        engine = warmed_engine()
        assert engine.value_store_backend == "columnar"
        store = engine.runtime.values
        clone = roundtrip(store)
        for handle in range(len(store)):
            assert clone[handle] == store[handle]


class TestOverlayAndCSR:
    def test_csr_snapshot_roundtrip(self):
        engine = warmed_engine()
        csr = engine.overlay.to_csr()
        clone = roundtrip(csr)
        for field in (
            "in_indptr", "in_indices", "in_signs",
            "out_indptr", "out_indices", "out_signs",
            "push", "kinds", "fan_in",
        ):
            assert getattr(clone, field) == getattr(csr, field), field
        assert (clone.version, clone.decision_version) == (
            csr.version,
            csr.decision_version,
        )

    def test_overlay_roundtrip(self):
        engine = warmed_engine()
        overlay = engine.overlay
        clone = roundtrip(overlay)
        assert clone.writer_of == overlay.writer_of
        assert clone.reader_of == overlay.reader_of
        assert clone.decisions == overlay.decisions
        assert list(clone.edges()) == list(overlay.edges())


class TestServeShipment:
    """What actually crosses the process boundary in the serve layer."""

    def test_shard_spec_roundtrip_builds_equal_engine(self):
        graph = random_graph(20, 80, seed=23)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(1))
        readers = frozenset(list(graph.nodes())[:10])
        spec = ShardSpec(
            graph, query, shard_id=0, num_shards=2, readers=readers,
            engine_kwargs={"overlay_algorithm": "vnm_a"},
        )
        clone = pickle.loads(pickle.dumps(spec))
        host_a, host_b = spec.build(), clone.build()
        writes = [(n, float(i)) for i, n in enumerate(graph.nodes())]
        host_a.engine.write_batch(writes)
        host_b.engine.write_batch(writes)
        nodes = sorted(readers, key=repr)
        assert host_a.engine.read_batch(nodes) == host_b.engine.read_batch(nodes)

    def test_shard_spec_strips_unpicklable_predicate(self):
        graph = random_graph(12, 40, seed=29)
        keep = set(list(graph.nodes())[:5])
        query = EgoQuery(aggregate=Sum(), predicate=lambda node: node in keep)
        spec = ShardSpec(
            graph, query, shard_id=0, num_shards=1, readers=frozenset(keep)
        )
        clone = pickle.loads(pickle.dumps(spec))  # would raise on a lambda
        host = clone.build()
        assert set(host.engine.overlay.reader_of) <= keep

    def test_graph_pickle_drops_listeners(self):
        graph = paper_figure1()
        from repro.core.overlay import Overlay
        from repro.graph.bipartite import build_bipartite

        ag = build_bipartite(graph, Neighborhood.in_neighbors())
        maintainer = OverlayMaintainer(
            graph, Neighborhood.in_neighbors(), Overlay.identity(ag)
        ).attach()
        assert graph._listeners
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._listeners == []
        assert sorted(map(repr, clone.nodes())) == sorted(map(repr, graph.nodes()))
        assert maintainer.overlay is not None  # original subscription intact

    def test_query_components_roundtrip(self):
        query = EgoQuery(
            aggregate=Mean(),
            window=TupleWindow(3),
            neighborhood=Neighborhood.in_neighbors(hops=2),
        )
        clone = roundtrip(query)
        assert clone.window == query.window
        assert clone.aggregate.name == query.aggregate.name


class TestWindowBufferCheckpoints:
    """Shard checkpoints pickle live window buffers; identity-sensitive
    state must survive the trip."""

    def test_no_value_sentinel_keeps_identity(self):
        from repro.core.windows import NO_VALUE

        restored = pickle.loads(pickle.dumps(NO_VALUE))
        assert restored is NO_VALUE

    def test_empty_scalar_unit_buffer_roundtrips_empty(self):
        from repro.core.windows import TupleWindow as TW

        buffer = TW(1).make_buffer(scalar=True)
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone.values() == []  # an unset slot stays "no value"
        buffer.push(3.5, 1.0)
        filled = pickle.loads(pickle.dumps(buffer))
        assert filled.values() == [3.5]

    def test_all_window_buffers_roundtrip_values(self):
        from repro.core.windows import TimeWindow, TupleWindow as TW

        for window in (TW(1), TW(3), TimeWindow(5.0)):
            for scalar in (False, True):
                buffer = window.make_buffer(scalar=scalar)
                for step in range(4):
                    buffer.append(float(step), float(step))
                clone = pickle.loads(pickle.dumps(buffer))
                assert clone.values() == buffer.values(), (window, scalar)


#: ``ShardCheckpoint`` pickles (protocol 4, base64) written while each
#: writer's window was its own ``_ScalarTupleBuffer`` (TupleWindow(3), SUM)
#: or ``_ScalarUnitBuffer`` (TupleWindow(1), MEAN) object, before windows
#: became rows of the runtime's ring matrix; :func:`legacy_writes` is the
#: stream they hold.
LEGACY_CHECKPOINTS = {
    "sum3": (
        "gASVcAQAAAAAAACMFHJlcHJvLnNlcnZlLm1lc3NhZ2VzlIwPU2hhcmRDaGVja3BvaW50"
        "lJOUKYGUXZQoSwBLAEsFR0BIgAAAAAAAfZQoSwCMEnJlcHJvLmNvcmUud2luZG93c5SM"
        "El9TY2FsYXJUdXBsZUJ1ZmZlcpSTlCmBlE59lCiMBV9zaXpllEsDjAZfc2xvdHOUXZQo"
        "R8AEAAAAAAAAR0AaAAAAAAAATmWMBl9zdGFydJRLAIwGX2NvdW50lEsCdYaUYksBaAgp"
        "gZROfZQoaAtLA2gMXZQoR0AeAAAAAAAAR0AWAAAAAAAATmVoDksAaA9LAnWGlGJLC2gI"
        "KYGUTn2UKGgLSwNoDF2UKEc/4AAAAAAAAEe/+AAAAAAAAE5laA5LAGgPSwJ1hpRiSwxo"
        "CCmBlE59lChoC0sDaAxdlChHQBIAAAAAAABHv+AAAAAAAABHQAQAAAAAAABlaA5LAGgP"
        "SwN1hpRiSw1oCCmBlE59lChoC0sDaAxdlChHQAwAAAAAAABHP/gAAAAAAABOZWgOSwBo"
        "D0sCdYaUYksOaAgpgZROfZQoaAtLA2gMXZQoR0AeAAAAAAAAR0AEAAAAAAAAR0AWAAAA"
        "AAAAZWgOSwBoD0sDdYaUYksPaAgpgZROfZQoaAtLA2gMXZQoR0AaAAAAAAAAR0ASAAAA"
        "AAAATmVoDksAaA9LAnWGlGJLEGgIKYGUTn2UKGgLSwNoDF2UKEe/4AAAAAAAAEdAFgAA"
        "AAAAAEfABAAAAAAAAGVoDksAaA9LA3WGlGJLEWgIKYGUTn2UKGgLSwNoDF2UKEe/+AAA"
        "AAAAAEdAHgAAAAAAAE5laA5LAGgPSwJ1hpRiSxJoCCmBlE59lChoC0sDaAxdlChHQAQA"
        "AAAAAABHwAQAAAAAAABHP+AAAAAAAABlaA5LAGgPSwN1hpRiSxNoCCmBlE59lChoC0sD"
        "aAxdlChHP/gAAAAAAABHv+AAAAAAAABOZWgOSwBoD0sCdYaUYksCaAgpgZROfZQoaAtL"
        "A2gMXZQoRz/gAAAAAAAAR0AaAAAAAAAAR7/4AAAAAAAAZWgOSwBoD0sDdYaUYksDaAgp"
        "gZROfZQoaAtLA2gMXZQoR7/gAAAAAAAAR8AEAAAAAAAATmVoDksAaA9LAnWGlGJLBWgI"
        "KYGUTn2UKGgLSwNoDF2UKEdABAAAAAAAAEc/4AAAAAAAAE5laA5LAGgPSwJ1hpRiSwZo"
        "CCmBlE59lChoC0sDaAxdlChHQBoAAAAAAABHP/gAAAAAAABHQBIAAAAAAABlaA5LAGgP"
        "SwN1hpRiSwdoCCmBlE59lChoC0sDaAxdlChHQBYAAAAAAABHQAwAAAAAAABOZWgOSwBo"
        "D0sCdYaUYksIaAgpgZROfZQoaAtLA2gMXZQoR7/4AAAAAAAAR0ASAAAAAAAAR0AeAAAA"
        "AAAAZWgOSwBoD0sDdYaUYksJaAgpgZROfZQoaAtLA2gMXZQoR8AEAAAAAAAAR0AaAAAA"
        "AAAATmVoDksAaA9LAnWGlGJ1fZR9lGViLg=="
    ),
    "mean1": (
        "gASVPAIAAAAAAACMFHJlcHJvLnNlcnZlLm1lc3NhZ2VzlIwPU2hhcmRDaGVja3BvaW50"
        "lJOUKYGUXZQoSwBLAEsFR0BIgAAAAAAAfZQoSwCMEnJlcHJvLmNvcmUud2luZG93c5SM"
        "EV9TY2FsYXJVbml0QnVmZmVylJOUKYGUTn2UjAVfc2xvdJRHQBoAAAAAAABzhpRiSwFo"
        "CCmBlE59lGgLR0AWAAAAAAAAc4aUYksLaAgpgZROfZRoC0e/+AAAAAAAAHOGlGJLDGgI"
        "KYGUTn2UaAtHQAQAAAAAAABzhpRiSw1oCCmBlE59lGgLRz/4AAAAAAAAc4aUYksOaAgp"
        "gZROfZRoC0dAFgAAAAAAAHOGlGJLD2gIKYGUTn2UaAtHQBIAAAAAAABzhpRiSxBoCCmB"
        "lE59lGgLR8AEAAAAAAAAc4aUYksRaAgpgZROfZRoC0dAHgAAAAAAAHOGlGJLEmgIKYGU"
        "Tn2UaAtHP+AAAAAAAABzhpRiSxNoCCmBlE59lGgLR7/gAAAAAAAAc4aUYksCaAgpgZRO"
        "fZRoC0e/+AAAAAAAAHOGlGJLA2gIKYGUTn2UaAtHwAQAAAAAAABzhpRiSwVoCCmBlE59"
        "lGgLRz/gAAAAAAAAc4aUYksGaAgpgZROfZRoC0dAEgAAAAAAAHOGlGJLB2gIKYGUTn2U"
        "aAtHQAwAAAAAAABzhpRiSwhoCCmBlE59lGgLR0AeAAAAAAAAc4aUYksJaAgpgZROfZRo"
        "C0dAGgAAAAAAAHOGlGJ1fZR9lGViLg=="
    ),
}


def legacy_writes(graph, rounds):
    nodes = sorted(graph.nodes())
    return [
        [(n, float((n * 7 + r * 3) % 11) - 2.5) for n in nodes[r % 3 :: 2]]
        for r in range(rounds)
    ]


class TestLegacyCheckpoints:
    """Checkpoints of the per-writer buffer objects still restore: the
    buffers load into the ring matrix and the shard reads what an engine
    fed the same stream reads, before and after further writes."""

    @pytest.mark.parametrize(
        "name, aggregate, size, kind",
        [("sum3", Sum, 3, "_ScalarTupleBuffer"), ("mean1", Mean, 1, "_ScalarUnitBuffer")],
    )
    def test_restores_and_reads_equal_the_oracle(self, name, aggregate, size, kind):
        import base64

        from repro.core.windows import RingRow

        ck = pickle.loads(base64.b64decode("".join(LEGACY_CHECKPOINTS[name])))
        assert {type(buffer).__name__ for buffer in ck.buffers.values()} == {kind}
        graph = random_graph(20, 80, seed=23)
        query = EgoQuery(aggregate=aggregate(), window=TupleWindow(size))
        readers = sorted(graph.nodes())[:12]
        spec = ShardSpec(
            graph, query, shard_id=0, num_shards=1, readers=frozenset(readers),
            engine_kwargs={"overlay_algorithm": "vnm_a"},
        )
        host = spec.with_checkpoint(ck).build()
        runtime = host.engine.runtime
        assert all(type(buffer) is RingRow for buffer in runtime.buffers.values())
        assert (runtime.stamp, runtime.clock) == (ck.stamp, ck.clock) == (5, 49.0)
        oracle = oracle_for(graph=graph.copy(), query=query)
        stream = legacy_writes(graph, 9)
        for batch in stream[:5]:
            oracle.write_batch(batch)
        for node, buffer in ck.buffers.items():
            assert runtime.buffers[node].values() == buffer.values()
        assert host.engine.read_batch(readers) == [oracle.read(r) for r in readers]
        for batch in stream[5:]:
            host.engine.write_batch(batch)
            oracle.write_batch(batch)
            assert host.engine.read_batch(readers) == [oracle.read(r) for r in readers]

    def test_a_new_checkpoint_unpickles_without_a_runtime(self):
        """A checkpoint taken over ring views unpickles in a fresh
        interpreter that never built an engine: the windows arrive as the
        per-writer scalar buffers, holding the same values."""
        import os
        import subprocess
        import sys

        graph = random_graph(20, 80, seed=23)
        query = EgoQuery(aggregate=Sum(), window=TupleWindow(3))
        spec = ShardSpec(graph, query, shard_id=0, num_shards=1,
                         readers=frozenset(graph.nodes()))
        host = spec.build()
        for batch in legacy_writes(graph, 7):
            host.engine.write_batch(batch)
        expected = {n: b.values() for n, b in host.engine.runtime.buffers.items()}
        script = (
            "import pickle, sys\n"
            "ck = pickle.loads(sys.stdin.buffer.read())\n"
            "print(repr({n: (type(b).__name__, b.values()) for n, b in ck.buffers.items()}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(host.checkpoint()),
            capture_output=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        restored = eval(done.stdout.decode())
        assert {n: values for n, (_kind, values) in restored.items()} == expected
        assert {kind for kind, _values in restored.values()} == {"_ScalarTupleBuffer"}
