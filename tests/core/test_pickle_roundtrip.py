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

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False


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


def warmed_engine(value_store="auto"):
    graph = random_graph(24, 110, seed=19)
    engine = EAGrEngine(
        graph,
        EgoQuery(aggregate=Sum(), window=TupleWindow(2)),
        overlay_algorithm="vnm_a",
        value_store=value_store,
    )
    nodes = list(graph.nodes())
    engine.write_batch([(n, float(i % 5)) for i, n in enumerate(nodes)] * 2)
    engine.read_batch(nodes)  # compiles pull plans/segments
    return engine


class TestCompiledPlans:
    def test_push_plans_roundtrip(self):
        engine = warmed_engine()
        runtime = engine.runtime
        assert runtime._push_plans or runtime._scatter is not None
        for handle, plan in runtime._push_plans.items():
            clone = stable_fields(
                plan, ("steps", "observe", "scalar_steps", "push_count")
            )
            assert clone.touched == plan.touched

    def test_pull_plans_roundtrip(self):
        engine = warmed_engine(value_store="object")
        runtime = engine.runtime
        assert runtime._pull_plans, "expected compiled pull plans"
        for plan in runtime._pull_plans.values():
            clone = stable_fields(
                plan, ("program", "pull_ops", "exit_nodes", "observe_all")
            )
            assert clone.spans == plan.spans
            assert clone.touched == plan.touched

    @pytest.mark.skipif(not HAVE_NUMPY, reason="pull rows require numpy")
    def test_pull_rows_roundtrip(self):
        engine = warmed_engine(value_store="columnar")
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
        runtime = engine.runtime
        assert runtime._reader_closures
        for closure in runtime._reader_closures.values():
            clone = stable_fields(closure, ("readers",))
            assert clone.touched == closure.touched


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar store requires numpy")
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
        engine = warmed_engine(value_store="columnar")
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
