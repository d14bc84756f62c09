"""The runtime's changed-reader report (the subscription diffing signal)."""

import pytest

from repro.core.aggregates import CountDistinct, Max, Sum
from repro.core.engine import EAGrEngine
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow
from repro.graph.generators import paper_figure1, random_graph
from repro.graph.neighborhoods import Neighborhood
from repro.graph.streams import StructureEvent, StructureOp

from tests.conftest import STORE_OF

#: SUM on columns and on objects, and COUNT-DISTINCT (objects): every
#: write here moves a window's distinct count exactly when it moves its sum.
AGGREGATES = {**STORE_OF, "count_distinct": lambda _sum: CountDistinct()}


def build(graph=None, aggregate=None, store=None, **kwargs):
    aggregate = aggregate or Sum()
    return EAGrEngine(
        graph if graph is not None else paper_figure1(),
        EgoQuery(
            aggregate=aggregate if store is None else AGGREGATES[store](aggregate),
            window=kwargs.pop("window", TupleWindow(1)),
            neighborhood=Neighborhood.in_neighbors(),
        ),
        overlay_algorithm=kwargs.pop("overlay_algorithm", "vnm_a"),
        **kwargs,
    )


def downstream_readers(engine, writer_node):
    """Oracle: readers whose neighborhood contains ``writer_node``."""
    return {
        reader
        for reader, handle in engine.overlay.reader_of.items()
        if writer_node in engine.query.neighborhood(engine.graph, reader)
    }


@pytest.mark.parametrize("store", list(AGGREGATES))
class TestChangedReaders:
    def test_report_covers_downstream_readers(self, store):
        engine = build(store=store)
        engine.write_batch([("c", 5.0)])
        changed = set(engine.changed_readers())
        assert changed == downstream_readers(engine, "c")

    def test_report_is_consumed(self, store):
        engine = build(store=store)
        engine.write_batch([("c", 5.0)])
        assert engine.changed_readers()
        assert engine.changed_readers() == []

    def test_zero_delta_batch_reports_nothing(self, store):
        engine = build(store=store)
        engine.write_batch([("c", 5.0)])
        engine.changed_readers()
        # ROWS 1 window: rewriting the same value telescopes to delta 0.
        engine.write_batch([("c", 5.0)])
        assert engine.changed_readers() == []

    def test_multi_writer_batch_unions_closures(self, store):
        graph = random_graph(25, 110, seed=31)
        engine = build(graph=graph, store=store)
        nodes = list(graph.nodes())[:6]
        engine.write_batch([(n, 3.0) for n in nodes])
        changed = set(engine.changed_readers())
        expected = set()
        for node in nodes:
            expected |= downstream_readers(engine, node)
        assert changed == expected

    def test_per_event_write_also_reports(self, store):
        engine = build(store=store)
        engine.write("d", 2.0)
        assert set(engine.changed_readers()) == downstream_readers(engine, "d")

    def test_report_matches_across_batch_sizes(self, store):
        graph = random_graph(25, 110, seed=33)
        whole = build(graph=graph, store=store)
        chunked = build(graph=graph, store=store)
        writes = [(n, float(i % 4)) for i, n in enumerate(graph.nodes())]
        whole.write_batch(writes)
        for start in range(0, len(writes), 5):
            chunked.write_batch(writes[start : start + 5])
        assert set(whole.changed_readers()) == set(chunked.changed_readers())


class TestLatticeCandidates:
    def test_noop_writer_update_reports_nothing(self):
        """MAX: a write that leaves the writer's window max alone is silent."""
        engine = build(aggregate=Max(), window=TupleWindow(2), dataflow="all_push")
        engine.write_batch([("c", 9.0)])
        engine.changed_readers()
        engine.write_batch([("c", 1.0)])  # window max still 9: no message
        assert engine.changed_readers() == []

    def test_lattice_report_is_candidate_superset(self):
        """MAX: a moved writer reports its readers even when a dominating
        sibling keeps every reader's final value unchanged — consumers diff
        values, so candidates are allowed, drops are not."""
        engine = build(aggregate=Max(), window=TupleWindow(1), dataflow="all_push")
        engine.write_batch([("c", 9.0), ("d", 5.0)])
        engine.changed_readers()
        before = {n: engine.read(n) for n in downstream_readers(engine, "d")}
        engine.write_batch([("d", 7.0)])  # writer moves; maxes may not
        changed = set(engine.changed_readers())
        assert changed == downstream_readers(engine, "d")
        # At least one shared reader's value is dominated by c's 9.0 —
        # reported as a candidate although its value is unchanged.
        shared = downstream_readers(engine, "c") & downstream_readers(engine, "d")
        if shared:
            for node in shared:
                assert engine.read(node) == max(9.0, before[node])


class TestInvalidationAndRebuild:
    def test_closures_survive_precise_invalidation(self):
        engine = build()
        engine.write_batch([("c", 5.0)])
        engine.changed_readers()
        compiles_before = engine.runtime.plan_compiles
        engine.write_batch([("c", 6.0)])
        engine.changed_readers()
        # Second report reuses the cached closure: no new compilations of
        # the reader closure beyond what other plans needed.
        assert engine.runtime.plan_compiles == compiles_before

    @pytest.mark.parametrize("store", list(AGGREGATES))
    def test_plan_compiles_are_first_touch_not_churn(self, store):
        """A steady write → changed_readers → read cycle compiles each
        plan once: whatever ``plan_compiles`` reads after the first pass
        over a schedule is what it reads after the second (ROADMAP's
        question about ``core.plan_compiles`` on ``engine_write_heavy``)."""
        import random

        graph = random_graph(60, 400, seed=41)
        engine = build(graph=graph, store=store, dataflow="mincut")
        rng = random.Random(41)
        nodes = list(graph.nodes())
        cycle = [
            (
                [(rng.choice(nodes), float(rng.randrange(9))) for _ in range(12)],
                rng.sample(nodes, 6),
            )
            for _ in range(40)
        ]

        def one_pass():
            for writes, egos in cycle:
                engine.write_batch(writes)
                engine.changed_readers()
                engine.read_batch(egos)
            runtime = engine.runtime
            return runtime.plan_compiles, runtime.plan_invalidations

        compiles, invalidations = one_pass()
        assert compiles > 0
        assert one_pass() == (compiles, invalidations)

    @pytest.mark.parametrize("maintain", [False, True])
    def test_pending_report_survives_structure_change(self, maintain):
        """The report is keyed by node id, so overlay rebuilds (lazy full
        recompile and incremental maintainer surgery alike) cannot lose a
        change accepted before the mutation — and it is mapped through the
        closures of the overlay *after* the mutation."""
        engine = build(maintain=maintain)
        engine.write_batch([("c", 5.0)])
        engine.changed_readers()  # compiles c's closure on the old overlay
        assert "b" not in downstream_readers(engine, "c")
        engine.write_batch([("c", 6.0)])  # pending across the mutation
        engine.apply_structure_event(
            StructureEvent(StructureOp.ADD_EDGE, "c", "b")
        )
        assert "b" in downstream_readers(engine, "c")
        assert downstream_readers(engine, "c") <= set(engine.changed_readers())
        # Nothing structural is pending any more: "b" is reported for a
        # fresh write only if c's closure was re-derived.
        engine.write_batch([("c", 7.0)])
        assert set(engine.changed_readers()) == downstream_readers(engine, "c")


STRUCTURE_EVENTS = [
    StructureEvent(StructureOp.ADD_EDGE, "c", "b"),
    StructureEvent(StructureOp.REMOVE_EDGE, "c", "g"),
    StructureEvent(StructureOp.REMOVE_NODE, "c"),
]


@pytest.mark.parametrize("store", list(AGGREGATES))
@pytest.mark.parametrize("maintain", [False, True])
@pytest.mark.parametrize("event", STRUCTURE_EVENTS, ids=lambda e: e.op.name)
def test_structure_change_reports_readers_it_moved(event, maintain, store):
    """A structural change moves aggregates with no writer moving (an edge
    removal takes a value out of N(r)); the report must name every reader
    whose value it changed, or a continuous subscriber never hears."""
    engine = build(maintain=maintain, store=store)
    engine.write_batch([("c", 5.0)])
    engine.changed_readers()
    before = {r: engine.read(r) for r in engine.overlay.reader_of}
    engine.apply_structure_event(event)
    changed = engine.changed_readers()
    after = {r: engine.read(r) for r in engine.overlay.reader_of}
    moved = {r for r, value in after.items() if value != before.get(r, 0.0)}
    assert moved, "the event was chosen to move at least one aggregate"
    assert moved <= set(changed)
    assert len(changed) == len(set(changed))
    assert engine.changed_readers() == []


class TestGlobalWriteStamp:
    """The stamped report: a monotone version that survives rebuilds."""

    def test_stamp_ticks_once_per_ingestion_call(self):
        engine = build()
        assert engine.runtime.stamp == 0
        engine.write_batch([("c", 1.0), ("d", 2.0)])
        stamp_a, changed = engine.changed_report()
        assert stamp_a == 1 and changed
        engine.write("c", 3.0)
        stamp_b, _ = engine.changed_report()
        assert stamp_b == stamp_a + 1

    def test_stamp_survives_full_recompile(self):
        engine = build(maintain=False)
        engine.write_batch([("c", 1.0)])
        engine.changed_readers()
        before = engine.runtime.stamp
        engine.apply_structure_event(
            StructureEvent(StructureOp.ADD_EDGE, "c", "g")
        )
        engine.write_batch([("c", 2.0)])  # triggers the lazy recompile
        stamp, _ = engine.changed_report()
        assert stamp == before + 1

    def test_stamp_seedable_for_restore(self):
        from repro.core.execution import Runtime

        engine = build()
        engine.write_batch([("c", 1.0)])
        restored = Runtime(
            engine.overlay, engine.query, buffers=engine.runtime.buffers,
            stamp=engine.runtime.stamp,
        )
        assert restored.stamp == engine.runtime.stamp
        restored.write_batch([("c", 2.0)])
        assert restored.stamp == engine.runtime.stamp + 1
